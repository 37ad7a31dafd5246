package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlfair/internal/netsim"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that the last line names every metric
// BENCHMARK.json lists for the mode, with its unit, and no failures.
func TestWorkloadsTiny(t *testing.T) {
	bench, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := realMain([]string{"-workload", w, "-seed", "5", "-seconds", "0", "-trace", trace,
					"-tiny", "-root", "..", "-work", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed: %s", r.Correct, r.Failed, r.Attempted, errb.String())
				}
				want := bench.EndToEnd
				if trace == "1" {
					want = bench.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %v with unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedOutputCounted runs the committed capacity sweeps against
// goldens with one row changed: that row's replications, and only
// those, count as failed.
func TestCorruptedOutputCounted(t *testing.T) {
	root := t.TempDir()
	src := filepath.Join("..", "cmd", "netsim", "testdata", "sweeps")
	dst := filepath.Join(root, "cmd", "netsim", "testdata", "sweeps")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"background.json", "background.golden.csv", "convergence.json", "convergence.golden.csv"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "background.golden.csv" {
			rows := strings.Split(string(data), "\n")
			rows[2] = strings.Replace(rows[2], "7.8", "7.9", 1)
			data = []byte(strings.Join(rows, "\n"))
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := runJob(jobSpec{Workload: "sweep-capacity", Golden: true, Root: root, Work: t.TempDir()})
	if rec.Attempted != 11*8 || rec.Failed != 8 {
		t.Fatalf("%d of %d failed, want 8 of 88: %v", rec.Failed, rec.Attempted, rec.Problems)
	}
}

// TestCheckSweepCSV exercises the table checks: the golden compare
// fails a changed row's replications and a short table's all, and the
// invariant checks catch values no sweep can produce.
func TestCheckSweepCSV(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "netsim", "testdata", "sweeps", "fig8.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]int, 33)
	for i := range reps {
		reps[i] = 8
	}
	rows := strings.Split(string(golden), "\n")
	// edit sets one field of one row; column 2 is root_redundancy_mean,
	// column 4 root_redundancy_min.
	edit := func(row, col int, v string) []byte {
		r := append([]string(nil), rows...)
		f := strings.Split(r[row], ",")
		f[col] = v
		r[row] = strings.Join(f, ",")
		return []byte(strings.Join(r, "\n"))
	}
	for _, tc := range []struct {
		name       string
		got, want  []byte
		wantFailed int
	}{
		{"golden match", golden, golden, 0},
		{"golden row changed", edit(5, 2, "1.5"), golden, 8},
		{"golden row missing", []byte(strings.Join(append(rows[:33:33], ""), "\n")), golden, 264},
		{"invariants hold", golden, nil, 0},
		{"redundancy below one", edit(3, 4, "0.5"), nil, 8},
		{"not a number", edit(7, 2, "NaN"), nil, 8},
		{"min above mean", edit(9, 4, "1e9"), nil, 8},
		{"empty table", nil, nil, 264},
	} {
		if failed, problems := checkSweepCSV(tc.got, tc.want, reps); failed != tc.wantFailed {
			t.Errorf("%s: %d failed, want %d (%v)", tc.name, failed, tc.wantFailed, problems)
		}
	}
}

// TestCheckPlanetary: the committed planetary output passes against
// its golden, and a changed digit, a mean level above the layer count
// or a link dropping more than entered it does not.
func TestCheckPlanetary(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "netsim", "testdata", "planetary.golden.out"))
	if err != nil {
		t.Fatal(err)
	}
	res := func() *netsim.Result {
		return &netsim.Result{ReceiverRates: make([][]float64, 8), MeanLevels: make([]float64, 8)}
	}
	if p := checkPlanetary(golden, golden, res(), 8, 8); len(p) != 0 {
		t.Fatalf("committed output fails: %v", p)
	}
	changed := bytes.Replace(golden, []byte("3.581148"), []byte("3.581149"), 1)
	highLevel := res()
	highLevel.MeanLevels[3] = 9
	overDrop := res()
	overDrop.Links = []netsim.LinkStats{{Link: 4, Crossed: 1, Dropped: 2}}
	for name, tc := range map[string]struct {
		out []byte
		res *netsim.Result
	}{
		"changed digit":    {changed, res()},
		"level above top":  {golden, highLevel},
		"drops > crossing": {golden, overDrop},
	} {
		if p := checkPlanetary(tc.out, golden, tc.res, 8, 8); len(p) != 1 {
			t.Errorf("%s: problems %v, want one", name, p)
		}
	}
}

// TestTracedSelfTimesWithinWall checks that a traced job's spans
// inside its wall time have self times summing to no more than the
// wall time, and that each layer's share is part of that sum.
func TestTracedSelfTimesWithinWall(t *testing.T) {
	for _, w := range workloadNames {
		rec := runJob(jobSpec{Workload: w, Seed: 9, Tiny: true, Trace: true, Root: "..", Work: t.TempDir()})
		if rec.Failed != 0 {
			t.Fatalf("%s: %v", w, rec.Problems)
		}
		sum := rec.Layers["trace.self_sum_s"]
		if sum <= 0 || sum > rec.Wall {
			t.Errorf("%s: self times sum to %g s, wall %g s", w, sum, rec.Wall)
		}
		for span, metric := range windowSpans {
			if v := rec.Layers[metric]; v < 0 || (span != "netsim.run" && v > sum) {
				t.Errorf("%s: %s = %g s outside [0, %g]", w, metric, v, sum)
			}
		}
	}
}
