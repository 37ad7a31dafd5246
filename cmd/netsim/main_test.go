package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlfair/internal/experiments"
	scen "mlfair/internal/scenario"
)

func tinyOpts() experiments.NetsimOptions {
	return experiments.NetsimOptions{Receivers: 6, Packets: 5000, Trials: 2, Workers: 2, Seed: 5}
}

func TestRunAllScenarios(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"netsim star", "netsim figure 8", "tree depth", "netsim mesh", "netsim churn",
		"background traffic", "netsim leave latency", "netsim audit", "netsim convergence",
		"netsim planetary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -scenario all output", want)
		}
	}
}

func TestRunScenarioSubset(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "star, churn", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "netsim star") || !strings.Contains(out, "netsim churn") {
		t.Errorf("subset missing requested scenarios:\n%s", out)
	}
	if strings.Contains(out, "netsim mesh") {
		t.Errorf("subset ran unrequested scenario:\n%s", out)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "zigzag", tinyOpts()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run(&b, " ", tinyOpts()); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}

// TestSpecReproducesLargeTopoGolden: the committed scenario.Spec JSON
// files drive the exact pipeline the experiment drivers run, so
// `netsim -spec testdata/scalefree.json` + `-spec testdata/fattree.json`
// must reproduce internal/experiments/testdata/largetopo.golden byte
// for byte — the declarative layer and the driver layer are one.
func TestSpecReproducesLargeTopoGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replication-heavy golden in -short mode")
	}
	var b strings.Builder
	for _, f := range []string{"scalefree.json", "fattree.json"} {
		if err := scen.RunFile(&b, filepath.Join("testdata", f)); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "largetopo.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("spec-driven output drifted from largetopo.golden:\n--- got ---\n%s\n--- want ---\n%s",
			b.String(), want)
	}
}

// TestSpecAuditEndToEnd: acceptance for the one-call pipeline — a
// single Spec JSON emits simulated rates next to the max-min benchmark
// and the four fairness-property verdicts.
func TestSpecAuditEndToEnd(t *testing.T) {
	var b strings.Builder
	if err := scen.RunFile(&b, filepath.Join("testdata", "audit.json")); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"max-min fair rate", "achieved mean", "fairness gap",
		"max-min benchmark properties", "simulated-rate properties",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit spec output missing %q:\n%s", want, out)
		}
	}
}

// sweepCases maps each committed sweep file to the experiment builder
// it re-expresses: the Figure-8 redundancy sweep, the background
// cross-traffic sweep, and the leave-latency sweep, all at the
// drivers' default sizing.
func sweepCases() []struct {
	name  string
	build func() (*scen.Sweep, error)
} {
	o := experiments.DefaultNetsimOptions()
	return []struct {
		name  string
		build func() (*scen.Sweep, error)
	}{
		{"fig8", func() (*scen.Sweep, error) { return experiments.Figure8Sweep(o, 0.0001) }},
		{"background", func() (*scen.Sweep, error) { return experiments.BackgroundSweep(o) }},
		{"leavelatency", func() (*scen.Sweep, error) { return experiments.LeaveLatencySweep(o) }},
		{"convergence", func() (*scen.Sweep, error) { return experiments.ConvergenceSweep(o) }},
	}
}

// TestSweepSpecsMatchBuilders: the committed sweep files ARE the
// experiment drivers' sweeps — builder output and file agree byte for
// byte, and the files decode→encode stably.
func TestSweepSpecsMatchBuilders(t *testing.T) {
	for _, c := range sweepCases() {
		path := filepath.Join("testdata", "sweeps", c.name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sw.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s: builder sweep drifted from committed file:\n--- builder ---\n%s\n--- file ---\n%s",
				path, b.String(), want)
		}
		loaded, err := scen.LoadSweepFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b2 strings.Builder
		if err := loaded.Encode(&b2); err != nil {
			t.Fatal(err)
		}
		if b2.String() != string(want) {
			t.Errorf("%s: decode→encode not stable", path)
		}
	}
}

// TestSweepCSVGolden: `netsim -sweep` on each committed sweep file
// reproduces its golden CSV byte for byte — the sweep layer's
// end-to-end determinism acceptance. Regenerate after an intentional
// change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/netsim -run TestSweepCSVGolden
func TestSweepCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replication-heavy goldens in -short mode")
	}
	for _, c := range sweepCases() {
		var b strings.Builder
		if err := scen.RunSweepFile(&b, filepath.Join("testdata", "sweeps", c.name+".json"), "csv"); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "sweeps", c.name+".golden.csv")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s updated (%d bytes)", golden, b.Len())
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s drifted from golden (run with UPDATE_GOLDEN=1 if intentional):\n--- got ---\n%s\n--- want ---\n%s",
				c.name, b.String(), want)
		}
	}
}

// TestPlanetaryGolden: `netsim -scenario planetary -receivers 65536
// -trials 1` reproduces its committed output byte for byte — the
// memory-plan line and the per-region rows — at 1,024 packets and at
// 16,384, the packet budget of perfbench's timed planetary-1m jobs. The
// run is session-sharded with a subtree cut frontier on every region,
// and the output is invariant in the host's core count, so the goldens
// hold on any machine. The 1M-receiver twin,
// testdata/planetary.golden.out, is too large for a unit test.
// Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/netsim -run TestPlanetaryGolden
func TestPlanetaryGolden(t *testing.T) {
	for _, tc := range []struct {
		packets int
		golden  string
	}{
		{1024, "planetary-64k.golden.out"},
		{16384, "planetary-64k-16k.golden.out"},
	} {
		var b strings.Builder
		o := experiments.NetsimOptions{Receivers: 65536, Packets: tc.packets, Trials: 1, Seed: 777}
		if err := run(&b, "planetary", o); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", tc.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s updated (%d bytes)", golden, b.Len())
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("planetary output drifted from %s (run with UPDATE_GOLDEN=1 if intentional):\n--- got ---\n%s\n--- want ---\n%s",
				golden, b.String(), want)
		}
	}
}

// TestTimeseriesFlag: the -timeseries path emits the long-format CSV
// for the committed probe spec, and rejects spec-less or probe-less
// invocations.
func TestTimeseriesFlag(t *testing.T) {
	var b strings.Builder
	if err := runTimeseries(&b, filepath.Join("testdata", "timeseries.json"), "", nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	if lines[0] != "time,window_start,session,receiver,rate_mean,level_mean,fair_rate,gap" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CSV lines", len(lines))
	}
	if err := runTimeseries(&b, "", "", nil); err == nil {
		t.Fatal("-timeseries without -spec accepted")
	}
	if err := runTimeseries(&b, "x.json", "y.json", nil); err == nil {
		t.Fatal("-timeseries with -sweep accepted")
	}
	// audit.json carries no probe block: the appended timeseries stage
	// must fail validation, not run silently without windows.
	if err := runTimeseries(&b, filepath.Join("testdata", "audit.json"), "", nil); err == nil {
		t.Fatal("-timeseries on a probe-less spec accepted")
	}
}

// TestTimeseriesSpecStable: the committed timeseries spec decodes and
// re-encodes byte-identically, like every committed spec file.
func TestTimeseriesSpecStable(t *testing.T) {
	path := filepath.Join("testdata", "timeseries.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := scen.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := loaded.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("%s: decode→encode not stable", path)
	}
}

// TestSweepJSONFormat: the -format json path emits the simulated store
// with its quantile sketches.
func TestSweepJSONFormat(t *testing.T) {
	sw, err := experiments.BackgroundSweep(experiments.NetsimOptions{
		Receivers: 4, Packets: 2000, Trials: 2, Workers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := scen.RunSweepFile(&b, path, "json"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"simulated"`, `"sketch"`, `"best_rate"`, `"shared_redundancy"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("json sweep output missing %s:\n%s", want, b.String())
		}
	}
	if err := scen.RunSweepFile(&b, path, "yaml"); err == nil {
		t.Error("unknown sweep format accepted")
	}
}
