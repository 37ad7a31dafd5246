package scenario

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"mlfair/internal/netsim"
)

func observeSweep(workers int) *Sweep {
	base := sweepBase()
	base.Replications.Workers = workers
	return &Sweep{
		Base:    base,
		Axes:    []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.05}}},
		Outputs: []string{"goodput", "best_rate"},
	}
}

// TestRunSweepObservedBitIdentical: attaching stats + progress changes
// no output byte relative to the plain path, for any worker count —
// the observability layer is pure measurement.
func TestRunSweepObservedBitIdentical(t *testing.T) {
	render := func(res *SweepResult) string {
		var csv, js bytes.Buffer
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String() + js.String()
	}
	plain, err := RunSweepObserved(observeSweep(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := render(plain)
	for _, workers := range []int{1, 3} {
		ob := &Observe{
			Stats:    &netsim.EngineStats{},
			Progress: func(SweepProgress) {},
			Interval: time.Millisecond,
		}
		res, err := RunSweepObserved(observeSweep(workers), ob)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res); got != want {
			t.Fatalf("observed sweep (workers=%d) differs from plain run:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestRunSweepObservedProgressAndStats: the final snapshot accounts
// for every cell and point, and the shared stats sink saw exactly the
// sweep's runs and events.
func TestRunSweepObservedProgressAndStats(t *testing.T) {
	var mu sync.Mutex
	var snaps []SweepProgress
	st := &netsim.EngineStats{}
	ob := &Observe{
		Stats: st,
		Progress: func(p SweepProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
		Interval: time.Millisecond,
	}
	if _, err := RunSweepObserved(observeSweep(2), ob); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	final := snaps[len(snaps)-1]
	if !final.Done {
		t.Fatalf("last snapshot not Done: %+v", final)
	}
	// 2 points x 3 replications.
	if final.TotalCells != 6 || final.DoneCells != 6 {
		t.Fatalf("cells = %d/%d, want 6/6", final.DoneCells, final.TotalCells)
	}
	if final.TotalPoints != 2 || final.DonePoints != 2 {
		t.Fatalf("points = %d/%d, want 2/2", final.DonePoints, final.TotalPoints)
	}
	if final.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", final.ETA)
	}
	if st.Runs.Load() != 6 {
		t.Fatalf("stats runs = %d, want 6", st.Runs.Load())
	}
	if final.Events != st.Events.Load() || final.Events <= 0 {
		t.Fatalf("progress events = %d, stats events = %d", final.Events, st.Events.Load())
	}
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Fatal("Done snapshot delivered before the final one")
		}
		if p.DoneCells > p.TotalCells || p.DonePoints > p.TotalPoints {
			t.Fatalf("overcounted snapshot %+v", p)
		}
	}
}

// TestRunObservedSingleScenario: a plain scenario run reports as a
// one-point sweep and feeds the same stats sink.
func TestRunObservedSingleScenario(t *testing.T) {
	spec := sweepBase()
	var mu sync.Mutex
	var final SweepProgress
	st := &netsim.EngineStats{}
	ob := &Observe{
		Stats: st,
		Progress: func(p SweepProgress) {
			mu.Lock()
			if p.Done {
				final = p
			}
			mu.Unlock()
		},
	}
	res, err := RunObserved(&spec, ob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Simulated {
		t.Fatal("scenario did not simulate")
	}
	if !final.Done || final.DoneCells != 3 || final.TotalCells != 3 || final.TotalPoints != 1 {
		t.Fatalf("final snapshot = %+v", final)
	}
	if st.Runs.Load() != 3 {
		t.Fatalf("stats runs = %d, want 3", st.Runs.Load())
	}
}

func TestSweepProgressString(t *testing.T) {
	p := SweepProgress{
		DoneCells: 4, TotalCells: 20, DonePoints: 1, TotalPoints: 5,
		Events: 1_250_000, EventsPerSec: 500_000,
		Elapsed: 2.5, ETA: 10, Workers: 4, Utilization: 0.87,
	}
	s := p.String()
	for _, want := range []string{"cells 4/20", "points 1/5", "1.25M events", "500.0k ev/s", "4 workers 87% busy", "ETA 10s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("progress line missing %q: %s", want, s)
		}
	}
	p.Done, p.ETA = true, 0
	p.Elapsed = 125
	if s := p.String(); !strings.Contains(s, "done in 2m05s") {
		t.Fatalf("done line = %s", s)
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[int64]string{999: "999", 1500: "1.5k", 2_500_000: "2.50M", 3_000_000_000: "3.00G"}
	for n, want := range cases {
		if got := fmtCount(n); got != want {
			t.Fatalf("fmtCount(%d) = %q, want %q", n, got, want)
		}
	}
	secs := map[float64]string{5: "5s", 65: "1m05s", 3700: "1h01m", -2: "0s"}
	for s, want := range secs {
		if got := fmtSeconds(s); got != want {
			t.Fatalf("fmtSeconds(%v) = %q, want %q", s, got, want)
		}
	}
}
