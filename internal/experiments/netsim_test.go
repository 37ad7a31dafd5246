package experiments

import (
	"strings"
	"testing"

	"mlfair/internal/scenario"
)

func tinyNetsimOptions() NetsimOptions {
	return NetsimOptions{Receivers: 8, Packets: 6000, Trials: 2, Workers: 2, Seed: 31}
}

func TestNetsimStarDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimStar(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim star", "Coordinated", "Deterministic", "shared redundancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimAuditDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimAudit(w, tinyNetsimOptions()) })
	for _, want := range []string{
		"netsim audit", "max-min fair rate", "fairness gap",
		"max-min benchmark properties", "simulated-rate properties",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Theorem 1 sanity: the analytic benchmark of an all-multi-rate
	// network must satisfy all four properties.
	if !strings.Contains(out, "max-min benchmark properties: fully-utilized-receiver: holds") {
		t.Errorf("benchmark audit should hold all properties:\n%s", out)
	}
}

func TestNetsimTreeDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimTree(w, tinyNetsimOptions()) })
	for _, want := range []string{"per-link redundancy vs tree depth", "depth 1 = root link"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimMeshDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimMesh(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim mesh", "S1", "S3", "backbone redundancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimChurnDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimChurn(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim churn", "stable", "churning"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimBackgroundDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimBackground(w, tinyNetsimOptions()) })
	for _, want := range []string{"background traffic", "droptail bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultNetsimOptions(t *testing.T) {
	o := DefaultNetsimOptions()
	if o.Receivers < 1 || o.Packets < 1 || o.Trials < 1 {
		t.Fatalf("bad defaults %+v", o)
	}
}

func TestNetsimScaleFreeDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimScaleFree(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim scale-free", "receiver goodput", "max link redundancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimFatTreeDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimFatTree(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim fat-tree", "receiver goodput", "session root redundancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimFigure8Driver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimFigure8(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim figure 8", "ind. loss", "Coordinated", "Deterministic"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNetsimLeaveLatencyDriver(t *testing.T) {
	out := capture(t, func(w *strings.Builder) error { return NetsimLeaveLatency(w, tinyNetsimOptions()) })
	for _, want := range []string{"netsim leave latency", "latency", "Uncoordinated"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestSweepBuildersRejectInvalidCounts: the sweep builders return
// errors — never panic — on degenerate point or replication counts.
func TestSweepBuildersRejectInvalidCounts(t *testing.T) {
	bad := []NetsimOptions{
		{Receivers: 0, Packets: 1000, Trials: 2},
		{Receivers: 5, Packets: 0, Trials: 2},
		{Receivers: 5, Packets: 1000, Trials: 0},
		{Receivers: 5, Packets: 1000, Trials: 2, Workers: -1},
	}
	for _, o := range bad {
		if _, err := StarProtocolSweep(o); err == nil {
			t.Errorf("StarProtocolSweep accepted %+v", o)
		}
		if _, err := Figure8Sweep(o, 0.0001); err == nil {
			t.Errorf("Figure8Sweep accepted %+v", o)
		}
		if _, err := BackgroundSweep(o); err == nil {
			t.Errorf("BackgroundSweep accepted %+v", o)
		}
		if _, err := LeaveLatencySweep(o); err == nil {
			t.Errorf("LeaveLatencySweep accepted %+v", o)
		}
		if _, err := ChurnSweep(o); err == nil {
			t.Errorf("ChurnSweep accepted %+v", o)
		}
	}
	if _, err := Figure8Sweep(DefaultNetsimOptions(), 1.5); err == nil {
		t.Error("Figure8Sweep accepted shared loss 1.5")
	}
	if _, err := Figure8Sweep(DefaultNetsimOptions(), -0.1); err == nil {
		t.Error("Figure8Sweep accepted negative shared loss")
	}
}

// TestWriteSweepSeriesNeedsTwoAxes: the series renderer errors — not
// panics — on a one-axis sweep.
func TestWriteSweepSeriesNeedsTwoAxes(t *testing.T) {
	sw, err := BackgroundSweep(tinyNetsimOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.RunSweepObserved(sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeSweepSeries(&b, res, "t", "x", "best_rate"); err == nil {
		t.Fatal("one-axis sweep accepted by series renderer")
	}
}
