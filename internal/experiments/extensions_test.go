package experiments

import (
	"strings"
	"testing"
)

func tinyExtOptions() ExtensionOptions {
	return ExtensionOptions{Receivers: 8, Packets: 4000, Trials: 2, Seed: 7}
}

func TestWeightedFairnessDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return WeightedFairness(b) })
	for _, want := range []string{"weighted", "rate/weight", "r4,2", "0.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// The four receivers the bottleneck stops share the normalized level
	// 0.3 (12 / 40 total weight). r4,2 rides r4,1's layers across the
	// bottleneck up to r4,1's rate 3, normalized 0.6.
	level, far := 0, ""
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && strings.HasPrefix(f[0], "r") && f[3] == "0.3" {
			level++
		}
		if len(f) == 4 && f[0] == "r4,2" {
			far = strings.Join(f[1:], " ")
		}
	}
	if level != 4 || far != "5 3 0.6" {
		t.Errorf("want four receivers at normalized 0.3 and r4,2 at weight 5, rate 3, normalized 0.6; got %d and %q:\n%s", level, far, out)
	}
}

func TestLeaveLatencyDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return LeaveLatency(b, tinyExtOptions()) })
	for _, want := range []string{"leave latency", "Coordinated", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestPriorityDropDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return PriorityDrop(b, tinyExtOptions()) })
	for _, want := range []string{"priority dropping", "uniform", "change", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultExtensionOptions(t *testing.T) {
	o := DefaultExtensionOptions()
	if o.Receivers < 10 || o.Trials < 2 || o.Packets < 10000 {
		t.Fatalf("implausible defaults %+v", o)
	}
}

func TestConvergenceDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return Convergence(b, tinyExtOptions()) })
	for _, want := range []string{"Convergence", "fair rate", "r1,1", "r2,1", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTreeRedundancyDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return TreeRedundancy(b, tinyExtOptions()) })
	for _, want := range []string{"tree depth", "depth", "Coordinated", "leaf links"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestChurnDriver(t *testing.T) {
	out := capture(t, func(b *strings.Builder) error { return Churn(b, 7) })
	for _, want := range []string{"session churn", "arrival", "departure", "receiver-removal", "events with losers"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
