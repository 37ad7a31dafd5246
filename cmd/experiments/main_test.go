package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAnalyticFigures(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "1,2,3,4,s3,5,6,markov", true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3(a)", "Figure 3(b)", "Figure 4",
		"Section 3 example", "Figure 5", "Figure 6", "Markov analysis",
		"max-min fair allocation exists: false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunQuickSimulationPanel(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "8a", true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 8", "Coordinated", "Uncoordinated", "Deterministic"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "99", true); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// simFigures lists every simulation-backed figure whose -quick output
// TestSimulationGolden pins: the star panels, the Section 5 leave-latency
// and priority-drop extensions, the closed-loop star and the loss tree.
const simFigures = "8a,8b,ext-latency,ext-priority,ext-converge,ext-tree"

// TestSimulationGolden locks `experiments -fig <simFigures> -quick`
// byte for byte. Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/experiments -run TestSimulationGolden
func TestSimulationGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b, simFigures, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "sim-quick.golden"), b.String())
}

// allocatorFigures lists the figures whose output comes from the max-min
// allocator alone: weighted fairness (maxmin.AllocateWeighted) and
// session churn (dynamics.Replay).
const allocatorFigures = "ext-weighted,ext-churn"

// TestAllocatorGolden locks `experiments -fig <allocatorFigures> -quick`
// byte for byte. Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/experiments -run TestAllocatorGolden
func TestAllocatorGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b, allocatorFigures, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "allocator-quick.golden"), b.String())
}

// checkGolden compares got with the golden file at path, or rewrites
// the file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s updated (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (run with UPDATE_GOLDEN=1 if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
