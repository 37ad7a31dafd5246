package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlfair/internal/protocol"
)

func TestParseKinds(t *testing.T) {
	all, err := parseKinds("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("all -> %v, %v", all, err)
	}
	one, err := parseKinds("coordinated")
	if err != nil || len(one) != 1 || one[0] != protocol.Coordinated {
		t.Fatalf("coordinated -> %v, %v", one, err)
	}
	if _, err := parseKinds("bogus"); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestParseDrop(t *testing.T) {
	if d, err := parseDrop("priority"); err != nil || d != "priority" {
		t.Fatalf("parseDrop priority -> %v %v", d, err)
	}
	if d, err := parseDrop(""); err != nil || d != "uniform" {
		t.Fatalf("parseDrop empty -> %v %v", d, err)
	}
	if _, err := parseDrop("zig"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestRunTable(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{proto: "uncoordinated", receivers: 10, layers: 6,
		shared: 0.001, ind: 0.03, packets: 5000, trials: 3, seed: 1, drop: "uniform"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Shared-link redundancy", "Uncoordinated", "mean level"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadProtocol(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{proto: "nope", receivers: 10, layers: 6,
		shared: 0.001, ind: 0.03, packets: 5000, trials: 3, seed: 1}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := run(&b, options{proto: "all", receivers: 2, layers: 3,
		shared: 0.001, ind: 0.03, packets: 500, trials: 1, seed: 1, drop: "zigzag"}); err == nil {
		t.Fatal("bad drop policy accepted")
	}
}

// TestRunGolden locks `protosim -protocol all -trials 3 -packets 10000`
// byte for byte at the default star, plain and with priority dropping
// and a leave latency of 2. Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/protosim -run TestRunGolden
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		drop    string
		latency float64
	}{
		{"all.golden", "uniform", 0},
		{"all-priority-latency2.golden", "priority", 2},
	} {
		var b strings.Builder
		if err := run(&b, options{proto: "all", receivers: 100, layers: 8,
			shared: 0.0001, ind: 0.04, packets: 10000, trials: 3, seed: 1999,
			latency: tc.latency, drop: tc.drop}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s updated (%d bytes)", path, b.Len())
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if b.String() != string(want) {
			t.Errorf("output drifted from %s (run with UPDATE_GOLDEN=1 if intentional):\n--- got ---\n%s\n--- want ---\n%s",
				path, b.String(), want)
		}
	}
}
