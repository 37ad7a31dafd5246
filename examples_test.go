package mlfair

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end, asserting a
// key line of its expected output — so the documented entry points can
// never silently rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples in -short mode")
	}
	cases := map[string]string{
		"./examples/quickstart":      "Theorem 1",
		"./examples/videoconference": "Sender-coordinated joins",
		"./examples/filetransfer":    "shared-link redundancy",
		"./examples/fairnessaudit":   "Corollary 1",
		"./examples/sessionchurn":    "non-obvious directions",
	}
	for dir, want := range cases {
		dir, want := dir, want
		t.Run(strings.TrimPrefix(dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", dir, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Fatalf("%s output missing %q:\n%s", dir, want, out)
			}
		})
	}
}

// TestSessionChurnGolden locks the output of examples/sessionchurn (the
// Figure 3(a) report and its dynamics.Replay timeline) byte for byte.
// Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test . -run TestSessionChurnGolden
func TestSessionChurnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("examples in -short mode")
	}
	out, err := exec.Command("go", "run", "./examples/sessionchurn").Output()
	if err != nil {
		t.Fatalf("sessionchurn failed: %v", err)
	}
	path := filepath.Join("examples", "sessionchurn", "testdata", "output.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(out) != string(want) {
		t.Errorf("sessionchurn output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
	}
}
