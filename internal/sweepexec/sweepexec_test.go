package sweepexec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlfair/internal/scenario"
)

// testSweep is a small benchmark-enabled sweep: 4 points x 3
// replications = 12 simulated cells plus 4 benchmark rows, enough
// structure to exercise every crash window cheaply.
func testSweep() *scenario.Sweep {
	return &scenario.Sweep{
		Base: scenario.Spec{
			Topology:     scenario.TopologySpec{Kind: "star", Receivers: 3},
			Sessions:     []scenario.SessionSpec{{Protocol: "deterministic", Layers: 4}},
			DefaultLink:  &scenario.LinkSpec{Kind: "bernoulli", Loss: 0.02},
			Packets:      800,
			Seed:         77,
			Replications: scenario.ReplicationSpec{N: 3, Workers: 2},
		},
		Axes: []scenario.Axis{
			{Field: "defaultLink.loss", Values: []any{0.01, 0.05}},
			{Field: "sessions.layers", Values: []any{2.0, 4.0}},
		},
		Outputs:   []string{"goodput", "best_rate"},
		Benchmark: true,
	}
}

// render gives the result's full deterministic fingerprint: CSV + JSON.
func render(t *testing.T, res *Result) string {
	t.Helper()
	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return csv.String() + js.String()
}

// uninterrupted renders one unsharded run of the sweep with no
// checkpoint and no crash: the reference every checkpointed, resumed
// and sharded execution must reproduce bitwise.
func uninterrupted(t *testing.T, sw *scenario.Sweep) string {
	t.Helper()
	res, err := Run(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return render(t, res)
}

// TestCheckpointedRunMatches: checkpointing on (both flush
// granularities) changes nothing about the output.
func TestCheckpointedRunMatches(t *testing.T) {
	want := uninterrupted(t, testSweep())
	for _, flush := range []int{0, 1, 3} {
		dir := t.TempDir()
		res, err := Run(testSweep(), Options{CheckpointDir: dir, FlushCells: flush})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(t, res); got != want {
			t.Fatalf("flush=%d: checkpointed output differs from the uninterrupted run", flush)
		}
		if _, err := LoadCheckpoint(dir); err != nil {
			t.Fatalf("flush=%d: no readable checkpoint after run: %v", flush, err)
		}
	}
}

// errCrash is the injected failure the crash tests kill the scheduler
// with.
var errCrash = errors.New("injected crash")

// crashAfter returns an AfterCell hook that lets k cells complete and
// then kills the run.
func crashAfter(k int) func(int) error {
	return func(done int) error {
		if done > k {
			return errCrash
		}
		return nil
	}
}

// TestCrashInjectionResume is the headline property test: for every
// crash point K in {0 .. all cells} and every commit granularity, kill
// the scheduler after K completed cells, resume from the checkpoint
// directory, and require CSV + JSON output byte-identical to an
// uninterrupted run. Replication rows are pure functions and the store
// is merge-order invariant, so no failure point may leak into the
// output.
func TestCrashInjectionResume(t *testing.T) {
	sw := testSweep()
	totalCells := 12 // 4 points x 3 replications
	want := uninterrupted(t, sw)
	for _, flush := range []int{0, 1} {
		for k := 0; k <= totalCells; k++ {
			t.Run(fmt.Sprintf("flush=%d/K=%d", flush, k), func(t *testing.T) {
				dir := t.TempDir()
				_, err := Run(testSweep(), Options{
					CheckpointDir: dir,
					FlushCells:    flush,
					AfterCell:     crashAfter(k),
				})
				if k < totalCells {
					if !errors.Is(err, errCrash) {
						t.Fatalf("crashed run returned %v, want injected crash", err)
					}
				} else if err != nil {
					// K = all cells: the hook never fires mid-run; the
					// run completes.
					t.Fatal(err)
				}
				res, err := Run(testSweep(), Options{CheckpointDir: dir, Resume: true, FlushCells: flush})
				if err != nil {
					t.Fatalf("resume after K=%d: %v", k, err)
				}
				if got := render(t, res); got != want {
					t.Fatalf("resume after K=%d not byte-identical:\n--- got ---\n%s\n--- want ---\n%s", k, got, want)
				}
			})
		}
	}
}

// TestCrashInjectionResumeRandomized drives the same property with
// randomized crash points, parallel workers, and repeated
// crash-resume-crash chains — the shape the -race run exercises.
func TestCrashInjectionResumeRandomized(t *testing.T) {
	sw := testSweep()
	want := uninterrupted(t, sw)
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 6; trial++ {
		dir := t.TempDir()
		resume := false
		// A chain of up to three crashes before the final clean resume.
		for c := 0; c < 3; c++ {
			k := rng.Intn(13)
			_, err := Run(testSweep(), Options{
				Workers:       4,
				CheckpointDir: dir,
				Resume:        resume,
				FlushCells:    rng.Intn(3),
				AfterCell:     crashAfter(k),
			})
			resume = true
			if err != nil && !errors.Is(err, errCrash) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
		}
		res, err := Run(testSweep(), Options{Workers: 4, CheckpointDir: dir, Resume: true})
		if err != nil {
			t.Fatalf("trial %d: final resume: %v", trial, err)
		}
		if got := render(t, res); got != want {
			t.Fatalf("trial %d: resumed output not byte-identical", trial)
		}
	}
}

// TestShardedMergeMatchesSingle: three independent shard runs merge to
// the single-process run, byte for byte — the CI smoke's in-process
// twin.
func TestShardedMergeMatchesSingle(t *testing.T) {
	sw := testSweep()
	want := uninterrupted(t, sw)
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		res, err := Run(testSweep(), Options{ShardIndex: i, ShardCount: 3})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.shard", i))
		if err := res.WriteShardFile(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := MergeFiles(sw, paths)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, merged); got != want {
		t.Fatalf("3-shard merge differs from single process:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Dropping a shard must fail completeness, not silently emit holes.
	if _, err := MergeFiles(sw, paths[:2]); err == nil {
		t.Fatal("merge of 2 of 3 shards accepted")
	}
	// Merging a shard twice must hit the store's duplicate-cell guard.
	if _, err := MergeFiles(sw, []string{paths[0], paths[0], paths[1], paths[2]}); err == nil {
		t.Fatal("double merge of one shard accepted")
	}
}

// TestResumeValidation: a checkpoint can only resume the exact sweep,
// shard, and schema it was taken under.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(testSweep(), Options{CheckpointDir: dir, FlushCells: 1, AfterCell: crashAfter(4)}); !errors.Is(err, errCrash) {
		t.Fatalf("seed crash run: %v", err)
	}

	edited := testSweep()
	edited.Base.Packets++
	if _, err := Run(edited, Options{CheckpointDir: dir, Resume: true}); err == nil {
		t.Fatal("resume accepted an edited sweep definition")
	}
	if _, err := Run(testSweep(), Options{CheckpointDir: dir, Resume: true, ShardIndex: 0, ShardCount: 2}); err == nil {
		t.Fatal("resume accepted a different shard split")
	}
	if _, err := Run(testSweep(), Options{CheckpointDir: dir}); err == nil {
		t.Fatal("fresh run over an existing checkpoint accepted")
	}
	if _, err := Run(testSweep(), Options{Resume: true}); err == nil {
		t.Fatal("resume without a checkpoint directory accepted")
	}
	if _, err := Run(testSweep(), Options{ShardIndex: 3, ShardCount: 3}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := Run(testSweep(), Options{Workers: -1}); err == nil {
		t.Fatal("negative worker budget accepted")
	}

	// Resuming an empty directory is a fresh start, not an error: the
	// previous attempt may have died before its first commit.
	res, err := Run(testSweep(), Options{CheckpointDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedCells != 0 {
		t.Fatalf("fresh resume restored %d cells", res.ResumedCells)
	}
}

// TestOrphanSpillIgnored: a crash between the spill rename and the
// checkpoint rename leaves a spill file beyond the checkpoint's count;
// a resume must ignore it and still converge to the uninterrupted
// output.
func TestOrphanSpillIgnored(t *testing.T) {
	sw := testSweep()
	want := uninterrupted(t, sw)
	dir := t.TempDir()
	if _, err := Run(testSweep(), Options{CheckpointDir: dir, FlushCells: 2, AfterCell: crashAfter(6)}); !errors.Is(err, errCrash) {
		t.Fatal("seed crash run did not crash")
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the orphan: a stray spill file one past the committed count.
	orphan := spillPath(dir, ck.Spills, "sim")
	if err := os.WriteFile(orphan, []byte("not a shard at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(testSweep(), Options{CheckpointDir: dir, Resume: true, FlushCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, res); got != want {
		t.Fatal("resume with orphan spill not byte-identical")
	}
}

// TestStreamingLargeSweep: a grid beyond the old 4096-point cap
// expands lazily, completes, and its cells match direct scenario.Run
// of the same specs — the streaming scheduler changes scheduling,
// never numbers.
func TestStreamingLargeSweep(t *testing.T) {
	sw := &scenario.Sweep{
		Base: scenario.Spec{
			Topology:     scenario.TopologySpec{Kind: "star", Receivers: 2},
			Sessions:     []scenario.SessionSpec{{Protocol: "deterministic", Layers: 2}},
			DefaultLink:  &scenario.LinkSpec{Kind: "bernoulli", Loss: 0.02},
			Packets:      60,
			Seed:         1,
			Replications: scenario.ReplicationSpec{N: 1},
		},
		Axes:    []scenario.Axis{{Field: "seed", Range: &scenario.RangeSpec{From: 1, To: 4200, Step: 1}}},
		Outputs: []string{"goodput"},
	}
	res, err := Run(sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sim.Points()); got != 4200 {
		t.Fatalf("expanded %d points, want 4200", got)
	}
	for _, id := range []int{0, 1777, 4199} {
		spec := sw.Base
		spec.Seed = uint64(id + 1)
		direct, err := scenario.Run(&spec)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := res.Sim.Cell(id, "goodput")
		if err != nil {
			t.Fatal(err)
		}
		if cell.Mean != direct.Goodput.Mean {
			t.Fatalf("point %d goodput %v, direct run %v", id, cell.Mean, direct.Goodput.Mean)
		}
	}
}
