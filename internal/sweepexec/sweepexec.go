// Package sweepexec runs parameter sweeps as distributed, resumable
// jobs on scenario's one point scheduler (SweepResult.RunPoints, which
// walks the grid lazily, one point at a time). It adds:
//
//   - sharding: `-shard i/n` partitions points by id mod n, so n
//     independent processes each run a disjoint slice whose final
//     shard files merge — bit-identically — into the single-process
//     result, and
//   - checkpoint/resume: completed (point, replication) cells spill to
//     binary shard files under a checkpoint directory, and a resumed
//     run restores them and simulates only what is missing.
//
// Every replication row is a pure function of (sweep point,
// replication index) and the result store is merge-order invariant, so
// any execution shape — one process, n shards, or a run crashed and
// resumed at an arbitrary cell boundary — produces byte-identical CSV
// and JSON output.
package sweepexec

import (
	"fmt"
	"os"
	"path/filepath"

	"mlfair/internal/scenario"
)

// Options shape one sweep execution.
type Options struct {
	// Workers is the total worker budget, split between point-level and
	// replication-level parallelism; 0 falls back to the sweep's own
	// replications.workers (and from there to GOMAXPROCS), and a
	// negative budget is an error.
	Workers int
	// ShardIndex / ShardCount select this process's point partition
	// (point id mod ShardCount == ShardIndex). A zero ShardCount means
	// unsharded (one process runs everything).
	ShardIndex int
	ShardCount int
	// CheckpointDir, when set, enables durable progress: completed
	// cells spill to shard files there under a crash-safe commit
	// protocol. Empty disables checkpointing.
	CheckpointDir string
	// Resume restores CheckpointDir's previous progress (validating
	// schema, sweep definition, shard and point-count fingerprints) and
	// simulates only the missing cells.
	Resume bool
	// FlushCells is the commit granularity when checkpointing: every N
	// observed cells (plus always at each point's end); 0 commits per
	// point only.
	FlushCells int
	// AfterCell, when non-nil, is called under the scheduler lock after
	// each observed cell (and after any commit that cell triggered)
	// with the number of cells observed so far in this run. An error
	// return aborts the run without a final commit — the crash-injection
	// hook the resume tests drive.
	AfterCell func(done int) error
	// Observe is the optional observability attachment (engine stats
	// sink and progress snapshots, including checkpoint counters).
	Observe *scenario.Observe
}

// Result is one shard's completed sweep slice: the scenario result
// restricted to this shard's points (Bench is nil unless the sweep's
// Benchmark stage is on).
type Result struct {
	*scenario.SweepResult
	// ResumedCells counts cells restored from the checkpoint rather
	// than simulated.
	ResumedCells int
}

// Run executes sw's points belonging to this shard, honoring
// checkpoint/resume, and returns the shard's result slice.
func Run(sw *scenario.Sweep, opts Options) (*Result, error) {
	shardIndex, shardCount := opts.ShardIndex, opts.ShardCount
	if shardCount == 0 {
		shardCount = 1
	}
	if shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
		return nil, fmt.Errorf("sweepexec: invalid shard %d/%d", shardIndex, shardCount)
	}
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, fmt.Errorf("sweepexec: Resume requires a checkpoint directory")
	}

	res, err := scenario.NewSweepResult(sw)
	if err != nil {
		return nil, err
	}
	e, err := sw.Expander()
	if err != nil {
		return nil, err
	}
	swHash, err := SweepHash(sw)
	if err != nil {
		return nil, err
	}

	// Durable state: restore a previous run's cells, or start fresh.
	ck := Checkpoint{
		SchemaHash:  res.Sim.SchemaHash(),
		SweepHash:   swHash,
		ShardIndex:  shardIndex,
		ShardCount:  shardCount,
		TotalPoints: e.Len(),
	}
	resumed := 0
	sk := &sink{flush: opts.FlushCells, after: opts.AfterCell}
	ob := opts.Observe
	if opts.CheckpointDir != "" {
		if opts.Resume {
			loaded, err := LoadCheckpoint(opts.CheckpointDir)
			if os.IsNotExist(err) {
				// The previous run died before its first commit; a
				// resume of nothing is a fresh start.
				loaded = nil
			} else if err != nil {
				return nil, err
			}
			if loaded != nil {
				if err := validateResume(loaded, &ck); err != nil {
					return nil, err
				}
				if err := restore(opts.CheckpointDir, loaded, res.Sim, res.Bench); err != nil {
					return nil, err
				}
				ck = *loaded
				resumed = len(ck.Cells)
			}
		} else if _, err := os.Stat(filepath.Join(opts.CheckpointDir, checkpointFile)); err == nil {
			return nil, fmt.Errorf("sweepexec: %s already holds a checkpoint (resume it, or clear the directory)", opts.CheckpointDir)
		}
		if sk.ck, err = newCheckpointer(opts.CheckpointDir, ck, sw); err != nil {
			return nil, err
		}
		ob = sk.ck.progress(ob)
	}
	if err := res.RunPoints(shardIndex, shardCount, opts.Workers, ob, sk); err != nil {
		return nil, err
	}
	return &Result{SweepResult: res, ResumedCells: resumed}, nil
}

// validateResume checks a loaded checkpoint against the fingerprints
// of the run about to resume it.
func validateResume(loaded, want *Checkpoint) error {
	switch {
	case loaded.SchemaHash != want.SchemaHash:
		return fmt.Errorf("sweepexec: checkpoint schema hash %016x does not match the sweep's %016x", loaded.SchemaHash, want.SchemaHash)
	case loaded.SweepHash != want.SweepHash:
		return fmt.Errorf("sweepexec: checkpoint was taken under a different sweep definition (hash %016x vs %016x)", loaded.SweepHash, want.SweepHash)
	case loaded.ShardIndex != want.ShardIndex || loaded.ShardCount != want.ShardCount:
		return fmt.Errorf("sweepexec: checkpoint covers shard %d/%d, not %d/%d", loaded.ShardIndex, loaded.ShardCount, want.ShardIndex, want.ShardCount)
	case loaded.TotalPoints != want.TotalPoints:
		return fmt.Errorf("sweepexec: checkpoint covers %d points, sweep expands to %d", loaded.TotalPoints, want.TotalPoints)
	}
	return nil
}

// sink is Run's scenario.SweepSink: it stages each new cell for the
// checkpoint, commits every flush cells and at each point's end, and
// runs the AfterCell hook, whose error stops the run with no further
// commit — a kill, as the crash-injection tests drive it. The
// scheduler serializes its calls.
type sink struct {
	ck    *checkpointer // nil without a checkpoint directory
	flush int
	after func(done int) error
	done  int
}

func (s *sink) Cell(p *scenario.Point, rep int, row []float64) error {
	if s.ck != nil {
		if err := s.ck.observe(p.ID, p.Coords, p.Spec.Replications.N, rep, row); err != nil {
			return err
		}
		if s.flush > 0 && s.ck.pending() >= s.flush {
			if err := s.ck.commit(); err != nil {
				return err
			}
		}
	}
	s.done++
	if s.after != nil {
		return s.after(s.done)
	}
	return nil
}

func (s *sink) PointEnd(p *scenario.Point, bench []float64) error {
	if s.ck == nil {
		return nil
	}
	if bench != nil {
		if err := s.ck.benchRow(p.ID, p.Coords, bench); err != nil {
			return err
		}
	}
	return s.ck.commit()
}
