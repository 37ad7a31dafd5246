package sweepexec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"mlfair/internal/results"
	"mlfair/internal/scenario"
)

// WriteShardFile writes the shard's final result as one shard file:
// the simulated store's section, followed by the benchmark store's
// when the sweep's Benchmark stage ran. The counterpart of MergeFiles.
func (r *Result) WriteShardFile(path string) error {
	var buf bytes.Buffer
	if err := results.WriteShard(&buf, r.Sim); err != nil {
		return err
	}
	if r.Bench != nil {
		if err := results.WriteShard(&buf, r.Bench); err != nil {
			return err
		}
	}
	return writeFileAtomic(path, buf.Bytes())
}

// ReadShardFile reads one shard file: a simulated section, optionally
// followed by a benchmark section, with nothing after.
func ReadShardFile(path string) (sim, bench *results.Store, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if sim, err = results.ReadShard(f); err != nil {
		return nil, nil, fmt.Errorf("sweepexec: %s: %w", path, err)
	}
	bench, err = results.ReadShard(f)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return sim, nil, nil
		}
		return nil, nil, fmt.Errorf("sweepexec: %s: %w", path, err)
	}
	// Nothing may follow the benchmark section.
	var trail [1]byte
	if n, _ := f.Read(trail[:]); n != 0 {
		return nil, nil, fmt.Errorf("sweepexec: %s: trailing bytes after benchmark section", path)
	}
	return sim, bench, nil
}

// MergeFiles merges per-shard result files into the full sweep result
// and verifies completeness: the merged stores must define and fully
// observe every one of the sweep's points (and, when the Benchmark
// stage is on, carry every point's benchmark row). The merged output
// is byte-identical to a single-process run of the same sweep.
func MergeFiles(sw *scenario.Sweep, paths []string) (*Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweepexec: no shard files to merge")
	}
	res, err := scenario.NewSweepResult(sw)
	if err != nil {
		return nil, err
	}
	e, err := sw.Expander()
	if err != nil {
		return nil, err
	}
	sim, bench := res.Sim, res.Bench
	for _, path := range paths {
		s, b, err := ReadShardFile(path)
		if err != nil {
			return nil, err
		}
		if err := sim.Merge(s); err != nil {
			return nil, fmt.Errorf("sweepexec: %s: %w", path, err)
		}
		switch {
		case bench != nil && b == nil:
			return nil, fmt.Errorf("sweepexec: %s has no benchmark section but the sweep's benchmark stage is on", path)
		case bench == nil && b != nil:
			return nil, fmt.Errorf("sweepexec: %s has a benchmark section but the sweep's benchmark stage is off", path)
		case b != nil:
			if err := bench.Merge(b); err != nil {
				return nil, fmt.Errorf("sweepexec: %s: %w", path, err)
			}
		}
	}
	total := e.Len()
	for id := 0; id < total; id++ {
		reps, err := sim.Reps(id)
		if err != nil {
			return nil, fmt.Errorf("sweepexec: merged shards are missing point %d of %d", id, total)
		}
		observed, err := sim.ObservedReps(id)
		if err != nil {
			return nil, err
		}
		if len(observed) != reps {
			return nil, fmt.Errorf("sweepexec: merged shards observe %d of %d replications for point %d", len(observed), reps, id)
		}
		if bench != nil {
			if observed, err := bench.ObservedReps(id); err != nil || len(observed) != 1 {
				return nil, fmt.Errorf("sweepexec: merged shards are missing point %d's benchmark row", id)
			}
		}
	}
	return &Result{SweepResult: res}, nil
}
