// Package cliutil deduplicates the flag plumbing the simulator
// binaries used to copy from each other: the declarative
// -spec/-sweep/-format trio (every binary runs the same scenario and
// sweep files the same way), the distributed sweep-execution flags
// (-workers, -shard, -checkpoint, -resume, -shardfile, -merge), and
// the replication sizing flags (-receivers, -packets, -trials, -seed,
// -quick) with per-binary defaults.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mlfair/internal/scenario"
	"mlfair/internal/sweepexec"
)

// Declarative is the -spec/-sweep/-format flag trio plus the
// distributed sweep-execution flags.
type Declarative struct {
	Spec   string
	Sweep  string
	Format string
	// Workers is the parallel worker budget shared by the scenario
	// drivers, -spec runs and the sweep scheduler. 0 keeps a -spec or
	// -sweep file's own replications.workers (and from there
	// GOMAXPROCS); a negative budget is rejected.
	Workers int
	// Shard ("i/n") restricts a -sweep run to points with id mod n == i,
	// so n independent processes cover the grid; each writes its slice
	// with -shardfile and one -merge invocation joins them.
	Shard string
	// Checkpoint names a directory for durable sweep progress; Resume
	// restores it and simulates only the missing cells.
	Checkpoint string
	Resume     bool
	// ShardFile writes the run's result slice as a binary shard file
	// (instead of a CSV/JSON table on stdout).
	ShardFile string
	// Merge joins comma-separated shard files from a completed
	// distributed run into the full result table.
	Merge string
}

// RegisterDeclarative registers -spec, -sweep, -format, -workers and
// the distributed sweep flags on fs.
func RegisterDeclarative(fs *flag.FlagSet) *Declarative {
	d := &Declarative{}
	fs.StringVar(&d.Spec, "spec", "", "run a declarative scenario.Spec JSON file (docs/SCENARIOS.md)")
	fs.StringVar(&d.Sweep, "sweep", "", "run a declarative scenario.Sweep JSON file and emit its result table (docs/SWEEPS.md)")
	fs.StringVar(&d.Format, "format", "csv", "-sweep output format: csv | json")
	fs.IntVar(&d.Workers, "workers", 0, "parallel workers (0 = a -spec/-sweep file's own budget, else GOMAXPROCS)")
	fs.StringVar(&d.Shard, "shard", "", "with -sweep: run only shard i of n, as \"i/n\" (see docs/SWEEPS.md, Distributed execution)")
	fs.StringVar(&d.Checkpoint, "checkpoint", "", "with -sweep: directory for durable progress (crash-safe spill shards + checkpoint file)")
	fs.BoolVar(&d.Resume, "resume", false, "with -sweep -checkpoint: restore the directory's progress and run only the missing cells")
	fs.StringVar(&d.ShardFile, "shardfile", "", "with -sweep: write the run's result slice as a binary shard file instead of a table")
	fs.StringVar(&d.Merge, "merge", "", "with -sweep: merge comma-separated shard files into the full result table instead of simulating")
	return d
}

// parseShard parses "i/n".
func parseShard(s string) (index, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		var ei, en error
		index, ei = strconv.Atoi(i)
		count, en = strconv.Atoi(n)
		ok = ei == nil && en == nil && count >= 1 && index >= 0 && index < count
	}
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/n\" with 0 <= i < n", s)
	}
	return index, count, nil
}

// Run executes the selected declarative input, if any, and reports
// whether one ran (the caller returns afterwards instead of running
// its own drivers). Errors are the caller's to report.
func (d *Declarative) Run(w io.Writer) (bool, error) {
	return d.RunObserved(w, nil)
}

// RunObserved is Run with an optional Observability attachment: the
// spec path lands in the run manifest and the scenario layer gets the
// stats sink and progress reporter. A nil o is exactly Run.
func (d *Declarative) RunObserved(w io.Writer, o *Observability) (bool, error) {
	if d.Spec != "" && d.Sweep != "" {
		return true, fmt.Errorf("-spec and -sweep are mutually exclusive")
	}
	if d.Sweep == "" && (d.Shard != "" || d.Checkpoint != "" || d.Resume || d.ShardFile != "" || d.Merge != "") {
		return true, fmt.Errorf("-shard/-checkpoint/-resume/-shardfile/-merge require -sweep")
	}
	if d.Workers < 0 {
		return true, fmt.Errorf("-workers %d: want >= 0", d.Workers)
	}
	var ob *scenario.Observe
	note := func(path string) {
		if o != nil {
			o.NoteSpec(path)
			ob = o.Observe()
		}
	}
	switch {
	case d.Spec != "":
		if d.Format != "" && d.Format != "csv" {
			return true, fmt.Errorf("-format applies to -sweep only (a -spec run emits its text report)")
		}
		note(d.Spec)
		spec, err := d.LoadSpec()
		if err != nil {
			return true, err
		}
		res, err := scenario.RunObserved(spec, ob)
		if err != nil {
			return true, err
		}
		return true, res.WriteReport(w)
	case d.Sweep != "":
		note(d.Sweep)
		return true, d.runSweep(w, o, ob)
	}
	return false, nil
}

// LoadSpec loads the -spec file. A nonzero -workers replaces its
// replications.workers, and the spec is validated again.
func (d *Declarative) LoadSpec() (*scenario.Spec, error) {
	spec, err := scenario.LoadFile(d.Spec)
	if err != nil || d.Workers == 0 {
		return spec, err
	}
	spec.Replications.Workers = d.Workers
	return spec, spec.Validate()
}

// runSweep runs a -sweep: it merges shard files, or runs this process's
// slice of the sweep (all of it unless -shard), checkpointed when
// asked, on the one point scheduler behind sweepexec.Run. The sweep
// file is loaded through the scenario loader, so malformed JSON
// reports with file:line:col.
func (d *Declarative) runSweep(w io.Writer, o *Observability, ob *scenario.Observe) error {
	if d.Format != "" && d.Format != "csv" && d.Format != "json" {
		return fmt.Errorf("unknown sweep output format %q (want csv or json)", d.Format)
	}
	sw, err := scenario.LoadSweepFile(d.Sweep)
	if err != nil {
		return err
	}
	if d.Merge != "" {
		if d.Shard != "" || d.Checkpoint != "" || d.Resume || d.ShardFile != "" {
			return fmt.Errorf("-merge runs no simulation; it only takes -sweep and -format")
		}
		res, err := sweepexec.MergeFiles(sw, strings.Split(d.Merge, ","))
		if err != nil {
			return err
		}
		return d.writeResult(w, res)
	}
	opts := sweepexec.Options{
		Workers:       d.Workers,
		CheckpointDir: d.Checkpoint,
		Resume:        d.Resume,
		Observe:       ob,
	}
	if d.Shard != "" {
		if opts.ShardIndex, opts.ShardCount, err = parseShard(d.Shard); err != nil {
			return err
		}
		if o != nil {
			o.Manifest().SetShard(d.Shard)
		}
	}
	res, err := sweepexec.Run(sw, opts)
	if err != nil {
		return err
	}
	if d.ShardFile != "" {
		return res.WriteShardFile(d.ShardFile)
	}
	if opts.ShardCount > 1 {
		return fmt.Errorf("-shard %s ran %d points but has nowhere to put them: a shard's slice is not the full table, write it with -shardfile and join the shards with -merge", d.Shard, len(res.Sim.Points()))
	}
	return d.writeResult(w, res)
}

func (d *Declarative) writeResult(w io.Writer, res *sweepexec.Result) error {
	if d.Format == "json" {
		return res.WriteJSON(w)
	}
	return res.WriteCSV(w)
}

// SimDefaults parameterizes RegisterSim per binary: sizing defaults,
// and whether the binary exposes -quick at all.
type SimDefaults struct {
	Receivers int
	Packets   int
	Trials    int
	Seed      uint64
	Quick     bool
}

// SimFlags carries the shared simulator flags after parsing. Workers
// is promoted from the embedded Declarative — one -workers flag serves
// the scenario drivers and the sweep schedulers alike.
type SimFlags struct {
	*Declarative
	Receivers int
	Packets   int
	Trials    int
	Seed      uint64
	Quick     bool
}

// RegisterSim registers the declarative trio plus the shared
// replication sizing flags on fs.
func RegisterSim(fs *flag.FlagSet, def SimDefaults) *SimFlags {
	f := &SimFlags{Declarative: RegisterDeclarative(fs)}
	fs.IntVar(&f.Receivers, "receivers", def.Receivers, "receivers per session")
	fs.IntVar(&f.Packets, "packets", def.Packets, "sender packet budget per trial")
	fs.IntVar(&f.Trials, "trials", def.Trials, "independent replications (mean ± 95% CI reported)")
	fs.Uint64Var(&f.Seed, "seed", def.Seed, "base RNG seed (replication seeds derived deterministically)")
	if def.Quick {
		fs.BoolVar(&f.Quick, "quick", false, "reduced sizes for smoke runs")
	}
	return f
}

// ApplyQuick shrinks the sizing to the given smoke-run values when
// -quick was set.
func (f *SimFlags) ApplyQuick(receivers, packets, trials int) {
	if f.Quick {
		f.Receivers, f.Packets, f.Trials = receivers, packets, trials
	}
}
