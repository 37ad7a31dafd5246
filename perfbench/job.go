package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/obs"
	"mlfair/internal/protocol"
	"mlfair/internal/scenario"
	"mlfair/internal/stats"
	"mlfair/internal/sweepexec"
	"mlfair/internal/topology"
)

// The committed inputs the goldens were made from: the seed every
// committed sweep file and the planetary golden use, and the planetary
// golden's packet budget.
const (
	committedSeed             = 777
	committedPlanetaryPackets = 4096
)

// jobSpec is one batch job.
type jobSpec struct {
	Workload string
	Seed     uint64
	// Golden runs the workload's committed job (the committed seed and
	// size), whose output must match the committed golden byte for
	// byte where one exists.
	Golden bool
	// Tiny shrinks every input, for the benchmark's own tests.
	Tiny  bool
	Trace bool
	// SetupOnly stops the job at its first engine call.
	SetupOnly bool
	// Root is the repository checkout; Work a scratch directory inside
	// it for checkpoint directories.
	Root, Work string
}

// record is what one job reports: its times, engine events and
// operation tally, and when traced its per-layer metrics.
type record struct {
	Wall, Setup       float64
	Events            int64
	PeakRSS           int64
	Attempted, Failed int
	Problems          []string
	Layers            map[string]float64
}

// job carries one batch job's state: the engine-stats sink every
// engine call reports into, the tracer, the set-up instant and the
// per-layer facts the workload gathers on its way.
type job struct {
	spec  jobSpec
	stats *netsim.EngineStats
	tr    *tracer
	start time.Time
	setup time.Duration
	rec   record

	links, receivers, points int
	plan                     *netsim.MemoryPlan
	shardBytes, ckptBytes    int64
	runnerWait               time.Duration
	speedup                  float64
	// engineSpan names the job spans that hold the engine calls.
	engineSpan string
	heapSys    uint64
}

// body runs one workload's job: it makes the set-up calls, marks
// set-up done right before the first engine call, then runs and checks
// the output. It returns the probes a traced job runs afterwards.
type body func(*job) (probes func() error, err error)

var workloads = map[string]body{
	"sweep-lossy":        func(j *job) (func() error, error) { return j.sweeps(false, "fig8", "leavelatency") },
	"sweep-capacity":     func(j *job) (func() error, error) { return j.sweeps(true, "background", "convergence") },
	"planetary-1m":       (*job).planetary1M,
	"planetary-1session": (*job).planetary1Session,
}

// setupRepeats is how many set-up-only passes a timed job of each
// workload adds to the run's set-up samples. A sweep's set-up lasts
// milliseconds, so one sample per job leaves its median at the mercy
// of a few slow passes; a planetary set-up is long enough alone.
var setupRepeats = map[string]int{"sweep-lossy": 9, "sweep-capacity": 9}

// workloadNames is the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-lossy", "sweep-capacity", "planetary-1m", "planetary-1session"}

// runJob executes one job and returns its record. A layer error is
// reported as every attempted operation failing.
func runJob(spec jobSpec) record {
	body, ok := workloads[spec.Workload]
	if !ok {
		return record{Attempted: 1, Failed: 1, Problems: []string{"unknown workload " + spec.Workload}}
	}
	st := &netsim.EngineStats{}
	j := &job{spec: spec, stats: st, tr: &tracer{on: spec.Trace, stats: st}}
	j.start = time.Now()
	j.tr.t0 = j.start
	var probes func() error
	err := j.tr.do("perfbench.job", func() (err error) {
		probes, err = body(j)
		return err
	})
	if spec.SetupOnly {
		return record{Setup: j.setup.Seconds()}
	}
	if err == nil {
		j.checkEngineTotals()
	}
	j.done()
	if err == nil && j.tr.on {
		j.tr.probe = true
		if err = probes(); err == nil {
			j.rec.Layers = j.layers()
		}
	}
	if err != nil {
		j.rec.Failed = max(j.rec.Attempted, 1)
		j.rec.Attempted = j.rec.Failed
		j.rec.Problems = append(j.rec.Problems, err.Error())
	}
	return j.rec
}

// setupDone marks the first engine call. It reports whether the job
// goes on past it.
func (j *job) setupDone() bool {
	j.setup = time.Since(j.start)
	return !j.spec.SetupOnly
}

// done marks the checked output: it fixes wall time, the engine event
// count and the process's peak RSS, before any probe runs.
func (j *job) done() {
	j.heapSys = j.tr.heapSys
	j.rec.Wall = time.Since(j.start).Seconds()
	j.rec.Setup = j.setup.Seconds()
	j.rec.Events = j.stats.Events.Load()
	j.rec.PeakRSS = peakRSS()
}

// peakRSS is this process's own peak resident set size: VmHWM, the
// high-water mark of its address space. getrusage's maxrss (what
// obs.ReadPeakRSS reads) also counts the address space the process was
// exec'd from, which for a command spawned with vfork is the spawner's,
// so a small workload would report its launcher's memory. obs.ReadPeakRSS
// serves where /proc is missing.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return obs.ReadPeakRSS()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err == nil {
				return kb * 1024
			}
		}
	}
	return obs.ReadPeakRSS()
}

// fail records n failed operations with the reason.
func (j *job) fail(n int, format string, args ...any) {
	j.rec.Failed += n
	j.rec.Problems = append(j.rec.Problems, fmt.Sprintf(format, args...))
}

// loadedSweep is one sweep after set-up.
type loadedSweep struct {
	name string
	sw   *scenario.Sweep
	pts  []scenario.Point
	comp []*scenario.Compiled
	// committed marks the committed seed and size, whose output must
	// match the golden.
	committed bool
}

// sweepDir holds the committed sweeps and their goldens.
func (j *job) sweepDir() string {
	return filepath.Join(j.spec.Root, "cmd", "netsim", "testdata", "sweeps")
}

// sweepSize returns a sweep's replication count and packet budget
// (0 keeps the file's) for this job. The capacity sweeps run at
// capacityReps replications instead of the committed 8 so one job
// lasts long enough to time.
func (j *job) sweepSize(name string) (reps, packets int) {
	switch {
	case j.spec.Golden:
		return 0, 0
	case j.spec.Tiny:
		return 2, 2000
	case name == "background" || name == "convergence":
		return capacityReps, 0
	}
	return 0, 0
}

const capacityReps = 128

// sweeps runs the named committed sweeps: all of them are loaded,
// expanded and compiled first, then executed through the default
// scheduler, or through the checkpointing scheduler when checkpointed.
func (j *job) sweeps(checkpointed bool, names ...string) (func() error, error) {
	var ls []*loadedSweep
	for _, name := range names {
		l, err := j.loadSweep(name)
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
	}
	if !j.setupDone() {
		return nil, nil
	}

	j.engineSpan = "scenario.sweep"
	if checkpointed {
		j.engineSpan = "sweepexec.run"
	}
	for _, l := range ls {
		var out bytes.Buffer
		if checkpointed {
			if err := j.runCheckpointed(l, &out); err != nil {
				return nil, err
			}
		} else {
			var res *scenario.SweepResult
			if err := j.tr.do("scenario.sweep", func() (err error) {
				res, err = scenario.RunSweepObserved(l.sw, &scenario.Observe{Stats: j.stats})
				return err
			}); err != nil {
				return nil, err
			}
			if err := j.tr.do("results.write", func() error { return res.WriteCSV(&out) }); err != nil {
				return nil, err
			}
		}
		var golden []byte
		if l.committed {
			var err error
			if golden, err = os.ReadFile(filepath.Join(j.sweepDir(), l.name+".golden.csv")); err != nil {
				return nil, err
			}
		}
		reps := make([]int, len(l.pts))
		for i := range l.pts {
			reps[i] = l.pts[i].Spec.Replications.N
		}
		if n, problems := checkSweepCSV(out.Bytes(), golden, reps); n > 0 {
			j.fail(n, "%s: %s", l.name, strings.Join(problems, "; "))
		}
	}
	return func() error { return j.sweepProbes(ls) }, nil
}

// loadSweep is one sweep's set-up: load (with this job's seed and
// size), expand and compile.
func (j *job) loadSweep(name string) (*loadedSweep, error) {
	l := &loadedSweep{name: name}
	reps, packets := j.sweepSize(name)
	if err := j.tr.do("scenario.load", func() (err error) {
		if l.sw, err = scenario.LoadSweepFile(filepath.Join(j.sweepDir(), name+".json")); err != nil {
			return err
		}
		if !j.spec.Golden {
			l.sw.Base.Seed = j.spec.Seed
		}
		if reps > 0 {
			l.sw.Base.Replications.N = reps
		}
		if packets > 0 {
			l.sw.Base.Packets = packets
		}
		return l.sw.Validate()
	}); err != nil {
		return nil, err
	}
	if err := j.tr.do("scenario.expand", func() (err error) {
		l.pts, err = l.sw.Expand()
		return err
	}); err != nil {
		return nil, err
	}
	if err := j.tr.do("scenario.compile", func() error {
		x, err := scenario.NewPointExecutor(l.sw)
		if err != nil {
			return err
		}
		l.comp = make([]*scenario.Compiled, len(l.pts))
		for i := range l.pts {
			if l.comp[i], err = x.Compile(&l.pts[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range l.pts {
		j.rec.Attempted += l.pts[i].Spec.Replications.N
		net := l.comp[i].Net
		j.links = max(j.links, net.NumLinks())
		j.receivers = max(j.receivers, net.NumReceivers())
	}
	j.points += len(l.pts)
	l.committed = reps == 0 && packets == 0 && l.sw.Base.Seed == committedSeed
	return l, nil
}

// runCheckpointed executes one sweep through sweepexec.Run with a
// fresh checkpoint directory and measures what it left there.
func (j *job) runCheckpointed(l *loadedSweep, out *bytes.Buffer) error {
	dir, err := os.MkdirTemp(j.spec.Work, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var res *sweepexec.Result
	if err := j.tr.do("sweepexec.run", func() (err error) {
		res, err = sweepexec.Run(l.sw, sweepexec.Options{CheckpointDir: dir, Observe: &scenario.Observe{Stats: j.stats}})
		return err
	}); err != nil {
		return err
	}
	if err := j.tr.do("results.write", func() error { return res.WriteCSV(out) }); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(e.Name(), ".shard") {
			j.shardBytes += info.Size()
		} else {
			j.ckptBytes += info.Size()
		}
	}
	return nil
}

// checkEngineTotals checks the engine counters against the job: every
// attempted replication ran, and links dropped no more packets than
// entered them.
func (j *job) checkEngineTotals() {
	ok := j.rec.Attempted - j.rec.Failed
	if runs := int(j.stats.Runs.Load()); runs < j.rec.Attempted {
		j.fail(min(j.rec.Attempted-runs, ok), "%d replications attempted, %d engine runs", j.rec.Attempted, runs)
		ok = j.rec.Attempted - j.rec.Failed
	}
	if d, c := j.stats.Drops.Load(), j.stats.Crossings.Load(); d > c {
		j.fail(ok, "drops %d exceed crossings %d", d, c)
	}
}

// sweepProbes isolates the engine under a traced sweep job: it replays
// every compiled point's replications through netsim.StreamReplications
// (the runner both schedulers use), times construction plus fold as
// one-packet runs, and times the convergence points' fair-rate
// timelines.
func (j *job) sweepProbes(ls []*loadedSweep) error {
	j.runnerWait = 0
	for _, l := range ls {
		for i := range l.pts {
			cfg := l.comp[i].Cfg
			cfg.Stats = nil
			n := l.pts[i].Spec.Replications.N
			if err := j.tr.do("netsim.run", func() error { return j.stream(cfg, n, nil) }); err != nil {
				return err
			}
		}
	}
	if err := j.tr.do("netsim.construct", func() error {
		for _, l := range ls {
			for i := range l.pts {
				cfg := l.comp[i].Cfg
				cfg.Stats, cfg.Packets = nil, 1
				for rep := 0; rep < l.pts[i].Spec.Replications.N; rep++ {
					cfg.Seed = netsim.ReplicationSeed(l.comp[i].Cfg.Seed, rep)
					if _, err := netsim.Run(cfg); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, l := range ls {
		if !slices.Contains(l.sw.OutputColumns(), "time_to_fair") {
			continue
		}
		if err := j.tr.do("scenario.fair_timeline", func() error {
			for _, c := range l.comp {
				if _, err := scenario.FairTimeline(c); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	j.speedup = 1 // Shards = 0: the run is its own one-worker twin
	return nil
}

// stream runs n replications of cfg through netsim.StreamReplications
// on GOMAXPROCS workers and adds the time its consumer spent blocked
// between results to runnerWait. consume, when non-nil, sees every
// result.
func (j *job) stream(cfg netsim.Config, n int, consume func(*netsim.Result)) error {
	last := time.Now()
	return netsim.StreamReplications(cfg, n, 0, func(_ int, r *netsim.Result) error {
		j.runnerWait += time.Since(last)
		if consume != nil {
			consume(r)
		}
		last = time.Now()
		return nil
	})
}

// planetaryRun is one planetary job's configuration.
type planetaryRun struct {
	po      topology.PlanetaryOptions
	packets int
	seed    uint64
	// accessCut cuts at the access links, as the planetary CLI
	// scenario does; otherwise the engine picks its cut frontier.
	accessCut bool
	golden    []byte
}

// planetary1M is the CLI's -scenario planetary run at 2^20 receivers;
// at the committed seed and packet budget its output must match the
// committed golden.
func (j *job) planetary1M() (func() error, error) {
	r := planetaryRun{po: topology.PlanetaryOptions1M(), packets: 16384, seed: j.spec.Seed, accessCut: true}
	switch {
	case j.spec.Golden:
		r.seed, r.packets = committedSeed, committedPlanetaryPackets
	case j.spec.Tiny:
		r.po.PoPs, r.packets = 8, 256
	}
	if r.seed == committedSeed && r.packets == committedPlanetaryPackets {
		golden, err := os.ReadFile(filepath.Join(j.spec.Root, "cmd", "netsim", "testdata", "planetary.golden.out"))
		if err != nil {
			return nil, err
		}
		r.golden = golden
	}
	return j.planetary(r)
}

// planetary1Session puts 2^20 receivers in one session (one region of
// 16384 PoPs), so subtree fan-out is the only parallelism. No golden
// exists for this shape; its committed job is the committed seed.
func (j *job) planetary1Session() (func() error, error) {
	r := planetaryRun{po: topology.PlanetaryOptions1M(), packets: 1024, seed: j.spec.Seed}
	r.po.Regions, r.po.PoPs = 1, 16384
	switch {
	case j.spec.Golden:
		r.seed = committedSeed
	case j.spec.Tiny:
		r.po.PoPs, r.packets = 128, 64
	}
	return j.planetary(r)
}

// planetaryLayers is the layer count of every planetary session.
const planetaryLayers = 8

// planetary runs one planetary replication the way the CLI's
// -scenario planetary driver does (topology, engine config, memory
// plan, one streamed replication, per-region summary) and checks it.
func (j *job) planetary(r planetaryRun) (func() error, error) {
	po := r.po
	j.rec.Attempted = 1
	var cfg netsim.Config
	if err := j.tr.do("topology.build", func() error {
		rng := rand.New(rand.NewPCG(r.seed, r.seed^0x9e3779b97f4a7c15))
		net, firstAccess, err := topology.Planetary(rng, po)
		if err != nil {
			return err
		}
		links := make([]netsim.LinkSpec, net.NumLinks())
		for l := 0; l < firstAccess; l++ {
			links[l] = netsim.LinkSpec{Kind: netsim.Capacity}
		}
		kinds := protocol.Kinds()
		sess := make([]netsim.SessionConfig, net.NumSessions())
		for i := range sess {
			sess[i] = netsim.SessionConfig{Protocol: kinds[i%len(kinds)], Layers: planetaryLayers}
		}
		cfg = netsim.Config{Network: net, Links: links, Sessions: sess, Packets: r.packets,
			Seed: r.seed, Shards: runtime.NumCPU(), Stats: j.stats}
		if r.accessCut {
			cfg.CutLinks = topology.PlanetaryCutFrontier(firstAccess, net.NumLinks())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	net := cfg.Network
	j.links, j.receivers = net.NumLinks(), net.NumReceivers()
	if err := j.tr.do("netsim.plan", func() (err error) {
		j.plan, err = netsim.PlanMemory(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if !j.setupDone() {
		return nil, nil
	}

	j.engineSpan = "netsim.run"
	var out bytes.Buffer
	fmt.Fprintf(&out, "netsim planetary: %d regions x %d PoPs x %d receivers = %d receivers, %d links, %d packets, %d trials\n",
		po.Regions, po.PoPs, po.ReceiversPerPoP, po.NumReceivers(), net.NumLinks(), r.packets, 1)
	fmt.Fprintf(&out, "%s\n", j.plan)
	accMean := make([]stats.Accumulator, po.Regions)
	accBest := make([]stats.Accumulator, po.Regions)
	var res *netsim.Result
	if err := j.tr.do("netsim.run", func() error {
		return j.stream(cfg, 1, func(rr *netsim.Result) {
			res = rr
			for i := 0; i < po.Regions; i++ {
				sum, best := 0.0, 0.0
				for _, v := range rr.ReceiverRates[i] {
					sum += v
					best = max(best, v)
				}
				accMean[i].Add(sum / float64(len(rr.ReceiverRates[i])))
				accBest[i].Add(best)
			}
		})
	}); err != nil {
		return nil, err
	}
	kinds := protocol.Kinds()
	fmt.Fprintln(&out, "region,protocol,receivers,mean_rate,ci95,best_rate")
	for i := 0; i < po.Regions; i++ {
		fmt.Fprintf(&out, "%d,%s,%d,%.6f,%.6f,%.6f\n",
			i, kinds[i%len(kinds)], po.PoPs*po.ReceiversPerPoP,
			accMean[i].Mean(), accMean[i].CI95(), accBest[i].Mean())
	}
	fmt.Fprintln(&out)
	if problems := checkPlanetary(out.Bytes(), r.golden, res, po.Regions, planetaryLayers); len(problems) > 0 {
		j.fail(1, "%s", strings.Join(problems, "; "))
	}
	return func() error { return j.planetaryProbes(cfg, res) }, nil
}

// planetaryProbes times construction plus fold as a one-packet run of
// the same configuration, and runs the one-worker twin, whose Result
// must equal the sharded run's. Only a digest of the sharded Result is
// kept, and the heap is collected before each probe, so no probe holds
// more than one engine: later jobs' heap and RSS readings stay those
// of one run.
func (j *job) planetaryProbes(cfg netsim.Config, res *netsim.Result) error {
	want, err := digest(res)
	if err != nil {
		return err
	}
	res = nil
	runtime.GC()
	base := cfg
	base.Stats = nil
	base.Seed = netsim.ReplicationSeed(cfg.Seed, 0)
	one := base
	one.Packets = 1
	if err := j.tr.do("netsim.construct", func() error {
		_, err := netsim.Run(one)
		return err
	}); err != nil {
		return err
	}
	runtime.GC()
	twinCfg := base
	twinCfg.Shards = 1
	var got [sha256.Size]byte
	if err := j.tr.do("netsim.twin", func() error {
		twin, err := netsim.Run(twinCfg)
		if err != nil {
			return err
		}
		got, err = digest(twin)
		return err
	}); err != nil {
		return err
	}
	j.rec.Attempted++
	if got != want {
		j.fail(1, "one-worker twin Result differs from the sharded run")
	}
	_, runWall := j.tr.sum("netsim.run")
	_, twinWall := j.tr.sum("netsim.twin")
	j.speedup = twinWall.Seconds() / runWall.Seconds()
	return nil
}

// digest hashes every field of a Result, floats by their bits.
func digest(r *netsim.Result) ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(r); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("digest Result: %w", err)
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}
