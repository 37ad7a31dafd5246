package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/results"
	"mlfair/internal/stats"
)

// BenchmarkColumns are the per-point analytic columns the Benchmark
// stage produces: the mean and minimum max-min fair receiver rate of
// the point's benchmark network, and the mean and minimum per-receiver
// fairness-gap index (simulated mean rate / fair rate, over receivers
// with a positive fair rate).
var BenchmarkColumns = []string{"fair_rate", "fair_min", "gap_mean", "gap_min"}

// SweepResult is one executed sweep: the replication-level simulated
// store and the per-point analytic benchmark store (nil unless
// Sweep.Benchmark). Point ids and coordinates are the stores' own.
type SweepResult struct {
	Sweep *Sweep
	// Sim holds one row per (point, replication) of the selected output
	// metrics; summaries are bit-identical for any worker count and any
	// point completion order.
	Sim *results.Store
	// Bench holds one row per point of BenchmarkColumns.
	Bench *results.Store
}

// NewSweepResult validates sw and returns its empty result: a simulated
// store over the sweep's axes and outputs, plus a benchmark store when
// the Benchmark stage is on. RunPoints fills it.
func NewSweepResult(sw *Sweep) (*SweepResult, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	axes := sw.AxisFields()
	sim, err := results.New(axes, sw.outputSet())
	if err != nil {
		return nil, err
	}
	r := &SweepResult{Sweep: sw, Sim: sim}
	if sw.Benchmark {
		if r.Bench, err = results.New(axes, BenchmarkColumns); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// topoCacheKey captures exactly the inputs buildTopology consumes, so
// sweep points that vary only non-topology fields (loss rates, packet
// budgets, protocols, churn...) share one generated network.
func topoCacheKey(s *Spec) (string, error) {
	type sessKey struct {
		Type       string
		MaxRate    float64
		Redundancy float64
		Paths      [][]int
	}
	key := struct {
		Topology TopologySpec
		Seed     uint64
		Sessions []sessKey
	}{Topology: s.Topology, Seed: s.topologySeed()}
	for _, ss := range s.Sessions {
		key.Sessions = append(key.Sessions, sessKey{ss.Type, ss.MaxRate, ss.Redundancy, ss.Paths})
	}
	b, err := json.Marshal(key)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// PointExecutor compiles and executes individual sweep points for the
// point scheduler (RunPoints). Compile shares generated topologies
// across points (thread-safe), and executePoint streams one point's
// replication rows to a callback in replication order, so the
// scheduler's stores are bit-identical for any worker count.
type PointExecutor struct {
	outputs  []string
	bench    bool
	stats    *netsim.EngineStats
	mu       sync.Mutex
	topoMemo map[string]cachedTopo
}

type cachedTopo struct {
	net       *netmodel.Network
	simulable bool
}

// NewPointExecutor validates the sweep and prepares an executor.
func NewPointExecutor(sw *Sweep) (*PointExecutor, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	return &PointExecutor{
		outputs:  sw.outputSet(),
		bench:    sw.Benchmark,
		topoMemo: map[string]cachedTopo{},
	}, nil
}

// Compile compiles one point, reusing generated topologies across
// calls with equal topology inputs. Safe for concurrent use.
func (x *PointExecutor) Compile(p *Point) (*Compiled, error) {
	key, err := topoCacheKey(p.Spec)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	ent, ok := x.topoMemo[key]
	x.mu.Unlock()
	if !ok {
		net, simulable, err := p.Spec.buildTopology()
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep point %d: %w", p.ID, err)
		}
		ent = cachedTopo{net: net, simulable: simulable}
		x.mu.Lock()
		x.topoMemo[key] = ent
		x.mu.Unlock()
	}
	c, err := compileBuilt(p.Spec, ent.net, ent.simulable)
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep point %d: %w", p.ID, err)
	}
	if !c.Simulable {
		return nil, fmt.Errorf("scenario: sweep point %d: topology %q is not simulable", p.ID, p.Spec.Topology.Kind)
	}
	if x.stats != nil {
		c.Cfg.Stats = x.stats
	}
	return c, nil
}

// executePoint runs point p's replications on inner parallel workers
// and hands each non-skipped replication's metric row to onCell, in
// ascending replication order on the calling goroutine (the row slice
// is reused across calls — copy to retain). skip marks replications
// whose rows are already known (a resume); nil skips nothing. Because
// every replication is a pure function of (spec, replication index),
// the rows delivered are bit-identical whether a point runs fresh, in
// parts across crashes, or with any worker count.
//
// When the sweep's Benchmark stage is on, the returned row holds the
// point's BenchmarkColumns values. The fairness-gap columns average
// simulated receiver rates over every replication, so skipped
// replications are re-simulated (their rows are simply not re-emitted);
// without the benchmark stage only missing replications run.
func (x *PointExecutor) executePoint(p *Point, c *Compiled, skip []bool, inner int,
	onCell func(rep int, row []float64, events int64) error) ([]float64, error) {
	n := p.Spec.Replications.N
	if skip != nil && len(skip) != n {
		return nil, fmt.Errorf("scenario: sweep point %d: skip mask has %d slots for %d replications", p.ID, len(skip), n)
	}
	missing := 0
	for rep := 0; rep < n; rep++ {
		if skip == nil || !skip[rep] {
			missing++
		}
	}
	if missing == 0 && !x.bench {
		return nil, nil
	}

	var convEval *convergenceEval
	if missing > 0 {
		for _, o := range x.outputs {
			if isConvergenceOutput(o) {
				epochs, err := FairTimeline(c)
				if err != nil {
					return nil, fmt.Errorf("scenario: sweep point %d: fair-rate timeline: %w", p.ID, err)
				}
				convEval = &convergenceEval{epochs: epochs, eps: p.Spec.convergenceEpsilon()}
				break
			}
		}
	}
	var rateAccs [][]stats.Accumulator
	if x.bench {
		rateAccs = make([][]stats.Accumulator, c.Net.NumSessions())
		for i := range rateAccs {
			rateAccs[i] = make([]stats.Accumulator, c.Net.Session(i).NumReceivers())
		}
	}

	row := make([]float64, len(x.outputs))
	consume := func(rep int, r *netsim.Result) error {
		if rateAccs != nil {
			for i := range r.ReceiverRates {
				for k, v := range r.ReceiverRates[i] {
					rateAccs[i][k].Add(v)
				}
			}
		}
		if skip != nil && skip[rep] {
			return nil
		}
		var cs convScalars
		csDone := false
		for m, name := range x.outputs {
			if fn, ok := sweepMetrics[name]; ok {
				row[m] = fn(r)
				continue
			}
			if !csDone {
				if r.Probe == nil {
					return fmt.Errorf("scenario: sweep point %d: output %q needs probe output", p.ID, name)
				}
				if err := convEval.checkComplete(r.Probe); err != nil {
					return fmt.Errorf("scenario: sweep point %d: %w", p.ID, err)
				}
				cs = convEval.scalars(r.Probe)
				csDone = true
			}
			switch name {
			case "time_to_fair":
				row[m] = cs.TimeToFair
			case "frac_time_fair":
				row[m] = cs.FracTimeFair
			case "oscillation":
				row[m] = cs.Oscillation
			}
		}
		return onCell(rep, row, r.Events)
	}

	// The benchmark's rate accumulators consume every replication in
	// order, so the stream must cover 0..n-1 whenever the stage is on;
	// otherwise a resumed point only runs the replications it is
	// missing.
	var err error
	if x.bench || missing == n {
		err = netsim.StreamReplications(c.Cfg, n, inner, consume)
	} else {
		err = x.runSelected(c.Cfg, skip, inner, consume)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep point %d: %w", p.ID, err)
	}

	var benchRow []float64
	if x.bench {
		fair, err := maxmin.Allocate(c.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep point %d: max-min benchmark: %w", p.ID, err)
		}
		var fairAcc stats.Accumulator
		fairMin := math.Inf(1)
		gapMin := math.Inf(1)
		var gapAcc stats.Accumulator
		for i := 0; i < c.Benchmark.NumSessions(); i++ {
			rates := fair.Alloc.SessionRates(i)
			for k, f := range rates {
				fairAcc.Add(f)
				if f < fairMin {
					fairMin = f
				}
				if f > 0 {
					gap := rateAccs[i][k].Mean() / f
					gapAcc.Add(gap)
					if gap < gapMin {
						gapMin = gap
					}
				}
			}
		}
		if math.IsInf(fairMin, 1) {
			fairMin = 0
		}
		if math.IsInf(gapMin, 1) {
			gapMin = 0
		}
		benchRow = []float64{fairAcc.Mean(), fairMin, gapAcc.Mean(), gapMin}
	}
	return benchRow, nil
}

// runSelected runs only the replications whose skip slot is false, in
// parallel up to inner workers, and consumes them in ascending
// replication order — the resume path's runner. Unlike
// StreamReplications the selected set is sparse, so results are held
// until consumption; the set is bounded by one point's replication
// count.
func (x *PointExecutor) runSelected(cfg netsim.Config, skip []bool, inner int,
	consume func(rep int, r *netsim.Result) error) error {
	var reps []int
	for rep, s := range skip {
		if !s {
			reps = append(reps, rep)
		}
	}
	if inner < 1 {
		inner = runtime.GOMAXPROCS(0)
	}
	res := make([]*netsim.Result, len(reps))
	errs := make([]error, len(reps))
	sem := make(chan struct{}, inner)
	var wg sync.WaitGroup
	for j, rep := range reps {
		wg.Add(1)
		go func(j, rep int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = netsim.ReplicationSeed(cfg.Seed, rep)
			res[j], errs[j] = netsim.Run(c)
		}(j, rep)
	}
	wg.Wait()
	for j, rep := range reps {
		if errs[j] != nil {
			return errs[j]
		}
		if err := consume(rep, res[j]); err != nil {
			return err
		}
	}
	return nil
}

// RunSweepObserved runs every point of a sweep on the point scheduler
// (RunPoints) into fresh stores. ob optionally attaches observability:
// ob.Stats is injected into every point's engine config, and
// ob.Progress receives streaming SweepProgress snapshots. A nil ob
// changes no result.
func RunSweepObserved(sw *Sweep, ob *Observe) (*SweepResult, error) {
	r, err := NewSweepResult(sw)
	if err != nil {
		return nil, err
	}
	if err := r.RunPoints(0, 1, 0, ob, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// SweepSink observes what RunPoints adds to a SweepResult's stores.
// Its calls run under the scheduler's lock, after the stores took the
// values, so they never overlap. An error from either method stops the
// run at once: no later cell reaches the stores or the sink, and
// RunPoints returns that error.
type SweepSink interface {
	// Cell follows each simulated cell: replication rep of point p with
	// its output row, which is reused after the call (copy to retain).
	Cell(p *Point, rep int, row []float64) error
	// PointEnd follows a point's last cell. bench is the point's
	// benchmark row: nil when the stage is off or the row was restored.
	PointEnd(p *Point, bench []float64) error
}

// RunPoints is the sweep point scheduler. It runs the points whose id
// mod shards is shard (shards = 1 runs them all) on a worker pool,
// expanding and compiling each point only when a worker takes it, and
// adds their cells to r's stores. The worker budget (0 = the sweep's
// replications.workers, and from there GOMAXPROCS; negative is an
// error) is split between points in flight and each point's
// replication runner. A point that r.Sim already defines (a resumed
// run) runs only its unobserved replications, and not at all once
// every cell and its benchmark row are present. Every replication row
// is a pure function of (point, replication index) and the stores are
// merge-order invariant, so they come out bit-identical for any
// budget, shard split or resume history.
//
// Points are dispatched in id order and none after a failure; the
// error returned is the sink's, or else the lowest failing point's.
func (r *SweepResult) RunPoints(shard, shards, workers int, ob *Observe, sink SweepSink) error {
	e, err := r.Sweep.Expander()
	if err != nil {
		return err
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return fmt.Errorf("scenario: invalid shard %d/%d", shard, shards)
	}
	if workers < 0 {
		return fmt.Errorf("scenario: sweep worker budget %d (0 = the sweep's own)", workers)
	}
	x, err := NewPointExecutor(r.Sweep)
	if err != nil {
		return err
	}
	if ob != nil {
		x.stats = ob.Stats
	}
	total, points, cells := e.Len(), 0, 0
	for id := shard; id < total; id += shards {
		reps, err := e.RepsAt(id)
		if err != nil {
			return err
		}
		points++
		cells += reps
	}
	if workers == 0 {
		workers = r.Sweep.Base.Replications.Workers
	}
	pointWorkers, inner := sweepWorkerSplit(workers, points)
	s := &sweepRun{r: r, e: e, x: x, inner: inner, sink: sink, tr: newTracker(ob, points, cells, pointWorkers)}
	s.tr.SkipCells(r.Sim.NumObservations())

	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pointWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := range ids {
				s.tr.PointStart(w)
				err := s.point(id)
				s.tr.PointEnd(w)
				if err != nil {
					s.fail(id, err)
				}
			}
		}(w)
	}
	for id := shard; id < total && !s.failed(); id += shards {
		ids <- id
	}
	close(ids)
	wg.Wait()
	s.tr.Finish()
	if s.stopErr != nil {
		return s.stopErr
	}
	return s.err
}

// sweepWorkerSplit divides a worker budget (0 = GOMAXPROCS) between
// point-level parallelism and the replication workers each point hands
// to its inner runner.
func sweepWorkerSplit(budget, points int) (pointWorkers, inner int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	pointWorkers = budget
	if pointWorkers > points {
		pointWorkers = points
	}
	if pointWorkers < 1 {
		pointWorkers = 1
	}
	inner = budget / pointWorkers
	if inner < 1 {
		inner = 1
	}
	return pointWorkers, inner
}

// sweepRun is one RunPoints call's shared state; mu guards the stores,
// the sink and the error fields.
type sweepRun struct {
	r     *SweepResult
	e     *Expander
	x     *PointExecutor
	inner int
	sink  SweepSink
	tr    *tracker

	mu      sync.Mutex
	stopErr error // the sink's error, which stops the run at once
	err     error // the lowest failing point's error
	errID   int
}

// fail records point id's error, keeping the lowest failing id's.
func (s *sweepRun) fail(id int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil || id < s.errID {
		s.err, s.errID = err, id
	}
}

// failed reports whether the run has stopped or a point has failed.
func (s *sweepRun) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopErr != nil || s.err != nil
}

// point runs sweep point id, or the part of it the stores lack.
func (s *sweepRun) point(id int) error {
	p, err := s.e.PointAt(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	skip, benchDone, err := s.define(p)
	stopped := s.stopErr != nil
	s.mu.Unlock()
	if err != nil || stopped {
		return err
	}
	if skip != nil && !slices.Contains(skip, false) && (s.r.Bench == nil || benchDone) {
		return nil // fully restored
	}
	c, err := s.x.Compile(p)
	if err != nil {
		return err
	}
	benchRow, err := s.x.executePoint(p, c, skip, s.inner, func(rep int, row []float64, events int64) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopErr != nil {
			return s.stopErr
		}
		if err := s.r.Sim.Observe(id, rep, row...); err != nil {
			return err
		}
		s.tr.Cell(events)
		if s.sink != nil {
			if err := s.sink.Cell(p, rep, row); err != nil {
				s.stopErr = err
				return err
			}
		}
		return nil
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopErr != nil {
		return nil // the run already stopped on the sink's error
	}
	if err != nil {
		return err
	}
	if benchDone {
		benchRow = nil
	}
	if benchRow != nil {
		if err := s.r.Bench.Observe(id, 0, benchRow...); err != nil {
			return err
		}
	}
	if s.sink != nil {
		if err := s.sink.PointEnd(p, benchRow); err != nil {
			s.stopErr = err
		}
	}
	return nil
}

// define adds point p to the stores or, when they already hold it (a
// resumed run), returns which replications are observed (nil when
// none) and whether its benchmark row is. The caller holds s.mu.
func (s *sweepRun) define(p *Point) (skip []bool, benchDone bool, err error) {
	n := p.Spec.Replications.N
	if observed, err := s.r.Sim.ObservedReps(p.ID); err != nil {
		if err := s.r.Sim.AddPoint(p.ID, p.Coords, n); err != nil {
			return nil, false, err
		}
	} else if len(observed) > 0 {
		skip = make([]bool, n)
		for _, rep := range observed {
			if rep >= n {
				return nil, false, fmt.Errorf("scenario: sweep point %d restored replication %d of %d", p.ID, rep, n)
			}
			skip[rep] = true
		}
	}
	if s.r.Bench != nil {
		if observed, err := s.r.Bench.ObservedReps(p.ID); err == nil {
			benchDone = len(observed) == 1
		} else if err := s.r.Bench.AddPoint(p.ID, p.Coords, 1); err != nil {
			return nil, false, err
		}
	}
	return skip, benchDone, nil
}

// Cell returns the simulated summary of one (point, output metric)
// cell — the accessor the table-rendering drivers read.
func (r *SweepResult) Cell(id int, metric string) (results.Cell, error) {
	return r.Sim.Cell(id, metric)
}

// WriteCSV renders the sweep as one deterministic CSV table: the
// simulated statistics per point, joined with the benchmark columns
// when the Benchmark stage ran (the compare output).
func (r *SweepResult) WriteCSV(w io.Writer) error {
	if r.Bench != nil {
		return results.WriteJoinedCSV(w, r.Sim, r.Bench)
	}
	return r.Sim.WriteCSV(w)
}

// WriteJSON renders the sweep as one JSON document embedding the
// simulated store and, when present, the benchmark store.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	var simBuf, benchBuf bytes.Buffer
	if err := r.Sim.WriteJSON(&simBuf); err != nil {
		return err
	}
	doc := struct {
		Name      string          `json:"name"`
		Simulated json.RawMessage `json:"simulated"`
		Benchmark json.RawMessage `json:"benchmark,omitempty"`
	}{Name: r.Sweep.Title(), Simulated: bytes.TrimRight(simBuf.Bytes(), "\n")}
	if r.Bench != nil {
		if err := r.Bench.WriteJSON(&benchBuf); err != nil {
			return err
		}
		doc.Benchmark = bytes.TrimRight(benchBuf.Bytes(), "\n")
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
