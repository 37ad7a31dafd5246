package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mlfair/internal/netsim"
	"mlfair/internal/obs"
)

// Observe is the optional observability attachment for scenario and
// sweep execution: an engine-stats sink shared by every replication
// and a streaming progress callback. A nil *Observe (or zero fields)
// is fully inert — execution paths and outputs are bit-identical with
// observation on or off; the layer only ever reads what the engine
// already computes.
type Observe struct {
	// Stats, when non-nil, is injected as netsim.Config.Stats into
	// every compiled point, so one sink accumulates engine counters
	// across all points and replications.
	Stats *netsim.EngineStats
	// Progress, when non-nil, receives throttled SweepProgress
	// snapshots from a reporter goroutine while the run executes, and
	// one final snapshot with Done set after the last cell merges. It
	// must be safe to call from one goroutine at a time.
	Progress func(SweepProgress)
	// Interval is the minimum delay between Progress calls; zero means
	// 200ms.
	Interval time.Duration
	// Manifest, when non-nil, receives run-shape provenance from
	// drivers that compute a memory plan — the shard-group count, the
	// intra-session subtree count, and the cut-frontier size — via its
	// nil-safe setters.
	Manifest *obs.Manifest
}

// SweepProgress is one snapshot of a running sweep (or single
// scenario, which reports as a one-point sweep): completed work,
// replication throughput, and the worker pool's utilization.
type SweepProgress struct {
	// DoneCells / TotalCells count (point, replication) cells;
	// DonePoints / TotalPoints count fully merged points.
	DoneCells   int
	TotalCells  int
	DonePoints  int
	TotalPoints int
	// Events is the cumulative engine event count over finished cells;
	// EventsPerSec is that divided by Elapsed.
	Events       int64
	EventsPerSec float64
	// Elapsed is wall seconds since the run started; ETA is the
	// remaining-seconds estimate from the mean cell rate (0 until the
	// first cell finishes, and 0 once Done).
	Elapsed float64
	ETA     float64
	// Workers is the point-worker pool size; Utilization is the
	// fraction of worker-seconds spent inside point execution.
	Workers     int
	Utilization float64
	// SkippedCells counts cells a resumed run restored from its
	// checkpoint instead of re-simulating; SpilledShards counts shard
	// files committed to the checkpoint directory; CheckpointedCells
	// counts cells recorded durable in the checkpoint file. All three
	// stay zero outside checkpointed (sweepexec) runs.
	SkippedCells      int
	SpilledShards     int
	CheckpointedCells int
	// Done marks the final snapshot.
	Done bool
}

// String renders the snapshot as the single status line the -progress
// CLI flag shows.
func (p SweepProgress) String() string {
	s := fmt.Sprintf("cells %d/%d points %d/%d | %s events",
		p.DoneCells, p.TotalCells, p.DonePoints, p.TotalPoints, fmtCount(p.Events))
	if p.EventsPerSec > 0 {
		s += fmt.Sprintf(" | %s ev/s", fmtCount(int64(p.EventsPerSec)))
	}
	if p.Workers > 0 {
		s += fmt.Sprintf(" | %d workers %d%% busy", p.Workers, int(p.Utilization*100+0.5))
	}
	if p.SkippedCells > 0 {
		s += fmt.Sprintf(" | %d resumed", p.SkippedCells)
	}
	if p.SpilledShards > 0 || p.CheckpointedCells > 0 {
		s += fmt.Sprintf(" | ckpt %d cells/%d shards", p.CheckpointedCells, p.SpilledShards)
	}
	if p.Done {
		s += fmt.Sprintf(" | done in %s", fmtSeconds(p.Elapsed))
	} else if p.ETA > 0 {
		s += fmt.Sprintf(" | ETA %s", fmtSeconds(p.ETA))
	}
	return s
}

// fmtCount renders a count with k/M/G suffixes (3 significant-ish
// digits, enough for a status line).
func fmtCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// fmtSeconds renders a duration estimate as 12s / 3m05s / 2h04m.
func fmtSeconds(s float64) string {
	if s < 0 {
		s = 0
	}
	d := time.Duration(s * float64(time.Second)).Round(time.Second)
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	sec := int(d.Seconds()) % 60
	switch {
	case h > 0:
		return fmt.Sprintf("%dh%02dm", h, m)
	case m > 0:
		return fmt.Sprintf("%dm%02ds", m, sec)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// tracker drives an Observe's Progress callback: atomic tallies fed
// from worker goroutines plus one reporter goroutine that snapshots
// them on a ticker. All methods are nil-receiver safe so execution
// code never branches on whether observation is attached.
type tracker struct {
	ob          *Observe
	start       time.Time
	totalPoints int
	totalCells  int
	workers     int
	doneCells   atomic.Int64
	donePoints  atomic.Int64
	events      atomic.Int64
	busyNanos   atomic.Int64
	skipped     atomic.Int64
	// inflight[w] holds worker w's current point-start time in unix
	// nanos (0 = idle), so utilization counts in-progress work too.
	inflight []atomic.Int64
	stop     chan struct{}
	wg       sync.WaitGroup
}

// newTracker starts the reporter, or returns nil (a valid no-op
// tracker) when ob carries no Progress callback.
func newTracker(ob *Observe, totalPoints, totalCells, workers int) *tracker {
	if ob == nil || ob.Progress == nil {
		return nil
	}
	tr := &tracker{
		ob:          ob,
		start:       time.Now(),
		totalPoints: totalPoints,
		totalCells:  totalCells,
		workers:     workers,
		inflight:    make([]atomic.Int64, workers),
		stop:        make(chan struct{}),
	}
	tr.wg.Add(1)
	go tr.loop()
	return tr
}

func (tr *tracker) loop() {
	defer tr.wg.Done()
	iv := tr.ob.Interval
	if iv <= 0 {
		iv = 200 * time.Millisecond
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			tr.ob.Progress(tr.snapshot(false))
		case <-tr.stop:
			return
		}
	}
}

// Cell records one finished replication and its engine event count.
func (tr *tracker) Cell(events int64) {
	if tr == nil {
		return
	}
	tr.doneCells.Add(1)
	tr.events.Add(events)
}

// PointStart / PointEnd bracket worker w's execution of one point.
func (tr *tracker) PointStart(w int) {
	if tr == nil {
		return
	}
	tr.inflight[w].Store(time.Now().UnixNano())
}

func (tr *tracker) PointEnd(w int) {
	if tr == nil {
		return
	}
	if t0 := tr.inflight[w].Swap(0); t0 != 0 {
		tr.busyNanos.Add(time.Now().UnixNano() - t0)
	}
	tr.donePoints.Add(1)
}

// SkipCells records n cells restored from a checkpoint (a resumed
// run's already-complete work) rather than simulated.
func (tr *tracker) SkipCells(n int) {
	if tr == nil {
		return
	}
	tr.skipped.Add(int64(n))
}

// Finish stops the reporter and delivers the final Done snapshot.
func (tr *tracker) Finish() {
	if tr == nil {
		return
	}
	close(tr.stop)
	tr.wg.Wait()
	tr.ob.Progress(tr.snapshot(true))
}

func (tr *tracker) snapshot(done bool) SweepProgress {
	elapsed := time.Since(tr.start).Seconds()
	cells := int(tr.doneCells.Load())
	p := SweepProgress{
		DoneCells:   cells,
		TotalCells:  tr.totalCells,
		DonePoints:  int(tr.donePoints.Load()),
		TotalPoints: tr.totalPoints,
		Events:      tr.events.Load(),
		Elapsed:     elapsed,
		Workers:     tr.workers,
		Done:        done,

		SkippedCells: int(tr.skipped.Load()),
	}
	if elapsed > 0 {
		p.EventsPerSec = float64(p.Events) / elapsed
		busy := tr.busyNanos.Load()
		now := time.Now().UnixNano()
		for w := range tr.inflight {
			if t0 := tr.inflight[w].Load(); t0 != 0 && now > t0 {
				busy += now - t0
			}
		}
		util := float64(busy) / (float64(tr.workers) * elapsed * float64(time.Second))
		if util > 1 {
			util = 1
		}
		p.Utilization = util
	}
	if !done && cells > 0 && cells < tr.totalCells {
		p.ETA = elapsed / float64(cells) * float64(tr.totalCells-cells)
	}
	return p
}
