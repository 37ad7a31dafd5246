package main

import (
	"runtime"
	"syscall"
	"time"

	"mlfair/internal/netsim"
)

// Indexes into counters: the engine's EngineStats counters, the Go
// runtime's allocation and GC tallies, and the process CPU clock.
const (
	cRuns = iota
	cEvents
	cTransmissions
	cTicks
	cCrossings
	cDrops
	cDeliveries
	cForward
	cChurn
	cSignal
	cProbeWindows
	cProbeDropped
	cMallocs
	cGCCycles
	cGCPauseNs
	cCPUNs
	nCounters
)

// counters is one boundary snapshot, or the difference of two.
type counters [nCounters]int64

func (a counters) sub(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func (a counters) add(b counters) (s counters) {
	for i := range a {
		s[i] = a[i] + b[i]
	}
	return s
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot reads every counter at one boundary, plus the runtime's
// HeapSys. runtime.ReadMemStats stops the world, which is why only
// traced jobs take snapshots.
func snapshot(st *netsim.EngineStats) (counters, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cRuns: st.Runs.Load(), cEvents: st.Events.Load(),
		cTransmissions: st.Transmissions.Load(), cTicks: st.CalendarTicks.Load(),
		cCrossings: st.Crossings.Load(), cDrops: st.Drops.Load(),
		cDeliveries: st.Deliveries.Load(), cForward: st.ForwardEvents.Load(),
		cChurn: st.ChurnEvents.Load(), cSignal: st.SignalEvents.Load(),
		cProbeWindows: st.ProbeWindows.Load(), cProbeDropped: st.ProbeDropped.Load(),
		cMallocs: int64(ms.Mallocs), cGCCycles: int64(ms.NumGC), cGCPauseNs: int64(ms.PauseTotalNs),
		cCPUNs: int64(processCPU()),
	}, ms.HeapSys
}

// span is one call the benchmark made into a layer's public function.
// Its name is "<layer>.<operation>". Probe spans are calls made after
// the job's checked output only to isolate one layer (a one-packet
// run, a one-worker twin, an engine replay): they are reported per
// layer but lie outside the job's wall time.
type span struct {
	name       string
	parent     int
	probe      bool
	start, end time.Duration
	delta      counters
}

// tracer records spans around the benchmark's calls into the program.
// A disabled tracer only makes the calls, so an untraced job runs the
// same call sequence with no clock reads or snapshots of its own.
type tracer struct {
	on      bool
	stats   *netsim.EngineStats
	t0      time.Time
	spans   []span
	stack   []int
	probe   bool
	heapSys uint64
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	before, _ := snapshot(t.stats)
	t.spans = append(t.spans, span{name: name, parent: parent, probe: t.probe, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	after, heapSys := snapshot(t.stats)
	sp := &t.spans[id]
	sp.end = time.Since(t.t0)
	sp.delta = after.sub(before)
	t.heapSys = max(t.heapSys, heapSys)
	return err
}

// selfTimes returns, per span name, the summed self time of the job's
// spans and of the probe spans: each span's duration minus the part
// of it that its direct children cover.
func (t *tracer) selfTimes() (job, probe map[string]float64) {
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	job, probe = map[string]float64{}, map[string]float64{}
	for i, d := range self {
		m := job
		if t.spans[i].probe {
			m = probe
		}
		m[t.spans[i].name] += d.Seconds()
	}
	return job, probe
}

// sum adds up the counter deltas and wall durations of every span
// named name.
func (t *tracer) sum(name string) (c counters, wall time.Duration) {
	for _, sp := range t.spans {
		if sp.name == name {
			c = c.add(sp.delta)
			wall += sp.end - sp.start
		}
	}
	return c, wall
}
