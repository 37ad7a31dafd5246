package netsim

import (
	"fmt"
	"math"
)

// DefaultProbeMaxSamples is the ring capacity used when
// ProbeConfig.MaxSamples is zero.
const DefaultProbeMaxSamples = 1024

// ProbeConfig turns on the engine's streaming observation windows: the
// run is cut into sampling windows (by virtual time or by sender
// packet count) and at each window close the engine records, into
// preallocated ring buffers, every receiver's delivered-packet count
// and subscription level plus every link's crossing count for the
// window. Probing is pure measurement: it draws no randomness,
// schedules no events and allocates nothing on the hot path, so a
// Config's dynamics — and every non-Probe Result field — are
// bit-identical with probes on or off.
//
// Window convention: a sample closing at time b covers (start, b] —
// events at exactly b count in the window closing at b (the boundary
// is flushed when the engine first advances strictly past it, or at
// the end of the run). The final sample is the partial tail window
// closing at Duration, so the windows always partition the run: the
// per-receiver deliveries and per-link crossings summed over samples
// equal the Result's cumulative counters exactly (when nothing was
// dropped by the ring). Windowed rates are always computed against
// the window's actual duration, so the tail sample needs no special
// handling downstream.
type ProbeConfig struct {
	// Window closes a sample at every multiple of this virtual-time
	// period. Exactly one of Window and PacketWindow must be positive.
	Window float64
	// PacketWindow closes a sample every this many sender transmissions
	// (counted across all sessions).
	PacketWindow int
	// MaxSamples caps the retained samples (0 = DefaultProbeMaxSamples).
	// When the run produces more windows than this, the ring keeps the
	// most recent MaxSamples and ProbeSeries.Dropped counts the rest.
	MaxSamples int
}

func (p *ProbeConfig) validate() error {
	if p.Window < 0 || math.IsNaN(p.Window) || math.IsInf(p.Window, 0) {
		return fmt.Errorf("netsim: probe window = %v", p.Window)
	}
	if p.PacketWindow < 0 {
		return fmt.Errorf("netsim: probe packet window = %d", p.PacketWindow)
	}
	if (p.Window > 0) == (p.PacketWindow > 0) {
		return fmt.Errorf("netsim: probe needs exactly one of Window (%v) and PacketWindow (%d) positive", p.Window, p.PacketWindow)
	}
	if p.MaxSamples < 0 {
		return fmt.Errorf("netsim: probe max samples = %d", p.MaxSamples)
	}
	return nil
}

// probeState is the engine-side probe: all buffers are preallocated in
// newEngineFor (ring slots for cap samples over R receivers and L links,
// plus last-flush snapshots), so a window flush performs zero
// allocations — it only diffs the engine's cumulative counters against
// the previous flush.
type probeState struct {
	timeWindow float64
	pktWindow  int
	next       float64 // next time-mode boundary
	nextPkt    int     // next packet-mode boundary (sender transmissions)

	cap      int
	count    int     // total samples flushed (ring wraps past cap)
	lastTime float64 // close time of the previous sample

	numRecv  int
	numLinks int
	recvOff  []int32 // [session] flat receiver offset

	// Ring storage, slot = sample % cap.
	times     []float64
	starts    []float64
	recvDelta []int64 // [cap*R] delivered in window
	levels    []int32 // [cap*R] subscription level at window close
	linkDelta []int64 // [cap*L] crossings in window

	// Cumulative snapshots at the last flush.
	lastRecv []int64 // [R]
	lastLink []int64 // [L]
	linkCum  []int64 // [L] scratch for the current totals
}

func newProbeState(cfg *ProbeConfig, e *engine) *probeState {
	p := &probeState{
		timeWindow: cfg.Window,
		pktWindow:  cfg.PacketWindow,
		next:       cfg.Window,
		nextPkt:    cfg.PacketWindow,
		cap:        cfg.MaxSamples,
		numLinks:   e.net.NumLinks(),
		recvOff:    make([]int32, len(e.sess)),
	}
	if p.cap == 0 {
		p.cap = DefaultProbeMaxSamples
	}
	if p.pktWindow > 0 {
		// Packet-mode sample count is known up front (boundaries plus the
		// tail flush); a ring that never wraps can be sized exactly.
		if need := e.cfg.Packets/p.pktWindow + 2; need < p.cap {
			p.cap = need
		}
	}
	off := int32(0)
	for i := range e.sess {
		p.recvOff[i] = off
		off += int32(len(e.sess[i].received))
	}
	p.numRecv = int(off)
	p.times = make([]float64, p.cap)
	p.starts = make([]float64, p.cap)
	p.recvDelta = make([]int64, p.cap*p.numRecv)
	p.levels = make([]int32, p.cap*p.numRecv)
	p.linkDelta = make([]int64, p.cap*p.numLinks)
	p.lastRecv = make([]int64, p.numRecv)
	p.lastLink = make([]int64, p.numLinks)
	p.linkCum = make([]int64, p.numLinks)
	return p
}

// advanceTime flushes every time-mode boundary strictly before t.
// Called before the engine applies the event (or transmissions) at t,
// so a window closing at b contains exactly the events in (start, b]
// — events at the boundary itself are applied after this call and
// flush with the NEXT advance (or with the end-of-run tail), never
// silently between windows.
func (p *probeState) advanceTime(e *engine, t float64) {
	for p.timeWindow > 0 && p.next < t {
		p.flush(e, p.next)
		p.next += p.timeWindow
	}
}

// advancePackets flushes a packet-mode boundary once the sender
// transmission counter reaches it. Called after each transmission.
func (p *probeState) advancePackets(e *engine, t float64) {
	if p.pktWindow > 0 && e.sent >= p.nextPkt {
		p.flush(e, t)
		p.nextPkt += p.pktWindow
	}
}

// finish flushes the tail window. Because advanceTime only flushes
// boundaries strictly below the engine's time, the last flush always
// lies strictly before e.now when any transmission fired after it, so
// the tail flush picks up the final tick's deliveries even when the
// run ends exactly on a window boundary.
func (p *probeState) finish(e *engine) {
	if e.now > p.lastTime || p.count == 0 {
		p.flush(e, e.now)
	}
}

// flush closes one window at time t: records, into the next ring slot,
// the deltas of every cumulative engine counter since the previous
// flush. Allocation-free.
func (p *probeState) flush(e *engine, t float64) {
	slot := p.count % p.cap
	p.times[slot] = t
	p.starts[slot] = p.lastTime
	rBase := slot * p.numRecv
	for i := range e.sess {
		s := &e.sess[i]
		off := int(p.recvOff[i])
		for k := range s.received {
			cur := int64(s.delivered(k))
			p.recvDelta[rBase+off+k] = cur - p.lastRecv[off+k]
			p.lastRecv[off+k] = cur
			p.levels[rBase+off+k] = s.levels[k]
		}
	}
	cum := p.linkCum
	for j := range cum {
		cum[j] = 0
	}
	for i := range e.sess {
		s := &e.sess[i]
		for eid := range s.hot {
			cum[s.hot[eid].link] += s.crossed[eid]
		}
	}
	lBase := slot * p.numLinks
	for j := range cum {
		p.linkDelta[lBase+j] = cum[j] - p.lastLink[j]
		p.lastLink[j] = cum[j]
	}
	p.count++
	p.lastTime = t
}

// mergeProbes assembles the run's ProbeSeries from its engines' probe
// rings (the one allocation probing performs, at result time). Every
// group flushed the identical time-window boundary grid (drainTo
// advances each probe to the shared horizon before finish adds the
// common tail), so the rings align sample-for-sample: sample s covers
// the same (start, close] interval in every group. Receivers are
// scattered into global session offsets (each receiver lives in exactly
// one group); link crossings are summed across groups (each link is
// crossed by at most one group's sessions, the rest contribute zeros).
func mergeProbes(cfg Config, engines []*engine) *ProbeSeries {
	net := cfg.Network
	S := net.NumSessions()
	base := engines[0].probe
	n := base.count
	if n > base.cap {
		n = base.cap
	}
	recvOff := make([]int32, S)
	off := int32(0)
	for i := 0; i < S; i++ {
		recvOff[i] = off
		off += int32(net.Session(i).NumReceivers())
	}
	numRecv := int(off)
	nL := net.NumLinks()
	ps := &ProbeSeries{
		Times:     make([]float64, n),
		Starts:    make([]float64, n),
		Dropped:   base.count - n,
		numLinks:  nL,
		numRecv:   numRecv,
		recvOff:   recvOff,
		recvDelta: make([]int64, n*numRecv),
		levels:    make([]int32, n*numRecv),
		linkDelta: make([]int64, n*nL),
		caps:      make([]float64, nL),
	}
	for j := 0; j < nL; j++ {
		ps.caps[j] = net.Capacity(j)
	}
	first := base.count - n // oldest retained sample, identical per group
	for s := 0; s < n; s++ {
		slot := (first + s) % base.cap
		ps.Times[s] = base.times[slot]
		ps.Starts[s] = base.starts[slot]
	}
	for _, e := range engines {
		p := e.probe
		for s := 0; s < n; s++ {
			slot := (first + s) % p.cap
			rBase := slot * p.numRecv
			gBase := s * numRecv
			for li := range e.sess {
				gi := e.gsess[li]
				lo := rBase + int(p.recvOff[li])
				gl := gBase + int(recvOff[gi])
				cnt := len(e.sess[li].received)
				copy(ps.recvDelta[gl:gl+cnt], p.recvDelta[lo:lo+cnt])
				copy(ps.levels[gl:gl+cnt], p.levels[lo:lo+cnt])
			}
			lBase := slot * p.numLinks
			gl := s * nL
			for j := 0; j < nL; j++ {
				ps.linkDelta[gl+j] += p.linkDelta[lBase+j]
			}
		}
	}
	return ps
}

// ProbeSeries is the run's retained observation windows in
// chronological order — the time-resolved view the timeseries and
// convergence stages consume. Sample s covers (Starts[s], Times[s]]:
// an event exactly at a boundary counts in the window closing there
// (see ProbeConfig).
type ProbeSeries struct {
	// Times[s] is sample s's window close time; Starts[s] its start.
	Times  []float64
	Starts []float64
	// Dropped counts the oldest windows the ring overwrote (0 unless the
	// run produced more than MaxSamples windows).
	Dropped int

	numLinks  int
	numRecv   int
	recvOff   []int32
	recvDelta []int64
	levels    []int32
	linkDelta []int64
	caps      []float64
}

// NumSamples returns the retained window count.
func (p *ProbeSeries) NumSamples() int { return len(p.Times) }

// NumSessions returns the probed run's session count.
func (p *ProbeSeries) NumSessions() int { return len(p.recvOff) }

// NumReceivers returns session i's receiver count.
func (p *ProbeSeries) NumReceivers(i int) int {
	if i+1 < len(p.recvOff) {
		return int(p.recvOff[i+1] - p.recvOff[i])
	}
	return p.numRecv - int(p.recvOff[i])
}

// NumLinks returns the probed run's link count.
func (p *ProbeSeries) NumLinks() int { return p.numLinks }

// window returns sample s's duration (0 for degenerate same-instant
// windows, whose rates read as 0).
func (p *ProbeSeries) window(s int) float64 { return p.Times[s] - p.Starts[s] }

func (p *ProbeSeries) rid(i, k int) int { return int(p.recvOff[i]) + k }

// ReceiverDelivered returns receiver r_{i,k}'s delivered-packet count
// in sample s.
func (p *ProbeSeries) ReceiverDelivered(i, k, s int) int {
	return int(p.recvDelta[s*p.numRecv+p.rid(i, k)])
}

// ReceiverRate returns r_{i,k}'s windowed goodput in sample s
// (packets per time unit).
func (p *ProbeSeries) ReceiverRate(i, k, s int) float64 {
	w := p.window(s)
	if w <= 0 {
		return 0
	}
	return float64(p.recvDelta[s*p.numRecv+p.rid(i, k)]) / w
}

// Level returns r_{i,k}'s subscription level at sample s's close
// (0 while departed by churn).
func (p *ProbeSeries) Level(i, k, s int) int {
	return int(p.levels[s*p.numRecv+p.rid(i, k)])
}

// LinkCrossed returns link j's crossing count (all sessions, admitted
// or dropped — bandwidth consumed) in sample s.
func (p *ProbeSeries) LinkCrossed(j, s int) int {
	return int(p.linkDelta[s*p.numLinks+j])
}

// LinkRate returns link j's windowed crossing rate in sample s.
func (p *ProbeSeries) LinkRate(j, s int) float64 {
	w := p.window(s)
	if w <= 0 {
		return 0
	}
	return float64(p.linkDelta[s*p.numLinks+j]) / w
}

// LinkUtilization returns link j's windowed crossing rate over its
// capacity (0 for infinite-capacity links).
func (p *ProbeSeries) LinkUtilization(j, s int) float64 {
	c := p.caps[j]
	if c <= 0 || math.IsInf(c, 1) {
		return 0
	}
	return p.LinkRate(j, s) / c
}
