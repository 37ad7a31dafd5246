package netsim

import (
	"fmt"
	"math"
)

// LinkKind selects the loss/queue discipline of one link.
type LinkKind int

const (
	// Perfect links never lose packets and add no delay.
	Perfect LinkKind = iota
	// Bernoulli links drop each entering packet independently with
	// probability Loss — the paper's exogenous Section 4 loss model, on
	// the star (Star) and on loss trees.
	Bernoulli
	// Capacity links drop with probability max(0, (D-C)/D) where D is the
	// instantaneous fluid demand of all sessions (plus background load) on
	// the link and C its capacity — the fluid limit of a droptail queue,
	// so loss emerges from congestion (CapacityStar's closed loop) on a
	// general graph.
	Capacity
	// DropTail links model a finite FIFO queue served at rate Capacity
	// with Buffer waiting slots and propagation delay Delay: a packet
	// arriving to a full buffer is dropped; otherwise it departs one
	// service time after the previous departure (or after its arrival)
	// and reaches the far end Delay later.
	DropTail
)

// String names the kind.
func (k LinkKind) String() string {
	switch k {
	case Perfect:
		return "perfect"
	case Bernoulli:
		return "bernoulli"
	case Capacity:
		return "capacity"
	case DropTail:
		return "droptail"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// LinkSpec configures one link's model. The zero value is a Perfect link.
type LinkSpec struct {
	Kind LinkKind
	// Loss is the Bernoulli drop probability (Bernoulli only).
	Loss float64
	// LayerLoss, when non-nil, gives layer-dependent Bernoulli drop
	// probabilities (Bernoulli only; overrides Loss): a layer-l packet is
	// dropped with probability LayerLoss[l], clamped to the last entry
	// for deeper layers. This is the priority-dropping lever (Bajaj/
	// Breslau/Shenker; see PriorityDrop): rising tables sacrifice
	// enhancement layers to protect the base layer.
	LayerLoss []float64
	// Capacity is the service/fluid rate in packets per time unit
	// (Capacity and DropTail). Zero means "use the graph's link
	// capacity".
	Capacity float64
	// Buffer is the DropTail waiting-room size in packets (the packet in
	// service does not occupy a slot). Zero means 16.
	Buffer int
	// Delay is the propagation delay in time units (DropTail only; the
	// other kinds deliver instantly, matching the paper's idealization).
	Delay float64
	// Background is a constant competing load in packets per time unit —
	// cross traffic à la the TCP-over-ABR/UBR studies. It inflates the
	// fluid demand of Capacity links and steals service rate from
	// DropTail links. Ignored by Perfect and Bernoulli links.
	Background float64
}

func (s LinkSpec) validate(j int, graphCap float64) error {
	// Comparisons are written so NaN fails them: a NaN loss, capacity,
	// delay, or background must be rejected, not silently admitted (the
	// fuzz targets drive raw float bits through here).
	switch s.Kind {
	case Perfect:
	case Bernoulli:
		if !(s.Loss >= 0 && s.Loss < 1) {
			return fmt.Errorf("netsim: link %d loss %v outside [0,1)", j, s.Loss)
		}
		for l, p := range s.LayerLoss {
			if !(p >= 0 && p < 1) {
				return fmt.Errorf("netsim: link %d layer-%d loss %v outside [0,1)", j, l, p)
			}
		}
	case Capacity, DropTail:
		if c := s.effCapacity(graphCap); !(c > 0) || math.IsInf(c, 0) {
			return fmt.Errorf("netsim: link %d needs a positive finite capacity, has %v", j, c)
		}
		if s.Buffer < 0 {
			return fmt.Errorf("netsim: link %d buffer %d", j, s.Buffer)
		}
		if !(s.Delay >= 0) || math.IsInf(s.Delay, 0) {
			return fmt.Errorf("netsim: link %d delay %v", j, s.Delay)
		}
	default:
		return fmt.Errorf("netsim: link %d has unknown kind %v", j, s.Kind)
	}
	if s.LayerLoss != nil && s.Kind != Bernoulli {
		return fmt.Errorf("netsim: link %d sets LayerLoss on a %v link (Bernoulli only)", j, s.Kind)
	}
	if s.LayerLoss != nil && len(s.LayerLoss) == 0 {
		return fmt.Errorf("netsim: link %d has an empty LayerLoss table", j)
	}
	if !(s.Background >= 0) || math.IsInf(s.Background, 0) {
		return fmt.Errorf("netsim: link %d background %v", j, s.Background)
	}
	return nil
}

func (s LinkSpec) effCapacity(graphCap float64) float64 {
	if s.Capacity > 0 {
		return s.Capacity
	}
	return graphCap
}

// CapacityLinks returns an all-Capacity spec slice for n links, each
// using its graph capacity.
func CapacityLinks(n int) []LinkSpec {
	specs := make([]LinkSpec, n)
	for j := range specs {
		specs[j] = LinkSpec{Kind: Capacity}
	}
	return specs
}

// capDemand is one link's capacity-admission row: the engine keeps
// these in a dense slice (engine.capDem) indexed by link, plus one
// sentinel row with infinite capacity that non-Capacity edges alias,
// so the admission test and the incremental demand maintenance each
// touch a single 24-byte record.
type capDemand struct {
	dem float64 // current fluid demand of all sessions on the link
	bg  float64 // constant background load (LinkSpec.Background)
	cap float64 // resolved capacity
}

// linkState is one link's mutable run state. The engine keeps all links
// in one flat value slice (only DropTail links hold an extra ring
// allocation), so admission touches contiguous memory.
type linkState struct {
	spec LinkSpec
	cap  float64 // resolved capacity (graph fallback applied)
	buf  int     // resolved DropTail buffer (zero-default applied)

	// DropTail queue: departure time of the most recent admitted packet
	// and the number of admitted packets not yet departed.
	lastDepart float64
	queued     int
	departures []float64 // ring of pending departure times
	head       int
}

// admitQueue decides the fate of a packet entering a DropTail link at
// time now: either it is dropped at a full buffer, or it departs one
// service time after the previous departure (or its arrival) and
// reaches the far end Delay later — fully deterministic, no randomness.
// The instant link kinds (Perfect, Bernoulli, Capacity) are decided
// inline on the engine's forwarding fast path and never reach here.
func (l *linkState) admitQueue(now float64) (exit float64, dropped bool) {
	// Expire departures that happened before this arrival.
	for l.queued > 0 && l.departures[l.head] <= now {
		l.head = (l.head + 1) % len(l.departures)
		l.queued--
	}
	if l.queued > l.buf {
		return now, true
	}
	rate := l.cap - l.spec.Background
	if rate <= 0 {
		// Background saturates the server: nothing gets through.
		return now, true
	}
	depart := now + 1/rate
	if l.lastDepart+1/rate > depart {
		depart = l.lastDepart + 1/rate
	}
	l.lastDepart = depart
	tail := (l.head + l.queued) % len(l.departures)
	l.departures[tail] = depart
	l.queued++
	return depart + l.spec.Delay, false
}

func newLinkState(spec LinkSpec, graphCap float64) linkState {
	l := linkState{spec: spec, cap: spec.effCapacity(graphCap)}
	if spec.Kind == DropTail {
		l.buf = spec.Buffer
		if l.buf == 0 {
			l.buf = 16
		}
		// One service slot + buffer waiting slots + slack so the ring
		// never wraps onto live entries.
		l.departures = make([]float64, l.buf+2)
	}
	return l
}
