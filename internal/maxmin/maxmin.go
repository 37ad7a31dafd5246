// Package maxmin computes max-min fair rate allocations for networks of
// mixed single-rate and multi-rate multicast sessions, implementing the
// construction algorithm of Appendix A in Rubenstein/Kurose/Towsley
// (SIGCOMM '99).
//
// The algorithm is progressive filling: a "water level" rises uniformly
// across all still-active receivers; a receiver freezes when it reaches
// its session's maximum desired rate κ_i or when a link on its data-path
// becomes fully utilized; when a receiver of a single-rate session
// freezes, the whole session freezes (step 7 of the paper's algorithm).
// The resulting allocation is the unique max-min fair allocation for the
// network's session-type mapping Γ (Lemma 5 / Corollary 5 of the paper's
// technical report).
//
// Sessions may carry arbitrary link-rate ("redundancy") functions v_i
// (Section 3.1 of the paper); the allocator requires only that v_i be
// monotone and continuous and dominate max. When every session uses the
// efficient v_i = max, a closed-form step computation is used (exactly
// the paper's step 3); otherwise the step is found by bisection.
package maxmin

import (
	"errors"
	"fmt"
	"math"

	"mlfair/internal/netmodel"
)

// CauseKind classifies why a receiver's rate froze during filling.
type CauseKind int

const (
	// CauseLink means a fully utilized link on the receiver's data-path
	// stopped it.
	CauseLink CauseKind = iota
	// CauseMaxRate means the receiver reached its session's κ_i.
	CauseMaxRate
	// CauseSessionPeer means the receiver belongs to a single-rate
	// session in which some other receiver froze.
	CauseSessionPeer
)

// String names the cause.
func (k CauseKind) String() string {
	switch k {
	case CauseLink:
		return "bottleneck-link"
	case CauseMaxRate:
		return "max-desired-rate"
	case CauseSessionPeer:
		return "single-rate-peer"
	}
	return fmt.Sprintf("CauseKind(%d)", int(k))
}

// Cause explains one receiver's final rate.
type Cause struct {
	Kind CauseKind
	// Link is the saturating link index for CauseLink, or the peer's
	// bottleneck link for CauseSessionPeer; -1 for CauseMaxRate.
	Link int
	// Round is the filling iteration (0-based) at which the receiver froze.
	Round int
}

// Result is a max-min fair allocation plus per-receiver diagnostics.
type Result struct {
	Alloc *netmodel.Allocation
	// Causes records, for every receiver, why its rate stopped rising.
	Causes map[netmodel.ReceiverID]Cause
	// Rounds is the number of filling iterations performed.
	Rounds int
}

// ErrUnbounded is returned when some receiver's rate is bounded neither
// by a κ_i nor by any finite link capacity.
var ErrUnbounded = errors.New("maxmin: allocation unbounded (infinite capacity and no κ)")

// Allocate computes the max-min fair allocation of net. It never mutates
// the network. An error is returned only for unbounded inputs or if the
// filling fails to make progress (which indicates an invalid link-rate
// function, e.g. one that does not dominate max).
func Allocate(net *netmodel.Network) (*Result, error) {
	f := newFiller(net)
	return f.run()
}

// AllocateGeneric is Allocate with the closed-form fast path disabled:
// every step is computed by bisection against the sessions' link-rate
// functions. It exists to cross-check the fast path and to benchmark the
// cost of generality (see DESIGN.md ablations); outputs are identical
// within tolerance.
func AllocateGeneric(net *netmodel.Network) (*Result, error) {
	f := newFiller(net)
	f.forceGeneric = true
	return f.run()
}

// filler carries the mutable state of one progressive-filling run.
type filler struct {
	net          *netmodel.Network
	alloc        *netmodel.Allocation
	active       map[netmodel.ReceiverID]bool
	level        float64 // common normalized level of all active receivers
	causes       map[netmodel.ReceiverID]Cause
	forceGeneric bool
	// weights holds per-receiver weights for weighted max-min fairness
	// (AllocateWeighted); nil means uniform weight 1, in which case the
	// level is the common rate and the paper's closed-form step applies.
	weights [][]float64

	// scratch reused across rounds
	rateBuf []float64
}

// weight returns w_{i,k} (1 when unweighted).
func (f *filler) weight(i, k int) float64 {
	if f.weights == nil {
		return 1
	}
	return f.weights[i][k]
}

func newFiller(net *netmodel.Network) *filler {
	f := &filler{
		net:    net,
		alloc:  netmodel.NewAllocation(net),
		active: make(map[netmodel.ReceiverID]bool, net.NumReceivers()),
		causes: make(map[netmodel.ReceiverID]Cause, net.NumReceivers()),
	}
	for _, id := range net.ReceiverIDs() {
		f.active[id] = true
	}
	return f
}

func (f *filler) run() (*Result, error) {
	round := 0
	for len(f.active) > 0 {
		t, err := f.step()
		if err != nil {
			return nil, err
		}
		f.level += t
		for id := range f.active {
			f.alloc.SetRate(id.Session, id.Receiver, f.weight(id.Session, id.Receiver)*f.level)
		}
		removed := f.freeze(round)
		if removed == 0 {
			return nil, fmt.Errorf("maxmin: no progress at level %v after round %d (invalid link-rate function?)", f.level, round)
		}
		round++
	}
	return &Result{Alloc: f.alloc, Causes: f.causes, Rounds: round}, nil
}

// step returns the largest uniform increment t for the active receivers
// that keeps the allocation feasible (the sup of the paper's step 3).
func (f *filler) step() (float64, error) {
	// κ bound: a receiver's rate w·(level+t) may not exceed its
	// session's κ, so t <= κ/w - level.
	t := math.Inf(1)
	for id := range f.active {
		if slack := f.net.Session(id.Session).MaxRate/f.weight(id.Session, id.Receiver) - f.level; slack < t {
			t = slack
		}
	}
	if t < 0 {
		t = 0
	}
	if f.weights == nil && f.allMaxLinkRate() && !f.forceGeneric {
		return f.closedFormStep(t)
	}
	return f.bisectStep(t)
}

func (f *filler) allMaxLinkRate() bool {
	for _, s := range f.net.Sessions() {
		if s.LinkRate != nil {
			return false
		}
	}
	return true
}

// closedFormStep implements the paper's step 3 exactly: on each link the
// total rate rises with slope Σ_i δ_{i,j}(T) where δ is 1 if session i
// has an active receiver crossing the link.
func (f *filler) closedFormStep(t float64) (float64, error) {
	for j := 0; j < f.net.NumLinks(); j++ {
		slope := 0
		base := 0.0
		for _, sr := range f.net.OnLink(j) {
			hasActive := false
			frozenMax := 0.0
			for k := range sr.All() {
				if f.active[netmodel.ReceiverID{Session: sr.Session, Receiver: k}] {
					hasActive = true
				} else if r := f.alloc.Rate(sr.Session, k); r > frozenMax {
					frozenMax = r
				}
			}
			if hasActive {
				slope++
				base += f.level
			} else {
				base += frozenMax
			}
		}
		if slope == 0 {
			continue
		}
		tj := (f.net.Capacity(j) - base) / float64(slope)
		if tj < 0 {
			tj = 0
		}
		if tj < t {
			t = tj
		}
	}
	if math.IsInf(t, 1) {
		return 0, ErrUnbounded
	}
	return t, nil
}

// bisectStep finds the sup increment by bisection against arbitrary
// monotone link-rate functions.
func (f *filler) bisectStep(kappaBound float64) (float64, error) {
	// Upper bound: since every v_i dominates max, on any link crossed by
	// an active receiver of weight w, u_j >= w·(level + t), so
	// t <= c_j/w - level.
	hi := kappaBound
	for j := 0; j < f.net.NumLinks(); j++ {
		if w := f.maxActiveWeight(j); w > 0 {
			if b := f.net.Capacity(j)/w - f.level; b < hi {
				hi = b
			}
		}
	}
	if math.IsInf(hi, 1) {
		return 0, ErrUnbounded
	}
	if hi <= 0 {
		return 0, nil
	}
	if f.feasibleAt(hi) {
		return hi, nil
	}
	lo := 0.0
	for iter := 0; iter < 200 && hi-lo > 1e-13*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if f.feasibleAt(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// maxActiveWeight returns the largest weight among active receivers
// crossing link j, or 0 when none is active there.
func (f *filler) maxActiveWeight(j int) float64 {
	w := 0.0
	for _, sr := range f.net.OnLink(j) {
		for k := range sr.All() {
			if f.active[netmodel.ReceiverID{Session: sr.Session, Receiver: k}] {
				if x := f.weight(sr.Session, k); x > w {
					w = x
				}
			}
		}
	}
	return w
}

// feasibleAt reports whether raising all active receivers by t keeps
// every link within capacity.
func (f *filler) feasibleAt(t float64) bool {
	for j := 0; j < f.net.NumLinks(); j++ {
		u := 0.0
		for _, sr := range f.net.OnLink(j) {
			u += f.sessionLinkRateAt(sr, t)
		}
		if u > f.net.Capacity(j)+1e-15 {
			return false
		}
	}
	return true
}

func (f *filler) sessionLinkRateAt(sr netmodel.SessionReceivers, t float64) float64 {
	f.rateBuf = f.rateBuf[:0]
	for k := range sr.All() {
		r := f.alloc.Rate(sr.Session, k)
		if f.active[netmodel.ReceiverID{Session: sr.Session, Receiver: k}] {
			r = f.weight(sr.Session, k) * (f.level + t)
		}
		f.rateBuf = append(f.rateBuf, r)
	}
	return f.net.Session(sr.Session).EffectiveLinkRate(f.rateBuf)
}

// freeze removes receivers that can rise no further (steps 6 and 7),
// recording causes. It returns the number of receivers frozen.
func (f *filler) freeze(round int) int {
	// Saturated links.
	saturated := make([]bool, f.net.NumLinks())
	for j := 0; j < f.net.NumLinks(); j++ {
		u := 0.0
		for _, sr := range f.net.OnLink(j) {
			u += f.sessionLinkRateAt(sr, 0)
		}
		saturated[j] = netmodel.Geq(u, f.net.Capacity(j))
	}
	var frozen []netmodel.ReceiverID
	for id := range f.active {
		s := f.net.Session(id.Session)
		if netmodel.Geq(f.weight(id.Session, id.Receiver)*f.level, s.MaxRate) {
			f.causes[id] = Cause{Kind: CauseMaxRate, Link: -1, Round: round}
			frozen = append(frozen, id)
			continue
		}
		for _, j := range f.net.Path(id.Session, id.Receiver) {
			if saturated[j] {
				f.causes[id] = Cause{Kind: CauseLink, Link: j, Round: round}
				frozen = append(frozen, id)
				break
			}
		}
	}
	for _, id := range frozen {
		delete(f.active, id)
	}
	// Step 7: single-rate cascade.
	n := len(frozen)
	for _, id := range frozen {
		if f.net.Session(id.Session).Type != netmodel.SingleRate {
			continue
		}
		link := f.causes[id].Link
		for k := 0; k < f.net.Session(id.Session).NumReceivers(); k++ {
			peer := netmodel.ReceiverID{Session: id.Session, Receiver: k}
			if f.active[peer] {
				delete(f.active, peer)
				f.causes[peer] = Cause{Kind: CauseSessionPeer, Link: link, Round: round}
				n++
			}
		}
	}
	return n
}
