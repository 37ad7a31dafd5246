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
//
// The filling is implemented once, by Incremental over flat per-link
// index arrays: Allocate, AllocateGeneric and AllocateWeighted are its
// first Fill, and Timeline (like dynamics.Replay) refills it after
// membership changes. Receivers are visited in index order, so the
// output, causes included, is a pure function of the network.
package maxmin

import (
	"errors"
	"fmt"

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
	// Causes[i][k] records why receiver r_{i,k}'s rate stopped rising.
	Causes [][]Cause
	// Rounds is the number of filling iterations performed.
	Rounds int
}

// ErrUnbounded is returned when some receiver's rate is bounded neither
// by a κ_i nor by any finite link capacity.
var ErrUnbounded = errors.New("maxmin: allocation unbounded (infinite capacity and no κ)")

// Allocate computes the max-min fair allocation of net: the first Fill
// of an Incremental over the whole network. It never mutates the
// network. An error is returned only for unbounded inputs or if the
// filling fails to make progress (which indicates an invalid link-rate
// function, e.g. one that does not dominate max).
func Allocate(net *netmodel.Network) (*Result, error) {
	return allocate(net, false, nil)
}

// AllocateGeneric is Allocate with the closed-form fast path disabled:
// every step is computed by bisection against the sessions' link-rate
// functions. It exists to cross-check the fast path and to benchmark the
// cost of generality (BenchmarkAllocateGenericBisection); outputs are
// identical within tolerance.
func AllocateGeneric(net *netmodel.Network) (*Result, error) {
	return allocate(net, true, nil)
}

// allocate fills net once from zero. weights is nil for the paper's
// unweighted fill, or holds w_{i,k} flat in receiver order.
func allocate(net *netmodel.Network, generic bool, weights []float64) (*Result, error) {
	inc, err := NewIncremental(net)
	if err != nil {
		return nil, err
	}
	inc.generic = inc.generic || generic
	inc.weights = weights
	if err := inc.Fill(); err != nil {
		return nil, err
	}
	res := &Result{Alloc: netmodel.NewAllocation(net), Causes: make([][]Cause, net.NumSessions()), Rounds: inc.rounds}
	for i := range res.Causes {
		lo, hi := inc.off[i], inc.off[i+1]
		res.Causes[i] = inc.causes[lo:hi:hi]
		for k, r := range inc.rates[lo:hi] {
			res.Alloc.SetRate(i, k, r)
		}
	}
	return res, nil
}
