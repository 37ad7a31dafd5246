package maxmin

import (
	"fmt"
	"sort"

	"mlfair/internal/netmodel"
)

// Weights assigns a positive weight to every receiver, shaped like the
// network's sessions: Weights[i][k] is w_{i,k}.
//
// Weighted max-min fairness is the Section 5 ("future work") extension
// the paper sketches for TCP-fairness: weighting each receiver's rate by
// the inverse of its round-trip time makes the max-min fair allocation
// approximate the bandwidth shares TCP's congestion avoidance converges
// to (Mahdavi/Floyd). Formally, an allocation is weighted max-min fair
// iff the vector of normalized rates a_{i,k}/w_{i,k} is max-min fair in
// the Definition 1 sense, computed by progressive filling of a common
// normalized level.
type Weights [][]float64

// UniformWeights returns all-ones weights for net.
func UniformWeights(net *netmodel.Network) Weights {
	w := make(Weights, net.NumSessions())
	for i, s := range net.Sessions() {
		w[i] = make([]float64, s.NumReceivers())
		for k := range w[i] {
			w[i][k] = 1
		}
	}
	return w
}

// InverseRTTWeights builds weights 1/rtt_{i,k} from per-receiver
// round-trip times, the TCP-fairness choice.
func InverseRTTWeights(rtts [][]float64) Weights {
	w := make(Weights, len(rtts))
	for i, rs := range rtts {
		w[i] = make([]float64, len(rs))
		for k, rtt := range rs {
			if rtt <= 0 {
				panic("maxmin: non-positive RTT")
			}
			w[i][k] = 1 / rtt
		}
	}
	return w
}

func (w Weights) validate(net *netmodel.Network) error {
	if len(w) != net.NumSessions() {
		return fmt.Errorf("maxmin: %d weight groups for %d sessions", len(w), net.NumSessions())
	}
	for i, s := range net.Sessions() {
		if len(w[i]) != s.NumReceivers() {
			return fmt.Errorf("maxmin: session %d: %d weights for %d receivers", i, len(w[i]), s.NumReceivers())
		}
		for k, x := range w[i] {
			if !(x > 0) {
				return fmt.Errorf("maxmin: session %d receiver %d has non-positive weight %v", i, k, x)
			}
			// Single-rate sessions must deliver equal rates, which is
			// incompatible with unequal weights within the session.
			if s.Type == netmodel.SingleRate && !netmodel.Eq(x, w[i][0]) {
				return fmt.Errorf("maxmin: single-rate session %d has unequal weights %v and %v", i, w[i][0], x)
			}
		}
	}
	return nil
}

// AllocateWeighted computes the weighted max-min fair allocation: the
// allocation whose normalized rate vector (a_{i,k}/w_{i,k}) is max-min
// fair. nil weights mean uniform (plain Allocate). The step computation
// always uses bisection, since link rates are no longer uniform in the
// fill level.
func AllocateWeighted(net *netmodel.Network, w Weights) (*Result, error) {
	if w == nil {
		return Allocate(net)
	}
	if err := w.validate(net); err != nil {
		return nil, err
	}
	flat := make([]float64, 0, net.NumReceivers())
	for _, ws := range w {
		flat = append(flat, ws...)
	}
	return allocate(net, true, flat)
}

// NormalizedVector returns the ordered vector of a_{i,k}/w_{i,k}, the
// quantity the weighted allocation equalizes; compare allocations with
// vecorder as for the unweighted case.
func NormalizedVector(a *netmodel.Allocation, w Weights) []float64 {
	out := make([]float64, 0, a.Network().NumReceivers())
	for i := range w {
		for k, x := range w[i] {
			out = append(out, a.Rate(i, k)/x)
		}
	}
	sort.Float64s(out)
	return out
}
