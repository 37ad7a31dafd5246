// Package fairness implements checkers for the four desirable fairness
// properties of Section 2.1 of Rubenstein/Kurose/Towsley (SIGCOMM '99),
// plus the two classical unicast max-min properties they generalize.
//
// All checkers operate on a netmodel.Allocation and use the shared
// tolerance helpers; "fully utilized" means u_j >= c_j - Eps.
//
// Properties (paper numbering):
//
//  1. Fully-utilized-receiver-fairness: each receiver is at its session's
//     κ or crosses a fully utilized link on which no receiver (of any
//     session) receives more than it.
//  2. Same-path-receiver-fairness: receivers with identical data-paths
//     have equal rates unless one is pinned at its κ below the other.
//  3. Per-receiver-link-fairness: each receiver is at κ or crosses a
//     fully utilized link on which its session's link rate is no smaller
//     than any other session's.
//  4. Per-session-link-fairness: each session has all receivers at κ or
//     some fully utilized link on its data-path where its link rate is no
//     smaller than any other session's.
package fairness

import (
	"fmt"

	"mlfair/internal/netmodel"
)

// Witness records why a property holds for one receiver or session: the
// index of a qualifying fully utilized link, or -1 when the property
// holds because the rate is pinned at κ.
type Witness struct {
	// Link is the qualifying fully utilized link, or -1 for a κ witness.
	Link int
}

// PairViolation reports a same-path-receiver-fairness failure: two
// receivers whose data-paths traverse the same link set (the property's
// hypothesis — every pair reported here shares one) ended with
// different rates, neither excused by a κ pin.
type PairViolation struct {
	A, B         netmodel.ReceiverID
	RateA, RateB float64
}

func (v PairViolation) String() string {
	return fmt.Sprintf("same-path pair %v/%v: rates %.4g vs %.4g differ", v.A, v.B, v.RateA, v.RateB)
}

// ReceiverFullyUtilizedFair checks Fairness Property 1 for one receiver:
// a_{i,k} = κ_i, or some fully utilized link l_j on its data-path has
// a_{i',k'} <= a_{i,k} for every receiver crossing l_j.
func ReceiverFullyUtilizedFair(a *netmodel.Allocation, id netmodel.ReceiverID) (Witness, bool) {
	net := a.Network()
	rate := a.RateOf(id)
	if netmodel.Geq(rate, net.Session(id.Session).MaxRate) {
		return Witness{Link: -1}, true
	}
	for _, j := range net.Path(id.Session, id.Receiver) {
		if !a.FullyUtilized(j) {
			continue
		}
		ok := true
		for _, sr := range net.OnLink(j) {
			for k := range sr.All() {
				if netmodel.Greater(a.Rate(sr.Session, k), rate) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return Witness{Link: j}, true
		}
	}
	return Witness{}, false
}

// ReceiverPerReceiverLinkFair checks the per-receiver clause of Fairness
// Property 3 for one receiver: a_{i,k} = κ_i, or some fully utilized
// link l_j on its data-path has u_{i',j} <= u_{i,j} for every other
// session i'.
func ReceiverPerReceiverLinkFair(a *netmodel.Allocation, id netmodel.ReceiverID) (Witness, bool) {
	net := a.Network()
	if netmodel.Geq(a.RateOf(id), net.Session(id.Session).MaxRate) {
		return Witness{Link: -1}, true
	}
	for _, j := range net.Path(id.Session, id.Receiver) {
		if sessionDominatesLink(a, id.Session, j) {
			return Witness{Link: j}, true
		}
	}
	return Witness{}, false
}

// sessionDominatesLink reports whether l_j is fully utilized and session
// i's link rate there is >= every other session's.
func sessionDominatesLink(a *netmodel.Allocation, i, j int) bool {
	if !a.FullyUtilized(j) {
		return false
	}
	ui := a.SessionLinkRate(i, j)
	for _, sr := range a.Network().OnLink(j) {
		if sr.Session == i {
			continue
		}
		if netmodel.Greater(a.SessionLinkRate(sr.Session, j), ui) {
			return false
		}
	}
	return true
}

// SessionPerSessionLinkFair checks Fairness Property 4 for one session:
// every receiver at κ_i, or some fully utilized link on the session's
// data-path where the session's link rate dominates.
func SessionPerSessionLinkFair(a *netmodel.Allocation, i int) (Witness, bool) {
	net := a.Network()
	allAtKappa := true
	for k := range net.Session(i).Receivers {
		if !netmodel.Geq(a.Rate(i, k), net.Session(i).MaxRate) {
			allAtKappa = false
			break
		}
	}
	if allAtKappa {
		return Witness{Link: -1}, true
	}
	seen := map[int]bool{}
	for k := range net.Session(i).Receivers {
		for _, j := range net.Path(i, k) {
			if seen[j] {
				continue
			}
			seen[j] = true
			if sessionDominatesLink(a, i, j) {
				return Witness{Link: j}, true
			}
		}
	}
	return Witness{}, false
}

// SamePathPairFair checks Fairness Property 2 for one pair of receivers
// with identical data-paths.
func SamePathPairFair(a *netmodel.Allocation, x, y netmodel.ReceiverID) bool {
	net := a.Network()
	rx, ry := a.RateOf(x), a.RateOf(y)
	kx := net.Session(x.Session).MaxRate
	ky := net.Session(y.Session).MaxRate
	if netmodel.Eq(rx, ry) {
		return true
	}
	if netmodel.Geq(rx, kx) && netmodel.Less(rx, ry) {
		return true // a_x = κ_x < a_y
	}
	if netmodel.Geq(ry, ky) && netmodel.Less(ry, rx) {
		return true // a_y = κ_y < a_x
	}
	return false
}

// Report is the outcome of checking all four properties on an allocation.
type Report struct {
	// FullyUtilizedReceiverViolations lists receivers failing Property 1.
	FullyUtilizedReceiverViolations []netmodel.ReceiverID
	// SamePathViolations lists pairs failing Property 2.
	SamePathViolations []PairViolation
	// PerReceiverLinkViolations lists receivers failing Property 3's
	// per-receiver clause (a session fails iff any receiver fails).
	PerReceiverLinkViolations []netmodel.ReceiverID
	// PerSessionLinkViolations lists sessions (indices) failing Property 4.
	PerSessionLinkViolations []int
}

// FullyUtilizedReceiverFair reports Property 1 for the whole allocation.
func (r *Report) FullyUtilizedReceiverFair() bool {
	return len(r.FullyUtilizedReceiverViolations) == 0
}

// SamePathReceiverFair reports Property 2 for the whole allocation.
func (r *Report) SamePathReceiverFair() bool { return len(r.SamePathViolations) == 0 }

// PerReceiverLinkFair reports Property 3 for the whole allocation.
func (r *Report) PerReceiverLinkFair() bool { return len(r.PerReceiverLinkViolations) == 0 }

// PerSessionLinkFair reports Property 4 for the whole allocation.
func (r *Report) PerSessionLinkFair() bool { return len(r.PerSessionLinkViolations) == 0 }

// AllHold reports whether all four properties hold.
func (r *Report) AllHold() bool {
	return r.FullyUtilizedReceiverFair() && r.SamePathReceiverFair() &&
		r.PerReceiverLinkFair() && r.PerSessionLinkFair()
}

// Summary renders a one-line pass/fail table in paper order.
func (r *Report) Summary() string {
	mark := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "FAILS"
	}
	return fmt.Sprintf("fully-utilized-receiver: %s | same-path-receiver: %s | per-receiver-link: %s | per-session-link: %s",
		mark(r.FullyUtilizedReceiverFair()), mark(r.SamePathReceiverFair()),
		mark(r.PerReceiverLinkFair()), mark(r.PerSessionLinkFair()))
}

// Check evaluates all four fairness properties on an allocation.
func Check(a *netmodel.Allocation) *Report {
	net := a.Network()
	rep := &Report{}
	ids := net.ReceiverIDs()
	for _, id := range ids {
		if _, ok := ReceiverFullyUtilizedFair(a, id); !ok {
			rep.FullyUtilizedReceiverViolations = append(rep.FullyUtilizedReceiverViolations, id)
		}
		if _, ok := ReceiverPerReceiverLinkFair(a, id); !ok {
			rep.PerReceiverLinkViolations = append(rep.PerReceiverLinkViolations, id)
		}
	}
	for x := 0; x < len(ids); x++ {
		for y := x + 1; y < len(ids); y++ {
			if !net.SamePath(ids[x], ids[y]) {
				continue
			}
			if !SamePathPairFair(a, ids[x], ids[y]) {
				rep.SamePathViolations = append(rep.SamePathViolations, PairViolation{
					A: ids[x], B: ids[y],
					RateA: a.RateOf(ids[x]), RateB: a.RateOf(ids[y]),
				})
			}
		}
	}
	for i := 0; i < net.NumSessions(); i++ {
		if _, ok := SessionPerSessionLinkFair(a, i); !ok {
			rep.PerSessionLinkViolations = append(rep.PerSessionLinkViolations, i)
		}
	}
	return rep
}
