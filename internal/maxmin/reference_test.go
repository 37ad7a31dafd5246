package maxmin

import (
	"math"
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
)

// allMax reports whether every session of net uses the efficient
// link-rate function v = max.
func allMax(net *netmodel.Network) bool {
	for _, s := range net.Sessions() {
		if s.LinkRate != nil {
			return false
		}
	}
	return true
}

// referenceFill is a test-only progressive filler for v = max and unit
// weights, written apart from Incremental to serve as its reference on
// tiny networks. Each round it sets the level directly to the lowest
// point where a rising receiver meets its κ or a link fills (a link
// crossed by n sessions with rising receivers, whose other sessions
// use F, fills at level (c-F)/n), then freezes by definition through
// the Allocation: κ reached, a path link fully utilized, or a frozen
// single-rate peer.
func referenceFill(t *testing.T, net *netmodel.Network) *netmodel.Allocation {
	t.Helper()
	a := netmodel.NewAllocation(net)
	rising := map[netmodel.ReceiverID]bool{}
	for _, id := range net.ReceiverIDs() {
		rising[id] = true
	}
	for level := 0.0; len(rising) > 0; {
		next := math.Inf(1)
		for id := range rising {
			next = min(next, net.Session(id.Session).MaxRate)
		}
		for j := 0; j < net.NumLinks(); j++ {
			n, used := 0, 0.0
			for _, sr := range net.OnLink(j) {
				up, top := false, 0.0
				for k := range sr.All() {
					if rising[netmodel.ReceiverID{Session: sr.Session, Receiver: k}] {
						up = true
					} else {
						top = max(top, a.Rate(sr.Session, k))
					}
				}
				if up {
					n++
				} else {
					used += top
				}
			}
			if n > 0 {
				next = min(next, (net.Capacity(j)-used)/float64(n))
			}
		}
		if math.IsInf(next, 1) {
			t.Fatal("referenceFill: unbounded network")
		}
		level = max(level, next)
		for id := range rising {
			a.SetRate(id.Session, id.Receiver, level)
		}
		var frozen []netmodel.ReceiverID
		for id := range rising {
			if netmodel.Geq(level, net.Session(id.Session).MaxRate) {
				frozen = append(frozen, id)
				continue
			}
			for _, j := range net.Path(id.Session, id.Receiver) {
				if a.FullyUtilized(j) {
					frozen = append(frozen, id)
					break
				}
			}
		}
		if len(frozen) == 0 {
			t.Fatalf("referenceFill: no receiver froze at level %v", level)
		}
		for _, id := range frozen {
			delete(rising, id)
			if net.Session(id.Session).Type == netmodel.SingleRate {
				for k := 0; k < net.Session(id.Session).NumReceivers(); k++ {
					delete(rising, netmodel.ReceiverID{Session: id.Session, Receiver: k})
				}
			}
		}
	}
	return a
}

// TestAllocateMatchesReferenceFill: on tiny random networks, Allocate
// and AllocateGeneric agree with referenceFill within netmodel.Eps, and
// their allocations are feasible and saturated.
func TestAllocateMatchesReferenceFill(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 200; trial++ {
		net := randNetwork(rng)
		ref := referenceFill(t, net)
		for name, fill := range map[string]func(*netmodel.Network) (*Result, error){
			"Allocate": Allocate, "AllocateGeneric": AllocateGeneric,
		} {
			res, err := fill(net)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for _, id := range net.ReceiverIDs() {
				if got, want := res.Alloc.RateOf(id), ref.RateOf(id); math.Abs(got-want) > netmodel.Eps {
					t.Fatalf("trial %d %s %v: %v, reference %v", trial, name, id, got, want)
				}
			}
			if err := res.Alloc.Feasible(); err != nil {
				t.Fatalf("trial %d %s: infeasible: %v", trial, name, err)
			}
			if id, ok := CheckSaturation(res.Alloc); !ok {
				t.Fatalf("trial %d %s: %v can still rise", trial, name, id)
			}
		}
	}
}
