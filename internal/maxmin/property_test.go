package maxmin

import (
	"math"
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/vecorder"
)

// randNetwork generates a random abstract network: 2-6 links with integer
// capacities, 1-4 sessions of random type with 1-3 receivers crossing
// random link subsets, occasionally finite κ.
func randNetwork(rng *rand.Rand) *netmodel.Network {
	nl := 2 + rng.IntN(5)
	b := netmodel.NewBuilder()
	links := make([]int, nl)
	for i := range links {
		links[i] = b.AddLink(1 + float64(rng.IntN(20)))
	}
	ns := 1 + rng.IntN(4)
	for i := 0; i < ns; i++ {
		typ := netmodel.MultiRate
		if rng.IntN(2) == 0 {
			typ = netmodel.SingleRate
		}
		kappa := netmodel.NoRateCap
		if rng.IntN(3) == 0 {
			kappa = 1 + 10*rng.Float64()
		}
		nr := 1 + rng.IntN(3)
		s := b.AddSession(typ, kappa, nr)
		for k := 0; k < nr; k++ {
			var p []int
			for _, l := range links {
				if rng.IntN(3) == 0 {
					p = append(p, l)
				}
			}
			if len(p) == 0 {
				p = []int{links[rng.IntN(nl)]}
			}
			b.SetPath(s, k, p...)
		}
	}
	return b.MustBuild()
}

// randFeasible produces a random feasible allocation by hill-climbing:
// repeatedly pick a receiver and try to raise it by a random step,
// keeping feasibility (single-rate sessions are raised jointly).
func randFeasible(rng *rand.Rand, net *netmodel.Network) *netmodel.Allocation {
	a := netmodel.NewAllocation(net)
	ids := net.ReceiverIDs()
	for step := 0; step < 60; step++ {
		id := ids[rng.IntN(len(ids))]
		delta := rng.Float64() * 3
		c := a.Clone()
		s := net.Session(id.Session)
		if s.Type == netmodel.SingleRate {
			nv := c.Rate(id.Session, 0) + delta
			for k := 0; k < s.NumReceivers(); k++ {
				c.SetRate(id.Session, k, nv)
			}
		} else {
			c.SetRate(id.Session, id.Receiver, c.RateOf(id)+delta)
		}
		if c.Feasible() == nil {
			a = c
		}
	}
	return a
}

// TestLemma1RandomFeasibleDominated: every feasible allocation is
// min-unfavorable to the max-min fair allocation.
func TestLemma1RandomFeasibleDominated(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 120; trial++ {
		net := randNetwork(rng)
		res, err := Allocate(net)
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		for f := 0; f < 4; f++ {
			cand := randFeasible(rng, net)
			if !Dominates(res.Alloc, cand) {
				t.Fatalf("feasible allocation %v not dominated by max-min %v",
					cand.OrderedVector(), res.Alloc.OrderedVector())
			}
		}
	}
}

// TestSaturationNecessaryCondition: no receiver of a max-min fair
// allocation can be unilaterally increased.
func TestSaturationNecessaryCondition(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 200; trial++ {
		net := randNetwork(rng)
		res, err := Allocate(net)
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		if id, ok := CheckSaturation(res.Alloc); !ok {
			t.Fatalf("receiver %v of %s can be unilaterally increased", id, res.Alloc)
		}
	}
}

// TestFeasibilityAlways: allocator output is feasible on random networks,
// including with redundancy functions.
func TestFeasibilityAlways(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 150; trial++ {
		net := randNetwork(rng)
		if rng.IntN(2) == 0 {
			fns := make([]netmodel.LinkRateFunc, net.NumSessions())
			for i := range fns {
				if rng.IntN(2) == 0 {
					fns[i] = netmodel.ScaledMax(1 + 2*rng.Float64())
				}
			}
			var err error
			net, err = net.WithLinkRates(fns)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := Allocate(net)
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		if err := res.Alloc.Feasible(); err != nil {
			t.Fatalf("infeasible output: %v", err)
		}
	}
}

// TestGenericMatchesFastPathRandom cross-checks the two step
// computations on random default-v networks.
func TestGenericMatchesFastPathRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 100; trial++ {
		net := randNetwork(rng)
		fast, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := AllocateGeneric(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range net.ReceiverIDs() {
			f, g := fast.Alloc.RateOf(id), gen.Alloc.RateOf(id)
			if math.Abs(f-g) > 1e-6 {
				t.Fatalf("trial %d %v: fast=%v generic=%v", trial, id, f, g)
			}
		}
	}
}

// TestLemma3ReplacementMoreFair: converting single-rate sessions to
// multi-rate makes the max-min fair allocation ≽_m the original.
func TestLemma3ReplacementMoreFair(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	for trial := 0; trial < 120; trial++ {
		net := randNetwork(rng)
		// N̄: as generated. N: flip a random subset of single-rate
		// sessions to multi-rate (so multi-rate(N̄) ⊆ multi-rate(N)).
		types := make([]netmodel.SessionType, net.NumSessions())
		for i, s := range net.Sessions() {
			types[i] = s.Type
			if s.Type == netmodel.SingleRate && rng.IntN(2) == 0 {
				types[i] = netmodel.MultiRate
			}
		}
		upgraded, err := net.WithSessionTypes(types)
		if err != nil {
			t.Fatal(err)
		}
		resBar, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Allocate(upgraded)
		if err != nil {
			t.Fatal(err)
		}
		if !vecorder.LessEq(resBar.Alloc.OrderedVector(), res.Alloc.OrderedVector()) {
			t.Fatalf("Lemma 3 violated:\n  before: %v\n  after:  %v",
				resBar.Alloc.OrderedVector(), res.Alloc.OrderedVector())
		}
	}
}

// TestCorollary1AllMultiRateMostFair: the all-multi-rate network
// dominates every other type assignment.
func TestCorollary1AllMultiRateMostFair(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 80; trial++ {
		net := randNetwork(rng)
		all := make([]netmodel.SessionType, net.NumSessions())
		for i := range all {
			all[i] = netmodel.MultiRate
		}
		allMulti, err := net.WithSessionTypes(all)
		if err != nil {
			t.Fatal(err)
		}
		resAll, err := Allocate(allMulti)
		if err != nil {
			t.Fatal(err)
		}
		resAny, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		if !vecorder.LessEq(resAny.Alloc.OrderedVector(), resAll.Alloc.OrderedVector()) {
			t.Fatalf("Corollary 1 violated:\n  mixed: %v\n  all-M: %v",
				resAny.Alloc.OrderedVector(), resAll.Alloc.OrderedVector())
		}
	}
}

// TestLemma4RedundancyLessFair: scaling link-rate functions up makes the
// max-min fair allocation ≼_m the efficient one.
func TestLemma4RedundancyLessFair(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for trial := 0; trial < 120; trial++ {
		net := randNetwork(rng)
		fns := make([]netmodel.LinkRateFunc, net.NumSessions())
		for i := range fns {
			if rng.IntN(2) == 0 {
				fns[i] = netmodel.ScaledMax(1 + 3*rng.Float64())
			}
		}
		redundant, err := net.WithLinkRates(fns)
		if err != nil {
			t.Fatal(err)
		}
		resEff, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		resRed, err := Allocate(redundant)
		if err != nil {
			t.Fatal(err)
		}
		if !vecorder.LessEq(resRed.Alloc.OrderedVector(), resEff.Alloc.OrderedVector()) {
			t.Fatalf("Lemma 4 violated:\n  redundant: %v\n  efficient: %v",
				resRed.Alloc.OrderedVector(), resEff.Alloc.OrderedVector())
		}
	}
}

// TestSingleSessionFlipNeverHurtsOwnReceivers: with all other types
// fixed, a session's receivers do at least as well multi-rate as
// single-rate (Section 2.5 / TR Lemma 9).
func TestSingleSessionFlipNeverHurtsOwnReceivers(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for trial := 0; trial < 120; trial++ {
		net := randNetwork(rng)
		i := rng.IntN(net.NumSessions())
		typesS := make([]netmodel.SessionType, net.NumSessions())
		typesM := make([]netmodel.SessionType, net.NumSessions())
		for x, s := range net.Sessions() {
			typesS[x], typesM[x] = s.Type, s.Type
		}
		typesS[i] = netmodel.SingleRate
		typesM[i] = netmodel.MultiRate
		netS, err := net.WithSessionTypes(typesS)
		if err != nil {
			t.Fatal(err)
		}
		netM, err := net.WithSessionTypes(typesM)
		if err != nil {
			t.Fatal(err)
		}
		resS, err := Allocate(netS)
		if err != nil {
			t.Fatal(err)
		}
		resM, err := Allocate(netM)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < net.Session(i).NumReceivers(); k++ {
			if netmodel.Less(resM.Alloc.Rate(i, k), resS.Alloc.Rate(i, k)) {
				t.Fatalf("receiver r%d,%d worse multi-rate (%v) than single-rate (%v)",
					i+1, k+1, resM.Alloc.Rate(i, k), resS.Alloc.Rate(i, k))
			}
		}
	}
}

// TestDeterminism: Allocate is a pure function of the network, rates
// and bottleneck causes alike.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for trial := 0; trial < 40; trial++ {
		net := randNetwork(rng)
		r1, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range net.ReceiverIDs() {
			if r1.Alloc.RateOf(id) != r2.Alloc.RateOf(id) {
				t.Fatal("non-deterministic allocation")
			}
			if c1, c2 := r1.Causes[id.Session][id.Receiver], r2.Causes[id.Session][id.Receiver]; c1 != c2 {
				t.Fatalf("trial %d %v: causes %+v and %+v", trial, id, c1, c2)
			}
		}
	}
}
