package maxmin

import (
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/vecorder"
)

// TestWeightedProportionalSplit: two unicast sessions with weights 1 and
// 3 on one link split it 1:3 (the TCP-fairness shape for RTTs 1 and 1/3).
func TestWeightedProportionalSplit(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	net := b.MustBuild()
	res, err := AllocateWeighted(net, Weights{{1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	wantRate(t, res.Alloc, 0, 0, 2.5)
	wantRate(t, res.Alloc, 1, 0, 7.5)
	if err := res.Alloc.Feasible(); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedMatchesUnweightedWithUniform: uniform weights reproduce
// Allocate exactly on the paper figures and random networks.
func TestWeightedMatchesUnweightedWithUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 80; trial++ {
		net := randNetwork(rng)
		plain, err := Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := AllocateWeighted(net, UniformWeights(net))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range net.ReceiverIDs() {
			a, b := plain.Alloc.RateOf(id), weighted.Alloc.RateOf(id)
			if !netmodel.Eq(a, b) && (a-b > 1e-6 || b-a > 1e-6) {
				t.Fatalf("trial %d %v: plain %v weighted %v", trial, id, a, b)
			}
		}
	}
}

// TestWeightedKappa: κ binds the rate (not the normalized rate).
func TestWeightedKappa(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(100)
	s1 := b.AddSession(netmodel.MultiRate, 6, 1) // κ=6
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	net := b.MustBuild()
	// Weight 3 would give s1 75 without κ; κ pins it at 6, s2 takes 94.
	res, err := AllocateWeighted(net, Weights{{3}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	wantRate(t, res.Alloc, 0, 0, 6)
	wantRate(t, res.Alloc, 1, 0, 94)
	if c := res.Causes[0][0]; c.Kind != CauseMaxRate {
		t.Fatalf("cause = %+v", c)
	}
}

// TestWeightedSamePathProportional: same-path receivers end with rates
// proportional to weights (the weighted analogue of same-path-receiver-
// fairness / TCP-fairness).
func TestWeightedSamePathProportional(t *testing.T) {
	b := netmodel.NewBuilder()
	l1 := b.AddLink(12)
	l2 := b.AddLink(30)
	for i := 0; i < 3; i++ {
		s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
		b.SetPath(s, 0, l1, l2)
	}
	net := b.MustBuild()
	w := Weights{{1}, {2}, {3}}
	res, err := AllocateWeighted(net, w)
	if err != nil {
		t.Fatal(err)
	}
	// Split 12 in proportion 1:2:3 -> 2, 4, 6.
	wantRate(t, res.Alloc, 0, 0, 2)
	wantRate(t, res.Alloc, 1, 0, 4)
	wantRate(t, res.Alloc, 2, 0, 6)
	// Normalized rates are equal.
	nv := NormalizedVector(res.Alloc, w)
	for _, x := range nv {
		if !netmodel.Eq(x, 2) {
			t.Fatalf("normalized vector %v, want all 2", nv)
		}
	}
}

// TestWeightedMulticast: weights interact with the session max link
// rate: the session's usage follows its fastest (weighted) receiver,
// and a receiver below it rides the session's layers across the shared
// link for free, so the link does not stop it.
func TestWeightedMulticast(t *testing.T) {
	b := netmodel.NewBuilder()
	shared := b.AddLink(12)
	tail := b.AddLink(100)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, shared)
	b.SetPath(s1, 1, shared, tail)
	b.SetPath(s2, 0, shared)
	net := b.MustBuild()
	// s1's receivers weighted 2 and 1; s2 weighted 1.
	// u_shared = max(2λ, λ) + λ = 3λ = 12 -> λ=4 freezes r1,1 at 8 and
	// r2,1 at 4. r1,2 (4 at λ=4) adds nothing to u_shared until it
	// passes 8, and its tail has room, so it rises to 8: rates (8, 8; 4).
	res, err := AllocateWeighted(net, Weights{{2, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	wantRate(t, res.Alloc, 0, 0, 8)
	wantRate(t, res.Alloc, 0, 1, 8)
	wantRate(t, res.Alloc, 1, 0, 4)
	if c := res.Causes[0][1]; c.Kind != CauseLink || c.Link != shared || c.Round != 1 {
		t.Errorf("r1,2 cause = %+v, want the shared link in round 1", c)
	}
	if id, ok := CheckSaturation(res.Alloc); !ok {
		t.Errorf("%v can still rise", id)
	}
}

// TestWeightedNormalizedLemma1: random feasible allocations are
// min-unfavorable to the weighted MMF in normalized space.
func TestWeightedNormalizedLemma1(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 104))
	for trial := 0; trial < 60; trial++ {
		net := randNetwork(rng)
		// Random weights; single-rate sessions get uniform weights.
		w := UniformWeights(net)
		for i, s := range net.Sessions() {
			if s.Type == netmodel.SingleRate {
				x := 0.5 + 2*rng.Float64()
				for k := range w[i] {
					w[i][k] = x
				}
				continue
			}
			for k := range w[i] {
				w[i][k] = 0.5 + 2*rng.Float64()
			}
		}
		res, err := AllocateWeighted(net, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Alloc.Feasible(); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		if id, ok := CheckSaturation(res.Alloc); !ok {
			t.Fatalf("trial %d: %v can still rise", trial, id)
		}
		ref := NormalizedVector(res.Alloc, w)
		for x := 0; x < 3; x++ {
			cand := randFeasible(rng, net)
			if !vecorder.LessEq(NormalizedVector(cand, w), ref) {
				t.Fatalf("feasible allocation beats weighted MMF in normalized order:\n cand %v\n  ref %v",
					NormalizedVector(cand, w), ref)
			}
		}
	}
}

func TestWeightsValidation(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	s := b.AddSession(netmodel.SingleRate, netmodel.NoRateCap, 2)
	b.SetPath(s, 0, l)
	b.SetPath(s, 1, l)
	net := b.MustBuild()

	if _, err := AllocateWeighted(net, Weights{{1}}); err == nil {
		t.Fatal("wrong receiver count accepted")
	}
	if _, err := AllocateWeighted(net, Weights{{1, 2}}); err == nil {
		t.Fatal("unequal single-rate weights accepted")
	}
	if _, err := AllocateWeighted(net, Weights{{1, 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := AllocateWeighted(net, nil); err != nil {
		t.Fatal("nil weights should fall back to Allocate")
	}
	if _, err := AllocateWeighted(net, Weights{{2, 2}}); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
}

func TestInverseRTTWeights(t *testing.T) {
	w := InverseRTTWeights([][]float64{{0.5, 2}})
	if w[0][0] != 2 || w[0][1] != 0.5 {
		t.Fatalf("weights = %v", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero RTT accepted")
		}
	}()
	InverseRTTWeights([][]float64{{0}})
}
