package maxmin

import (
	"math"
	"testing"

	"mlfair/internal/netmodel"
)

func mustAllocate(t *testing.T, net *netmodel.Network) *Result {
	t.Helper()
	res, err := Allocate(net)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := res.Alloc.Feasible(); err != nil {
		t.Fatalf("allocation infeasible: %v", err)
	}
	return res
}

func wantRate(t *testing.T, a *netmodel.Allocation, i, k int, want float64) {
	t.Helper()
	if got := a.Rate(i, k); !netmodel.Eq(got, want) {
		t.Errorf("a[%d][%d] = %v, want %v (%s)", i, k, got, want, a)
	}
}

// TestTwoUnicastEqualSplit: the most basic sanity check — two unicast
// sessions on one link split it evenly.
func TestTwoUnicastEqualSplit(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.SingleRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 5)
	wantRate(t, res.Alloc, 1, 0, 5)
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
}

// TestKappaCap: a session capped below its fair share leaves bandwidth to
// the other (unicast max-min behaviour).
func TestKappaCap(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	s1 := b.AddSession(netmodel.MultiRate, 2, 1) // κ=2
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 2)
	wantRate(t, res.Alloc, 1, 0, 8)
	if c := res.Causes[0][0]; c.Kind != CauseMaxRate || c.Link != -1 {
		t.Errorf("cause for capped receiver = %+v", c)
	}
	if c := res.Causes[1][0]; c.Kind != CauseLink || c.Link != 0 {
		t.Errorf("cause for link-bound receiver = %+v", c)
	}
}

// figure1 builds the paper's Figure 1 network in abstract (incidence)
// form. Links: l1 (c=5) carries S3's two receivers; l2 (c=7) carries S1
// and S2; l3 (c=4) carries r2,2 and r3,2; l4 (c=3) carries r1,1, r2,1 and
// r3,1. The multi-rate max-min fair allocation is a1=(1), a2=(1,2),
// a3=(1,2), matching the figure.
func figure1() *netmodel.Network {
	b := netmodel.NewBuilder()
	l1 := b.AddLink(5)
	l2 := b.AddLink(7)
	l3 := b.AddLink(4)
	l4 := b.AddLink(3)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	s3 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s1, 0, l2, l4)
	b.SetPath(s2, 0, l2, l4)
	b.SetPath(s2, 1, l2, l3)
	b.SetPath(s3, 0, l1, l4)
	b.SetPath(s3, 1, l1, l3)
	return b.MustBuild()
}

func TestFigure1Rates(t *testing.T) {
	res := mustAllocate(t, figure1())
	a := res.Alloc
	wantRate(t, a, 0, 0, 1)
	wantRate(t, a, 1, 0, 1)
	wantRate(t, a, 1, 1, 2)
	wantRate(t, a, 2, 0, 1)
	wantRate(t, a, 2, 1, 2)

	// Session link rates match the figure's annotations:
	// l1=(0:0:2), l2=(1:2:0), l3=(0:2:2), l4=(1:1:1).
	checks := []struct {
		link, session int
		want          float64
	}{
		{0, 2, 2}, {0, 0, 0}, {0, 1, 0},
		{1, 0, 1}, {1, 1, 2}, {1, 2, 0},
		{2, 1, 2}, {2, 2, 2}, {2, 0, 0},
		{3, 0, 1}, {3, 1, 1}, {3, 2, 1},
	}
	for _, c := range checks {
		if got := a.SessionLinkRate(c.session, c.link); !netmodel.Eq(got, c.want) {
			t.Errorf("u[%d][l%d] = %v, want %v", c.session+1, c.link+1, got, c.want)
		}
	}
	// l3 and l4 fully utilized, l1 and l2 not.
	for j, want := range []bool{false, false, true, true} {
		if got := a.FullyUtilized(j); got != want {
			t.Errorf("FullyUtilized(l%d) = %v, want %v", j+1, got, want)
		}
	}
}

// figure2 builds the paper's Figure 2 network: S1 single-rate with three
// receivers, S2 unicast sharing r1,1's data-path. Links: l1 (c=5) carries
// r1,1 and r2,1; l4 (c=6) also carries both; l2 (c=2) carries r1,2;
// l3 (c=3) carries r1,3.
func figure2(s1Type netmodel.SessionType) *netmodel.Network {
	b := netmodel.NewBuilder()
	l1 := b.AddLink(5)
	l2 := b.AddLink(2)
	l3 := b.AddLink(3)
	l4 := b.AddLink(6)
	s1 := b.AddSession(s1Type, 100, 3)
	s2 := b.AddSession(netmodel.MultiRate, 100, 1)
	b.SetPath(s1, 0, l1, l4)
	b.SetPath(s1, 1, l2)
	b.SetPath(s1, 2, l3)
	b.SetPath(s2, 0, l1, l4)
	return b.MustBuild()
}

// TestFigure2SingleRate reproduces the paper's allocation: S1 receivers
// all at 2 (bound by l2 through the single-rate constraint), r2,1 at 3.
func TestFigure2SingleRate(t *testing.T) {
	res := mustAllocate(t, figure2(netmodel.SingleRate))
	a := res.Alloc
	for k := 0; k < 3; k++ {
		wantRate(t, a, 0, k, 2)
	}
	wantRate(t, a, 1, 0, 3)

	// r1,2 froze on l2; r1,1 and r1,3 followed as single-rate peers.
	if c := res.Causes[0][1]; c.Kind != CauseLink || c.Link != 1 {
		t.Errorf("r1,2 cause = %+v", c)
	}
	for _, k := range []int{0, 2} {
		if c := res.Causes[0][k]; c.Kind != CauseSessionPeer {
			t.Errorf("r1,%d cause = %+v, want single-rate-peer", k+1, c)
		}
	}
}

// TestFigure2MultiRate: replacing S1 with a multi-rate session frees r1,1
// and r1,3 from the l2 bottleneck: a1 = (2.5, 2, 3), a2 = 2.5.
func TestFigure2MultiRate(t *testing.T) {
	res := mustAllocate(t, figure2(netmodel.MultiRate))
	a := res.Alloc
	wantRate(t, a, 0, 0, 2.5)
	wantRate(t, a, 0, 1, 2)
	wantRate(t, a, 0, 2, 3)
	wantRate(t, a, 1, 0, 2.5)
}

// figure4 is the paper's Figure 4: the Figure 2 topology rearranged so
// every S1 receiver crosses the shared first-hop link l4 (c=6), with S1
// multi-rate but exhibiting redundancy 2 on links shared by several of
// its receivers.
func figure4() *netmodel.Network {
	b := netmodel.NewBuilder()
	l4 := b.AddLink(6)
	l1 := b.AddLink(5)
	l2 := b.AddLink(2)
	l3 := b.AddLink(3)
	s1 := b.AddSession(netmodel.MultiRate, 100, 3)
	s2 := b.AddSession(netmodel.MultiRate, 100, 1)
	b.SetLinkRate(s1, netmodel.SharedScaledMax(2))
	b.SetPath(s1, 0, l4, l1)
	b.SetPath(s1, 1, l4, l2)
	b.SetPath(s1, 2, l4, l3)
	b.SetPath(s2, 0, l4, l1)
	return b.MustBuild()
}

// TestFigure4Redundancy reproduces the figure's rates (all receivers at
// 2) and link annotation u = (4:2) on l4.
func TestFigure4Redundancy(t *testing.T) {
	res := mustAllocate(t, figure4())
	a := res.Alloc
	for k := 0; k < 3; k++ {
		wantRate(t, a, 0, k, 2)
	}
	wantRate(t, a, 1, 0, 2)
	if got := a.SessionLinkRate(0, 0); !netmodel.Eq(got, 4) {
		t.Errorf("u_{1,l4} = %v, want 4 (redundancy 2)", got)
	}
	if got := a.SessionLinkRate(1, 0); !netmodel.Eq(got, 2) {
		t.Errorf("u_{2,l4} = %v, want 2", got)
	}
	if !a.FullyUtilized(0) {
		t.Error("l4 should be fully utilized")
	}
}

// TestChainMulticast: one multi-rate session, two receivers at different
// depths; each receiver is limited only by its own path (the layering
// promise from the introduction).
func TestChainMulticast(t *testing.T) {
	b := netmodel.NewBuilder()
	wide := b.AddLink(10)
	narrow := b.AddLink(4)
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s, 0, wide)
	b.SetPath(s, 1, wide, narrow)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 10)
	wantRate(t, res.Alloc, 0, 1, 4)
}

// TestChainSingleRate: the same session typed single-rate drags the fast
// receiver down to the slow one.
func TestChainSingleRate(t *testing.T) {
	b := netmodel.NewBuilder()
	wide := b.AddLink(10)
	narrow := b.AddLink(4)
	s := b.AddSession(netmodel.SingleRate, netmodel.NoRateCap, 2)
	b.SetPath(s, 0, wide)
	b.SetPath(s, 1, wide, narrow)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 4)
	wantRate(t, res.Alloc, 0, 1, 4)
}

func TestZeroCapacityLink(t *testing.T) {
	b := netmodel.NewBuilder()
	dead := b.AddLink(0)
	live := b.AddLink(6)
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s, 0, dead, live)
	b.SetPath(s, 1, live)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 0)
	wantRate(t, res.Alloc, 0, 1, 6)
}

func TestUnbounded(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(math.Inf(1))
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s, 0, l)
	if _, err := Allocate(b.MustBuild()); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	if _, err := AllocateGeneric(b.MustBuild()); err != ErrUnbounded {
		t.Fatalf("generic err = %v, want ErrUnbounded", err)
	}
}

func TestInfiniteCapacityFiniteKappa(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(math.Inf(1))
	s := b.AddSession(netmodel.MultiRate, 7, 1)
	b.SetPath(s, 0, l)
	res := mustAllocate(t, b.MustBuild())
	wantRate(t, res.Alloc, 0, 0, 7)
}

// TestGenericMatchesFastPath: the bisection path must agree with the
// closed form on default-v networks.
func TestGenericMatchesFastPath(t *testing.T) {
	for _, net := range []*netmodel.Network{figure1(), figure2(netmodel.SingleRate), figure2(netmodel.MultiRate)} {
		fast := mustAllocate(t, net)
		gen, err := AllocateGeneric(net)
		if err != nil {
			t.Fatalf("AllocateGeneric: %v", err)
		}
		for _, id := range net.ReceiverIDs() {
			f, g := fast.Alloc.RateOf(id), gen.Alloc.RateOf(id)
			if math.Abs(f-g) > 1e-6 {
				t.Errorf("%v: fast=%v generic=%v", id, f, g)
			}
		}
	}
}

// TestScaledRedundancyLowersRates: Lemma 4 in a single concrete case —
// doubling a session's link usage halves everyone's fair share on a
// shared bottleneck.
func TestScaledRedundancyLowersRates(t *testing.T) {
	build := func(fn netmodel.LinkRateFunc) *netmodel.Network {
		b := netmodel.NewBuilder()
		l := b.AddLink(12)
		s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
		s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
		b.SetLinkRate(s1, fn)
		b.SetPath(s1, 0, l)
		b.SetPath(s1, 1, l)
		b.SetPath(s2, 0, l)
		return b.MustBuild()
	}
	eff := mustAllocate(t, build(nil))
	red := mustAllocate(t, build(netmodel.ScaledMax(2)))
	// Efficient: u = a1 + a2 = 2a -> a = 6 each.
	wantRate(t, eff.Alloc, 0, 0, 6)
	wantRate(t, eff.Alloc, 1, 0, 6)
	// Redundancy 2: u = 2a1 + a2 = 3a -> a = 4 each.
	wantRate(t, red.Alloc, 0, 0, 4)
	wantRate(t, red.Alloc, 1, 0, 4)
}

func TestCauseKindString(t *testing.T) {
	if CauseLink.String() != "bottleneck-link" ||
		CauseMaxRate.String() != "max-desired-rate" ||
		CauseSessionPeer.String() != "single-rate-peer" {
		t.Fatal("cause strings wrong")
	}
	if CauseKind(7).String() == "" {
		t.Fatal("unknown cause empty")
	}
}

// TestRoundsCount: each filling round freezes at least one receiver, so
// rounds never exceed the receiver count; the chain network needs
// exactly two.
func TestRoundsCount(t *testing.T) {
	b := netmodel.NewBuilder()
	wide := b.AddLink(10)
	narrow := b.AddLink(4)
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s, 0, wide)
	b.SetPath(s, 1, wide, narrow)
	res := mustAllocate(t, b.MustBuild())
	if res.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", res.Rounds)
	}
}

// TestParallelLinksAllocation: parallel links between the same nodes are
// independent capacity; receivers routed over different parallels do not
// contend.
func TestParallelLinksAllocation(t *testing.T) {
	g := netmodel.NewGraph(2)
	l0 := g.AddLink(0, 1, 3)
	l1 := g.AddLink(0, 1, 7)
	s1 := &netmodel.Session{Sender: 0, Receivers: []int{1}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	s2 := &netmodel.Session{Sender: 0, Receivers: []int{1}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	net, err := netmodel.NewNetwork(g, []*netmodel.Session{s1, s2},
		[][][]int{{{l0}}, {{l1}}})
	if err != nil {
		t.Fatal(err)
	}
	res := mustAllocate(t, net)
	wantRate(t, res.Alloc, 0, 0, 3)
	wantRate(t, res.Alloc, 1, 0, 7)
}
