package netmodel

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// chainNet builds a 3-node chain A -l0- B -l1- C with one multicast
// session: sender at A, receivers at B and C.
func chainNet(t *testing.T) *Network {
	t.Helper()
	g := NewGraph(3)
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 4)
	s := &Session{Sender: 0, Receivers: []int{1, 2}, Type: MultiRate, MaxRate: NoRateCap}
	n, err := NewNetwork(g, []*Session{s}, [][][]int{{{0}, {0, 1}}})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestNetworkIncidence(t *testing.T) {
	n := chainNet(t)
	if n.ReceiversCrossing(0) != 2 {
		t.Fatalf("R_0 size = %d, want 2", n.ReceiversCrossing(0))
	}
	if n.ReceiversCrossing(1) != 1 {
		t.Fatalf("R_1 size = %d, want 1", n.ReceiversCrossing(1))
	}
	on0 := n.OnLink(0)
	if len(on0) != 1 || on0[0].Session != 0 || len(on0[0].Receivers) != 2 {
		t.Fatalf("OnLink(0) = %+v", on0)
	}
	on1 := n.OnLink(1)
	if len(on1) != 1 || len(on1[0].Receivers) != 1 || on1[0].Receivers[0] != 1 {
		t.Fatalf("OnLink(1) = %+v", on1)
	}
}

func TestCrosses(t *testing.T) {
	n := chainNet(t)
	if !n.Crosses(0, 0, 0) || n.Crosses(0, 0, 1) {
		t.Fatal("receiver 0 path wrong")
	}
	if !n.Crosses(0, 1, 0) || !n.Crosses(0, 1, 1) {
		t.Fatal("receiver 1 path wrong")
	}
}

func TestWalkValidation(t *testing.T) {
	g := NewGraph(3)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	s := &Session{Sender: 0, Receivers: []int{2}, Type: MultiRate, MaxRate: NoRateCap}

	// Non-contiguous walk.
	if _, err := NewNetwork(g, []*Session{s}, [][][]int{{{1}}}); err == nil {
		t.Fatal("accepted walk not starting at sender")
	}
	// Ends at wrong node.
	if _, err := NewNetwork(g, []*Session{s}, [][][]int{{{0}}}); err == nil {
		t.Fatal("accepted walk ending at wrong node")
	}
	// Repeated link.
	if _, err := NewNetwork(g, []*Session{s}, [][][]int{{{0, 0, 1}}}); err == nil {
		t.Fatal("accepted walk with repeated link")
	}
	// Correct walk.
	if _, err := NewNetwork(g, []*Session{s}, [][][]int{{{0, 1}}}); err != nil {
		t.Fatalf("rejected valid walk: %v", err)
	}
}

func TestSessionValidation(t *testing.T) {
	g := NewGraph(2)
	g.AddLink(0, 1, 1)
	if _, err := NewNetwork(g, []*Session{{Sender: 0, Receivers: nil, MaxRate: 1}}, [][][]int{{}}); err == nil {
		t.Fatal("accepted session with no receivers")
	}
	if _, err := NewNetwork(g, []*Session{{Sender: 0, Receivers: []int{1}, MaxRate: 0}}, [][][]int{{{0}}}); err == nil {
		t.Fatal("accepted session with κ=0")
	}
	if _, err := NewNetwork(g, []*Session{nil}, [][][]int{{}}); err == nil {
		t.Fatal("accepted nil session")
	}
	if _, err := NewNetwork(nil, nil, nil); err == nil {
		t.Fatal("accepted nil graph")
	}
	if _, err := NewNetwork(g, []*Session{{Sender: 0, Receivers: []int{1}, MaxRate: 1}}, nil); err == nil {
		t.Fatal("accepted mismatched path groups")
	}
}

func TestSamePath(t *testing.T) {
	b := NewBuilder()
	l0 := b.AddLink(5)
	l1 := b.AddLink(5)
	s1 := b.AddSession(MultiRate, NoRateCap, 1)
	s2 := b.AddSession(MultiRate, NoRateCap, 2)
	b.SetPath(s1, 0, l0, l1)
	b.SetPath(s2, 0, l1, l0) // same set, different order
	b.SetPath(s2, 1, l0)
	n := b.MustBuild()

	if !n.SamePath(ReceiverID{0, 0}, ReceiverID{1, 0}) {
		t.Fatal("same link sets not detected")
	}
	if n.SamePath(ReceiverID{0, 0}, ReceiverID{1, 1}) {
		t.Fatal("different paths reported as same")
	}
}

func TestWithSessionTypes(t *testing.T) {
	n := chainNet(t)
	n2, err := n.WithSessionTypes([]SessionType{SingleRate})
	if err != nil {
		t.Fatalf("WithSessionTypes: %v", err)
	}
	if n2.Session(0).Type != SingleRate {
		t.Fatal("type not changed")
	}
	if n.Session(0).Type != MultiRate {
		t.Fatal("original mutated")
	}
	if _, err := n.WithSessionTypes(nil); err == nil {
		t.Fatal("accepted wrong-length type slice")
	}
}

func TestWithLinkRates(t *testing.T) {
	n := chainNet(t)
	n2, err := n.WithLinkRates([]LinkRateFunc{ScaledMax(2)})
	if err != nil {
		t.Fatalf("WithLinkRates: %v", err)
	}
	a := NewAllocation(n2)
	a.SetRate(0, 0, 1)
	a.SetRate(0, 1, 3)
	if got := a.SessionLinkRate(0, 0); !Eq(got, 6) {
		t.Fatalf("scaled link rate = %v, want 6", got)
	}
	// Original unchanged: v = max.
	a0 := NewAllocation(n)
	a0.SetRate(0, 0, 1)
	a0.SetRate(0, 1, 3)
	if got := a0.SessionLinkRate(0, 0); !Eq(got, 3) {
		t.Fatalf("original link rate = %v, want 3", got)
	}
}

func TestRemoveReceiver(t *testing.T) {
	n := chainNet(t)
	n2, err := n.RemoveReceiver(ReceiverID{0, 1})
	if err != nil {
		t.Fatalf("RemoveReceiver: %v", err)
	}
	if n2.Session(0).NumReceivers() != 1 {
		t.Fatalf("receiver not removed: %d left", n2.Session(0).NumReceivers())
	}
	if n2.ReceiversCrossing(1) != 0 {
		t.Fatal("incidence not rebuilt after removal")
	}
	if n.Session(0).NumReceivers() != 2 {
		t.Fatal("original network mutated")
	}
	if _, err := n2.RemoveReceiver(ReceiverID{0, 0}); err == nil {
		t.Fatal("allowed removing the only receiver")
	}
	if _, err := n.RemoveReceiver(ReceiverID{5, 0}); err == nil {
		t.Fatal("allowed out-of-range session")
	}
	if _, err := n.RemoveReceiver(ReceiverID{0, 9}); err == nil {
		t.Fatal("allowed out-of-range receiver")
	}
}

func TestReceiverIDs(t *testing.T) {
	b := NewBuilder()
	l := b.AddLink(1)
	s1 := b.AddSession(MultiRate, NoRateCap, 2)
	s2 := b.AddSession(SingleRate, NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s1, 1, l)
	b.SetPath(s2, 0, l)
	n := b.MustBuild()
	ids := n.ReceiverIDs()
	want := []ReceiverID{{0, 0}, {0, 1}, {1, 0}}
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	for x := range want {
		if ids[x] != want[x] {
			t.Fatalf("ids[%d] = %v, want %v", x, ids[x], want[x])
		}
	}
	if n.NumReceivers() != 3 {
		t.Fatalf("NumReceivers = %d, want 3", n.NumReceivers())
	}
}

func TestReceiverIDString(t *testing.T) {
	if s := (ReceiverID{0, 1}).String(); s != "r1,2" {
		t.Fatalf("String = %q, want r1,2", s)
	}
}

func TestSessionTypeString(t *testing.T) {
	if SingleRate.String() != "S" || MultiRate.String() != "M" {
		t.Fatal("SessionType strings wrong")
	}
	if SessionType(9).String() == "" {
		t.Fatal("unknown type produced empty string")
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	l := b.AddLink(1)
	s := b.AddSession(MultiRate, NoRateCap, 2)
	b.SetPath(s, 0, l)
	// Receiver 1 has no path.
	if _, err := b.Build(); err == nil {
		t.Fatal("accepted receiver with no path")
	}
	b.SetPath(s, 1, l)
	if _, err := b.Build(); err != nil {
		t.Fatalf("valid build failed: %v", err)
	}
}

// TestMustBuildPanics: MustBuild turns a Build error — here a receiver
// with an empty path — into a panic, for fixed fixtures.
func TestMustBuildPanics(t *testing.T) {
	b := NewBuilder()
	b.AddLink(1)
	b.AddSession(MultiRate, NoRateCap, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b.MustBuild()
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative capacity accepted")
			}
		}()
		b.AddLink(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero receivers accepted")
			}
		}()
		b.AddSession(MultiRate, NoRateCap, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range link accepted in SetPath")
			}
		}()
		l := b.AddLink(1)
		s := b.AddSession(MultiRate, NoRateCap, 1)
		b.SetPath(s, 0, l+7)
	}()
}

func TestEffectiveLinkRateDefaults(t *testing.T) {
	s := &Session{MaxRate: 1, Receivers: []int{-1}}
	if got := s.EffectiveLinkRate(nil); got != 0 {
		t.Fatalf("empty rate set -> %v, want 0", got)
	}
	if got := s.EffectiveLinkRate([]float64{1, 3, 2}); got != 3 {
		t.Fatalf("default max -> %v, want 3", got)
	}
}

func TestLinkRateFuncs(t *testing.T) {
	if got := MaxLinkRate([]float64{1, 5, 2}); got != 5 {
		t.Fatalf("MaxLinkRate = %v", got)
	}
	if got := ScaledMax(2)([]float64{3}); got != 6 {
		t.Fatalf("ScaledMax(2) = %v", got)
	}
	sm := SharedScaledMax(2)
	if got := sm([]float64{3}); got != 3 {
		t.Fatalf("SharedScaledMax single = %v, want 3", got)
	}
	if got := sm([]float64{3, 1}); got != 6 {
		t.Fatalf("SharedScaledMax shared = %v, want 6", got)
	}
	for _, f := range []func(){func() { ScaledMax(0.5) }, func() { SharedScaledMax(0.9) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("factor < 1 accepted")
				}
			}()
			f()
		}()
	}
}

func TestFloatHelpers(t *testing.T) {
	if !Eq(1, 1+Eps/2) || Eq(1, 1+3*Eps) {
		t.Fatal("Eq tolerance wrong")
	}
	if !Leq(1, 1) || !Leq(1, 1+Eps/2) || Leq(1+3*Eps, 1) {
		t.Fatal("Leq tolerance wrong")
	}
	if !Less(1, 2) || Less(1, 1+Eps/2) {
		t.Fatal("Less tolerance wrong")
	}
	if !Geq(1, 1) || Geq(1, 1+3*Eps) {
		t.Fatal("Geq tolerance wrong")
	}
	if !Greater(2, 1) || Greater(1+Eps/2, 1) {
		t.Fatal("Greater tolerance wrong")
	}
	if math.IsInf(maxFloat(nil), 0) || maxFloat(nil) != 0 {
		t.Fatal("maxFloat(nil) != 0")
	}
}

func TestWithLinkRatesValidation(t *testing.T) {
	n := chainNet(t)
	if _, err := n.WithLinkRates(nil); err == nil {
		t.Fatal("wrong-length link-rate slice accepted")
	}
	// nil entries keep the original function.
	n2, err := n.WithLinkRates([]LinkRateFunc{nil})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocation(n2)
	a.SetRate(0, 0, 2)
	a.SetRate(0, 1, 1)
	if got := a.SessionLinkRate(0, 0); !Eq(got, 2) {
		t.Fatalf("nil entry changed the link rate: %v", got)
	}
}

func TestMultiSenderWalkValidation(t *testing.T) {
	// A walk valid only from the extra sender must be accepted; a walk
	// valid from neither must be rejected.
	g := NewGraph(3)
	g.AddLink(0, 1, 5) // l0
	g.AddLink(2, 1, 5) // l1
	s := &Session{Sender: 0, ExtraSenders: []int{2}, Receivers: []int{1},
		Type: MultiRate, MaxRate: NoRateCap}
	if _, err := NewNetwork(g, []*Session{s}, [][][]int{{{1}}}); err != nil {
		t.Fatalf("extra-sender walk rejected: %v", err)
	}
	bad := &Session{Sender: 0, ExtraSenders: []int{1}, Receivers: []int{2},
		Type: MultiRate, MaxRate: NoRateCap}
	if _, err := NewNetwork(g, []*Session{bad}, [][][]int{{{0}}}); err == nil {
		t.Fatal("invalid walk accepted")
	}
}

// TestPathRunIndex: receivers sharing a host and a path slice form a
// run that the incidence index counts with multiplicity; slices with
// equal contents but different backing arrays, or another host, break
// the run. The incidence is the same as with every path copied,
// including a link repeated within one abstract path, which still
// lists each receiver once.
func TestPathRunIndex(t *testing.T) {
	g := NewGraph(7)
	for j := 0; j < 3; j++ {
		g.AddLink(1+2*j, 2+2*j, 5)
	}
	p, q := []int{0, 1, 0}, []int{2}
	abstract := &Session{Sender: -1, Receivers: []int{-1, -1, -1, -1, -1, -1}, Type: MultiRate, MaxRate: NoRateCap}
	aliased := [][]int{p, p, p, q, p, {0, 1, 0}}
	n, err := NewNetwork(g, []*Session{abstract}, [][][]int{aliased})
	if err != nil {
		t.Fatal(err)
	}
	var runs []int
	for k := 0; k < 6; k += n.PathRun(0, k) {
		runs = append(runs, n.PathRun(0, k))
	}
	if fmt.Sprint(runs) != "[3 1 1 1]" {
		t.Fatalf("runs = %v, want [3 1 1 1]", runs)
	}
	copied := make([][]int, len(aliased))
	for k, a := range aliased {
		copied[k] = append([]int(nil), a...)
	}
	c, err := NewNetwork(g, []*Session{abstract}, [][][]int{copied})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.NumLinks(); j++ {
		if !reflect.DeepEqual(n.OnLink(j), c.OnLink(j)) || n.ReceiversCrossing(j) != c.ReceiversCrossing(j) {
			t.Fatalf("link %d: aliased %v (%d), copied %v (%d)", j,
				n.OnLink(j), n.ReceiversCrossing(j), c.OnLink(j), c.ReceiversCrossing(j))
		}
	}
	if got := n.OnLink(0)[0].Receivers; fmt.Sprint(got) != "[0 1 2 4 5]" {
		t.Fatalf("OnLink(0) receivers = %v, want [0 1 2 4 5]", got)
	}
}
