// Package topology provides the concrete networks of the paper's figures
// and parameterized topology generators (stars, chains, trees, random
// networks) used by the experiment harness, tests and benchmarks.
//
// Figure networks are reconstructed from the paper's link annotations;
// each constructor's comment gives the link incidence it reconstructs.
// Each returns a Named wrapper exposing link indices by their paper
// names (l1..l4) so experiments read like the text.
package topology

import (
	"mlfair/internal/netmodel"
	"mlfair/internal/routing"
)

// Named is a network with paper-style link names attached.
type Named struct {
	*netmodel.Network
	// Links maps a paper label ("l1") to the link index.
	Links map[string]int
}

// LinkIndex returns the index for a paper link label, panicking on
// unknown labels (these are fixed fixtures; a typo is a programming
// error).
func (n *Named) LinkIndex(label string) int {
	j, ok := n.Links[label]
	if !ok {
		panic("topology: unknown link label " + label)
	}
	return j
}

// Figure1 builds the sample network of Figure 1: three multi-rate
// sessions on a five-node graph.
//
//	SA(X1,X2) --l2:7-- J --l4:3-- E(r1,1 r2,1 r3,1)
//	SB(X3)    --l1:5-- J --l3:4-- F(r2,2 r3,2)
//
// The multi-rate max-min fair allocation is a1=(1), a2=(1,2), a3=(1,2)
// with session link rates l1=(0:0:2), l2=(1:2:0), l3=(0:2:2),
// l4=(1:1:1), matching the figure's annotations.
func Figure1() *Named {
	const (
		sa = iota // X1, X2
		sb        // X3
		j         // junction
		e         // r1,1 r2,1 r3,1
		f         // r2,2 r3,2
	)
	g := netmodel.NewGraph(5)
	l1 := g.AddLink(sb, j, 5)
	l2 := g.AddLink(sa, j, 7)
	l3 := g.AddLink(j, f, 4)
	l4 := g.AddLink(j, e, 3)
	sessions := []*netmodel.Session{
		{Sender: sa, Receivers: []int{e}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap},
		{Sender: sa, Receivers: []int{e, f}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap},
		{Sender: sb, Receivers: []int{e, f}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap},
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		panic("topology: Figure1: " + err.Error())
	}
	return &Named{Network: net, Links: map[string]int{"l1": l1, "l2": l2, "l3": l3, "l4": l4}}
}

// Figure2 builds the network of Figure 2: S1 (three receivers, typed by
// the argument) and the unicast S2 whose receiver shares r1,1's
// data-path.
//
//	S(X1,X2) --l1:5-- A --l4:6-- B(r1,1 r2,1)
//	S        --l2:2-- C(r1,2)
//	S        --l3:3-- D(r1,3)
//
// With S1 single-rate the max-min fair allocation is a1=(2,2,2), a2=3 —
// the configuration of Section 2.3 in which three of the four fairness
// properties fail. With S1 multi-rate it is a1=(2.5,2,3), a2=2.5.
// κ values are 100 as in the paper ("large enough not to bind").
func Figure2(s1Type netmodel.SessionType) *Named {
	const (
		s = iota
		a
		bNode
		c
		d
	)
	g := netmodel.NewGraph(5)
	l1 := g.AddLink(s, a, 5)
	l2 := g.AddLink(s, c, 2)
	l3 := g.AddLink(s, d, 3)
	l4 := g.AddLink(a, bNode, 6)
	sessions := []*netmodel.Session{
		{Sender: s, Receivers: []int{bNode, c, d}, Type: s1Type, MaxRate: 100},
		{Sender: s, Receivers: []int{bNode}, Type: netmodel.MultiRate, MaxRate: 100},
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		panic("topology: Figure2: " + err.Error())
	}
	return &Named{Network: net, Links: map[string]int{"l1": l1, "l2": l2, "l3": l3, "l4": l4}}
}

// Figure4 builds the network of Figure 4: the Figure 2 population
// rearranged so every S1 receiver crosses the shared first-hop l4, with
// S1 multi-rate but carrying redundancy "factor" on links shared by two
// or more of its receivers (the paper uses factor 2).
//
//	S(X1,X2) --l4:6-- A --l1:5-- B(r1,1 r2,1)
//	                  A --l2:2-- C(r1,2)
//	                  A --l3:3-- D(r1,3)
//
// With factor 2 the max-min fair rates are all 2 and u on l4 is (4:2),
// fully utilizing it; per-session-link-fairness fails for S2.
func Figure4(factor float64) *Named {
	const (
		s = iota
		a
		bNode
		c
		d
	)
	g := netmodel.NewGraph(5)
	l4 := g.AddLink(s, a, 6)
	l1 := g.AddLink(a, bNode, 5)
	l2 := g.AddLink(a, c, 2)
	l3 := g.AddLink(a, d, 3)
	sessions := []*netmodel.Session{
		{Sender: s, Receivers: []int{bNode, c, d}, Type: netmodel.MultiRate, MaxRate: 100,
			LinkRate: netmodel.SharedScaledMax(factor)},
		{Sender: s, Receivers: []int{bNode}, Type: netmodel.MultiRate, MaxRate: 100},
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		panic("topology: Figure4: " + err.Error())
	}
	return &Named{Network: net, Links: map[string]int{"l1": l1, "l2": l2, "l3": l3, "l4": l4}}
}

// Figure3a builds a network exhibiting Figure 3(a)'s phenomenon: removing
// receiver r3,2 *decreases* its session peer r3,1 and increases r1,1.
// (The paper's own capacities are not fully legible in the archival copy;
// this reconstruction reproduces the phenomenon exactly, as
// TestFigure3aRemovalShifts checks.)
//
// Abstract incidence: lA(c=4):{r2,1 r3,2}, lB(c=10):{r2,1 r3,1},
// lD(c=5):{r1,1 r3,2}.
//
// Max-min fair rates before removal: a1=3, a2=2, a3=(8,2);
// after removing r3,2: a1=5, a2=4, a3=(6).
func Figure3a() *Named {
	b := netmodel.NewBuilder()
	lA := b.AddLink(4)
	lB := b.AddLink(10)
	lD := b.AddLink(5)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s3 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s1, 0, lD)
	b.SetPath(s2, 0, lA, lB)
	b.SetPath(s3, 0, lB)
	b.SetPath(s3, 1, lA, lD)
	return &Named{Network: b.MustBuild(), Links: map[string]int{"lA": lA, "lB": lB, "lD": lD}}
}

// Figure3b builds a network exhibiting Figure 3(b)'s phenomenon: removing
// r3,2 *increases* its session peer r3,1 and decreases r1,1.
//
// Abstract incidence: lA(c=4):{r2,1 r3,2}, lB(c=7):{r2,1 r1,1},
// lD(c=12):{r1,1 r3,1}.
//
// Max-min fair rates before removal: a1=5, a2=2, a3=(7,2);
// after removing r3,2: a1=3.5, a2=3.5, a3=(8.5).
func Figure3b() *Named {
	b := netmodel.NewBuilder()
	lA := b.AddLink(4)
	lB := b.AddLink(7)
	lD := b.AddLink(12)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s3 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s1, 0, lB, lD)
	b.SetPath(s2, 0, lA, lB)
	b.SetPath(s3, 0, lD)
	b.SetPath(s3, 1, lA)
	return &Named{Network: b.MustBuild(), Links: map[string]int{"lA": lA, "lB": lB, "lD": lD}}
}

// SingleLink builds the Section 3 example substrate: one link of
// capacity c crossed by two unicast layered sessions. The fixed-layer
// rate sets (c/3 per layer × 3 vs c/2 per layer × 2) live in the
// layering package; this provides the network.
func SingleLink(c float64) *Named {
	b := netmodel.NewBuilder()
	l := b.AddLink(c)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	return &Named{Network: b.MustBuild(), Links: map[string]int{"l": l}}
}
