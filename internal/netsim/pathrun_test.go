package netsim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/topology"
)

// unaliased rebuilds net with every data-path deep-copied, so no two
// receivers share a path slice and every PathRun has length one.
func unaliased(t *testing.T, net *netmodel.Network) *netmodel.Network {
	t.Helper()
	paths := make([][][]int, net.NumSessions())
	for i := range paths {
		paths[i] = make([][]int, net.Session(i).NumReceivers())
		for k := range paths[i] {
			paths[i][k] = slices.Clone(net.Path(i, k))
		}
	}
	c, err := netmodel.NewNetwork(net.Graph(), net.Sessions(), paths)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPathAliasingIsOnlyAShortcut: Planetary aliases one path slice per
// PoP, and every pass over data-paths walks such a run once. The same
// network with every path deep-copied takes the per-receiver route
// through the same code, and must give identical link incidence (the
// same maximal receiver ranges: PoP 0's access link holds [0,16) either
// way), memory plans and Results, sequential and sharded with the
// access cut.
func TestPathAliasingIsOnlyAShortcut(t *testing.T) {
	aliased, firstAccess, err := topology.Planetary(rand.New(rand.NewPCG(11, 11)), topology.PlanetaryOptions{
		Regions: 2, CoreNodes: 12, PoPs: 40, ReceiversPerPoP: 16, CoreCap: 64, AccessCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	copied := unaliased(t, aliased)
	if aliased.PathRun(0, 0) != 16 || copied.PathRun(0, 0) != 1 {
		t.Fatalf("PathRun(0, 0): aliased %d, copied %d; want 16 and 1", aliased.PathRun(0, 0), copied.PathRun(0, 0))
	}
	if got := fmt.Sprint(copied.OnLink(firstAccess)); got != "[{0 [[0,16)]}]" {
		t.Fatalf("OnLink(%d) = %s, want [{0 [[0,16)]}]", firstAccess, got)
	}
	for j := 0; j < aliased.NumLinks(); j++ {
		if !reflect.DeepEqual(aliased.OnLink(j), copied.OnLink(j)) {
			t.Fatalf("link %d: OnLink differs between aliased and copied paths", j)
		}
		if a, c := aliased.ReceiversCrossing(j), copied.ReceiversCrossing(j); a != c {
			t.Fatalf("link %d: ReceiversCrossing %d aliased, %d copied", j, a, c)
		}
	}
	cfgOf := func(net *netmodel.Network, shards int) Config {
		cfg := lossyCfg(net, rand.New(rand.NewPCG(3, 3)), 4000)
		cfg.Shards = shards
		if shards > 0 {
			cfg.CutLinks = topology.PlanetaryCutFrontier(firstAccess, net.NumLinks())
		}
		return cfg
	}
	for _, shards := range []int{0, 2} {
		a, c := cfgOf(aliased, shards), cfgOf(copied, shards)
		pa, err := PlanMemory(a)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := PlanMemory(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pc) {
			t.Fatalf("Shards=%d: plan %s aliased, %s copied", shards, pa, pc)
		}
		if shards > 0 && pa.Subtrees == 0 {
			t.Fatalf("Shards=%d: access cut planned no subtrees", shards)
		}
		ra, err := Run(a)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rc) {
			t.Fatalf("Shards=%d: Result differs between aliased and copied paths", shards)
		}
	}
}

// TestAliasedPathChecksStillRun: a run only spans receivers at one
// host, so an aliased path handed to a receiver at another host is
// still validated (and rejected) on its own; and a run ends at the
// first path that is not the same slice, so a non-tree path between
// two runs of one aliased slice is still walked (and rejected).
func TestAliasedPathChecksStillRun(t *testing.T) {
	net, _, err := topology.Planetary(rand.New(rand.NewPCG(11, 11)), topology.PlanetaryOptions{
		Regions: 1, CoreNodes: 6, PoPs: 4, ReceiversPerPoP: 8, CoreCap: 64, AccessCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := *net.Session(0)
	s.Receivers = slices.Clone(s.Receivers)
	s.Receivers[5] = s.Receivers[8] // mid-run of PoP 0, moved to PoP 1
	paths := [][][]int{make([][]int, len(s.Receivers))}
	for k := range paths[0] {
		paths[0][k] = net.Path(0, k)
	}
	if _, err := netmodel.NewNetwork(net.Graph(), []*netmodel.Session{&s}, paths); err == nil || !strings.Contains(err.Error(), "receiver 5:") {
		t.Fatalf("an aliased path at another receiver's host was not rejected at receiver 5: %v", err)
	}

	// Sender 0 reaches node 2 through node 1 over one of two parallel
	// links: receivers 0-2 and 4-6 share one path slice, receiver 3 in
	// between takes the other link. Every path is a valid walk, but the
	// union is no tree.
	g := netmodel.NewGraph(3)
	l01 := g.AddLink(0, 1, 10)
	l12 := g.AddLink(1, 2, 10)
	l12b := g.AddLink(1, 2, 10)
	shared := []int{l01, l12}
	hand := &netmodel.Session{Sender: 0, Receivers: []int{2, 2, 2, 2, 2, 2, 2}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	hp := [][][]int{{shared, shared, shared, {l01, l12b}, shared, shared, shared}}
	hn, err := netmodel.NewNetwork(g, []*netmodel.Session{hand}, hp)
	if err != nil {
		t.Fatal(err)
	}
	if hn.PathRun(0, 0) != 3 || hn.PathRun(0, 3) != 1 || hn.PathRun(0, 4) != 3 {
		t.Fatalf("runs %d/%d/%d, want 3/1/3", hn.PathRun(0, 0), hn.PathRun(0, 3), hn.PathRun(0, 4))
	}
	for _, shards := range []int{0, 1} {
		cfg := Config{Network: hn, Sessions: []SessionConfig{{Protocol: protocol.Deterministic, Layers: 2}}, Packets: 10, Shards: shards}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "do not form a tree") {
			t.Fatalf("Shards=%d: non-tree path between aliased runs accepted: %v", shards, err)
		}
	}
}
