package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/topology"
)

// lossyCfg configures every session of net with a random protocol and
// every link with a random lossy model (Bernoulli or Capacity), so
// drops, congestion notifications and redundancies above one all occur.
func lossyCfg(net *netmodel.Network, rng *rand.Rand, packets int) Config {
	cfg := Config{
		Network:  net,
		Links:    make([]LinkSpec, net.NumLinks()),
		Sessions: make([]SessionConfig, net.NumSessions()),
		Packets:  packets,
		Seed:     rng.Uint64(),
	}
	for j := range cfg.Links {
		if rng.IntN(2) == 0 {
			cfg.Links[j] = LinkSpec{Kind: Bernoulli, Loss: 0.01 + 0.1*rng.Float64()}
		} else {
			cfg.Links[j] = LinkSpec{Kind: Capacity, Capacity: 2 + 30*rng.Float64()}
		}
	}
	for i := range cfg.Sessions {
		cfg.Sessions[i] = SessionConfig{Protocol: protocol.Kinds()[rng.IntN(3)], Layers: 2 + rng.IntN(6)}
	}
	return cfg
}

// downstreamCases are the networks the downstream-set and redundancy
// invariants are checked on: random scale-free graphs, fat-trees and
// routed random graphs (many sessions sharing links, one shard group
// or a few), a multi-region planetary network (link-disjoint groups
// whose subtrees are cut at the access links, so sharded runs take the
// merged result fold), and a scale-free single session cut below depth
// two (drops inside a fan-out subtree notify on the subtree's walker).
func downstreamCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	type tc = struct {
		name string
		cfg  Config
	}
	var cases []tc
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		sf := topology.DefaultScaleFreeOptions()
		sf.Nodes, sf.Sessions, sf.MaxReceivers = 60+rng.IntN(60), 6, 20
		sfNet, err := topology.ScaleFree(rng, sf)
		if err != nil {
			t.Fatal(err)
		}
		ft := topology.DefaultFatTreeOptions()
		ft.K, ft.Sessions = 4, 5
		ftNet, err := topology.FatTree(rng, ft)
		if err != nil {
			t.Fatal(err)
		}
		ro := topology.DefaultRandomOptions()
		ro.Nodes, ro.ExtraLinks, ro.Sessions, ro.MaxReceivers = 20, 6, 5, 8
		cases = append(cases,
			tc{"scale-free", lossyCfg(sfNet, rng, 3000)},
			tc{"fat-tree", lossyCfg(ftNet, rng, 3000)},
			tc{"routed", lossyCfg(topology.RandomNetwork(rng, ro), rng, 3000)},
		)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	pl, firstAccess, err := topology.Planetary(rng, topology.PlanetaryOptions{
		Regions: 3, CoreNodes: 8, PoPs: 24, ReceiversPerPoP: 8, CoreCap: 64, AccessCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	plCfg := lossyCfg(pl, rng, 3000)
	plCfg.CutLinks = topology.PlanetaryCutFrontier(firstAccess, pl.NumLinks())
	cases = append(cases, tc{"planetary", plCfg}, tc{"scale-free-cut", scaleFreeCfg(t, 1500, 4)})
	return cases
}

// dfsReceivers lists the receivers of s's subtree rooted at node nd in
// the order a recursive walk visits them: the node's own receivers,
// then each child's subtree in CSR edge order.
func dfsReceivers(s *sessState, nd int32, out []int32) []int32 {
	out = append(out, s.recvList[s.recvStart[nd]:s.recvStart[nd+1]]...)
	for eid := s.edgeStart[nd]; eid < s.edgeStart[nd+1]; eid++ {
		out = dfsReceivers(s, s.hot[eid].gtOff>>s.rowShift, out)
	}
	return out
}

// TestDownstreamMatchesOnLink pins the invariant the per-edge
// downstream ranges rest on: the receivers notifyLoss visits for a tree
// edge (a range of the pre-order receiver list) are exactly the
// session's OnLink set for the edge's link, in the order a walk of the
// subtree below the edge visits them. Every (link, session) pair in
// OnLink is some tree edge, so the sets cover OnLink completely.
func TestDownstreamMatchesOnLink(t *testing.T) {
	for _, tc := range downstreamCases(t) {
		net := tc.cfg.Network
		all := make([]int, net.NumSessions())
		for i := range all {
			all[i] = i
		}
		e, err := newEngineFor(tc.cfg, all, tc.cfg.Churn, tc.cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		segs := make([]int, net.NumSessions())
		for j := 0; j < net.NumLinks(); j++ {
			for _, sr := range net.OnLink(j) {
				segs[sr.Session]++
			}
		}
		for i := range e.sess {
			s := &e.sess[i]
			if len(s.hot) != segs[i] {
				t.Fatalf("%s session %d: %d tree edges, %d OnLink segments", tc.name, i, len(s.hot), segs[i])
			}
			for eid := range s.hot {
				got := s.downstream(int32(eid))
				if walk := dfsReceivers(s, s.hot[eid].gtOff>>s.rowShift, nil); !slices.Equal(got, walk) {
					t.Fatalf("%s session %d edge %d: downstream %v, subtree walk %v", tc.name, i, eid, got, walk)
				}
				var want []int
				for _, sr := range net.OnLink(int(s.hot[eid].link)) {
					if sr.Session == i {
						want = slices.Collect(sr.All())
					}
				}
				set := make([]int, len(got))
				for x, k := range got {
					set[x] = int(k)
				}
				slices.Sort(set)
				if !slices.Equal(set, want) {
					t.Fatalf("%s session %d link %d: downstream %v, OnLink %v", tc.name, i, s.hot[eid].link, set, want)
				}
			}
		}
	}
}

// TestRedundancyMatchesOnLinkReference: every LinkStats.Redundancy
// equals Definition 3 computed the direct way — the link rate over the
// best goodput among the session's OnLink receivers — bit for bit, on
// the sequential engine and on sharded runs (single-group, merged
// multi-group, and subtree-partitioned).
func TestRedundancyMatchesOnLinkReference(t *testing.T) {
	lossy := 0
	for _, tc := range downstreamCases(t) {
		net := tc.cfg.Network
		for _, shards := range []int{0, 1, 3} {
			cfg := tc.cfg
			cfg.Shards = shards
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s Shards=%d: %v", tc.name, shards, err)
			}
			at := 0
			for j := 0; j < net.NumLinks(); j++ {
				for _, sr := range net.OnLink(j) {
					if at >= len(res.Links) {
						t.Fatalf("%s Shards=%d: %d LinkStats, OnLink has more", tc.name, shards, len(res.Links))
					}
					ls := res.Links[at]
					at++
					if ls.Link != j || ls.Session != sr.Session || ls.DownstreamReceivers != sr.Len() {
						t.Fatalf("%s Shards=%d: LinkStats %+v out of OnLink order at link %d session %d", tc.name, shards, ls, j, sr.Session)
					}
					best := 0.0
					for k := range sr.All() {
						best = max(best, res.ReceiverRates[sr.Session][k])
					}
					want := 0.0
					if best > 0 {
						want = float64(ls.Crossed) / res.Duration / best
					}
					if ls.Redundancy != want {
						t.Fatalf("%s Shards=%d link %d session %d: redundancy %v, OnLink reference %v",
							tc.name, shards, j, sr.Session, ls.Redundancy, want)
					}
					if want > 1 {
						lossy++
					}
				}
			}
			if at != len(res.Links) {
				t.Fatalf("%s Shards=%d: %d LinkStats, OnLink has %d", tc.name, shards, len(res.Links), at)
			}
		}
	}
	if lossy == 0 {
		t.Fatal("no link carried redundancy above one; the reference check is vacuous")
	}
}
