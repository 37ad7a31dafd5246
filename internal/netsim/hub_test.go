package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
)

// engineOf builds cfg's one-group engine without running it.
func engineOf(t *testing.T, cfg Config) *engine {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, cfg.Network.NumSessions())
	for i := range ids {
		ids[i] = i
	}
	e, err := newEngineFor(cfg, ids, cfg.Churn, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hubsOf lists the session's leaf hubs by internal node id.
func hubsOf(s *sessState) []int32 {
	var hubs []int32
	for nd := range int32(len(s.wide)) {
		if s.isHub(nd) {
			hubs = append(hubs, nd)
		}
	}
	return hubs
}

// hubTree is a one-session network on a hand-built tree: node 0 sends,
// parent[i] is node i's parent, and receivers lists the receiver nodes
// (a node may host several).
func hubTree(t *testing.T, parent, receivers []int) Config {
	t.Helper()
	g := netmodel.NewGraph(len(parent))
	for i := 1; i < len(parent); i++ {
		g.AddLink(parent[i], i, 1)
	}
	s := &netmodel.Session{Sender: 0, Receivers: receivers, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	net, err := routing.BuildNetwork(g, []*netmodel.Session{s})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Network:  net,
		Sessions: []SessionConfig{{Protocol: protocol.Uncoordinated, Layers: 4}},
		Packets:  100,
		Seed:     1,
	}
}

// TestLeafHubs pins hub selection: a node is a leaf hub when it is wide
// and every child edge enters a childless node hosting one receiver
// over a Perfect or plain Bernoulli link, and is no cut edge.
func TestLeafHubs(t *testing.T) {
	starOf := func(n int, mut func(cfg *Config)) Config {
		cfg := star(t, n, 0.01, 0.04, protocol.Uncoordinated, 4, 100, 1)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	// 20 leaves below node 1, the sender's only child.
	parent, receivers := []int{0, 0}, []int(nil)
	for k := 0; k < 20; k++ {
		parent = append(parent, 1)
		receivers = append(receivers, 2+k)
	}
	deep := append(append([]int{}, parent...), 2) // node 22 hangs below leaf 2
	cases := []struct {
		name string
		cfg  Config
		want int32 // the hub's node id, -1 for none
	}{
		{"star 40", starOf(40, nil), 1},
		{"star 17", starOf(17, nil), 1},
		{"star 16 is narrow", starOf(16, nil), -1},
		{"Perfect leaves", starOf(40, func(cfg *Config) {
			for j := 1; j < len(cfg.Links); j++ {
				cfg.Links[j] = LinkSpec{}
			}
		}), 1},
		{"a leaf with a loss table", starOf(40, func(cfg *Config) {
			cfg.Links[7] = LinkSpec{Kind: Bernoulli, LayerLoss: []float64{0.1}}
		}), -1},
		{"a Capacity leaf", starOf(40, func(cfg *Config) {
			cfg.Links[7] = LinkSpec{Kind: Capacity, Capacity: 8}
		}), -1},
		{"a DropTail leaf", starOf(40, func(cfg *Config) {
			cfg.Links[7] = LinkSpec{Kind: DropTail, Capacity: 8}
		}), -1},
		{"DropTail shared link", starOf(40, func(cfg *Config) {
			cfg.Links[0] = LinkSpec{Kind: DropTail, Capacity: 8, Delay: 0.1}
		}), 1},
		{"leaves cut off", starOf(40, func(cfg *Config) {
			cfg.Shards = 1
			for j := 1; j < len(cfg.Links); j++ {
				cfg.CutLinks = append(cfg.CutLinks, j)
			}
		}), -1},
		// One subtree is no partition, so this cut changes nothing.
		{"one cut above the hub", starOf(40, func(cfg *Config) {
			cfg.Shards = 1
			cfg.CutLinks = []int{0}
		}), 1},
		{"sender as hub", rootHubCfg(t, protocol.Deterministic, 1), 0},
		{"hand-built leaves", hubTree(t, parent, receivers), 1},
		{"a leaf hosting two receivers", hubTree(t, parent, append([]int{2}, receivers...)), -1},
		{"a child with a child", hubTree(t, deep, append(slices.Clone(receivers), 22)), -1},
	}
	for _, tc := range cases {
		got := hubsOf(&engineOf(t, tc.cfg).sess[0])
		if tc.want < 0 && len(got) != 0 || tc.want >= 0 && (len(got) != 1 || got[0] != tc.want) {
			t.Errorf("%s: hubs %v, want node %d", tc.name, got, tc.want)
		}
	}
}

// TestLingerListsMatchWindows steps linger sessions one transmission at
// a time and checks each (node, layer) list against the windows it
// stands for: a linked entry is an edge that has abandoned the layer,
// in closing order, and the entries still open are exactly the child
// edges that scanning every child would count — unsubscribed from the
// layer, with a window closing after now.
func TestLingerListsMatchWindows(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	var cfgs []Config
	for range 8 {
		cfgs = append(cfgs, randomConfig(rng))
	}
	cfgs = append(cfgs, wideStars(t, 6)...)
	checked := 0
	for ci, cfg := range cfgs {
		cfg.LeaveLatency = 0.5 + float64(ci%4)
		cfg.Packets = min(cfg.Packets, 1500)
		e := engineOf(t, cfg)
		for n := 1; n <= cfg.Packets; n++ {
			e.run(n)
			for si := range e.sess {
				checked += checkLingerLists(t, ci, &e.sess[si], e.now)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no open linger window was ever checked")
	}
	t.Logf("%d open windows checked", checked)
}

// checkLingerLists checks every list of s at instant now and returns how
// many open windows it saw.
func checkLingerLists(t *testing.T, ci int, s *sessState, now float64) int {
	t.Helper()
	open := 0
	for nd := range int32(len(s.wide)) {
		for v := int32(0); v < s.m; v++ {
			h := int32(len(s.linger)) + nd<<s.rowShift + v
			listed := map[int32]bool{}
			last := 0.0
			for i := s.lingerNext[h]; i != h; i = s.lingerNext[i] {
				eid := i >> s.rowShift
				if i&(1<<s.rowShift-1) != v || s.parent[s.hot[eid].gtOff>>s.rowShift] != nd {
					t.Fatalf("config %d: entry %d in list (%d, %d)", ci, i, nd, v)
				}
				if s.edgeSub[eid] > v {
					t.Fatalf("config %d: edge %d subscribes to layer %d but is listed", ci, eid, v)
				}
				if s.linger[i] < last {
					t.Fatalf("config %d: list (%d, %d) out of closing order", ci, nd, v)
				}
				last = s.linger[i]
				if s.linger[i] > now {
					listed[eid] = true
				}
			}
			for eid := s.edgeStart[nd]; eid < s.edgeStart[nd+1]; eid++ {
				scan := s.edgeSub[eid] <= v && s.linger[eid<<s.rowShift+v] > now
				if scan != listed[eid] {
					t.Fatalf("config %d: edge %d layer %d at %v: open window %v, listed %v", ci, eid, v, now, scan, listed[eid])
				}
			}
			open += len(listed)
		}
	}
	return open
}
