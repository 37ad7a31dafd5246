package netsim

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// planetaryOneCfg builds a single-region planetary config — one giant
// session, so it runs as one shard group, and a Shards >= 1 run with
// CutLinks set exercises the intra-session subtree path. Capacity core
// links keep demand tracking live across the frontier; Bernoulli access
// links put RNG draws inside the subtrees.
func planetaryOneCfg(t *testing.T, packets int, seed uint64) (Config, int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 5))
	net, firstAccess, err := topology.Planetary(rng, topology.PlanetaryOptions{
		Regions: 1, CoreNodes: 32, PoPs: 256, ReceiversPerPoP: 32,
		CoreCap: 64, AccessCap: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]LinkSpec, net.NumLinks())
	for j := range specs {
		if j < firstAccess {
			specs[j] = LinkSpec{Kind: Capacity, Capacity: 64}
		} else {
			specs[j] = LinkSpec{Kind: Bernoulli, Loss: 0.01}
		}
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{{Protocol: protocol.Uncoordinated, Layers: 8}},
		Packets:  packets,
		Seed:     seed,
	}, firstAccess
}

// scaleFreeCfg builds a single-session scale-free config with churn so
// churn and signals interleave with the subtree walks. ScaleFree draws
// each session's receiver count uniformly in 1..MaxReceivers, so the
// helper walks deterministic topology seeds until the draw is large
// (expected a handful of tries). The config cuts every distinct
// depth-2 tree link, which gives wildly unequal subtree sizes.
func scaleFreeCfg(t *testing.T, packets int, seed uint64) Config {
	t.Helper()
	o := topology.DefaultScaleFreeOptions()
	o.Nodes = 6000
	o.Sessions = 1
	o.MaxReceivers = 5900
	var net *netmodel.Network
	for ts := uint64(3); ; ts++ {
		n, err := topology.ScaleFree(rand.New(rand.NewPCG(ts, ts)), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Session(0).Receivers) >= 4500 {
			net = n
			break
		}
		if ts > 40 {
			t.Fatal("no scale-free seed drew >= 4500 receivers")
		}
	}
	specs := make([]LinkSpec, net.NumLinks())
	for j := range specs {
		specs[j] = LinkSpec{Kind: Bernoulli, Loss: 0.02}
	}
	cfg := Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{{Protocol: protocol.Coordinated, Layers: 8}},
		Packets:  packets,
		Seed:     seed,
		CutLinks: depth2Cut(net),
	}
	cfg.Churn = []ChurnEvent{
		{Time: 2, Session: 0, Receiver: 7, Join: false},
		{Time: 4, Session: 0, Receiver: 7, Join: true},
		{Time: 3, Session: 0, Receiver: 4400, Join: false},
	}
	return cfg
}

// depth2Cut lists every distinct second link of session 0's receiver
// paths: a frontier one hop below the sender's children, whose subtrees
// hold inner links of their own.
func depth2Cut(net *netmodel.Network) []int {
	seen := make(map[int]bool)
	var cut []int
	for k := range net.Session(0).Receivers {
		if p := net.Path(0, k); len(p) >= 2 && !seen[p[1]] {
			seen[p[1]] = true
			cut = append(cut, p[1])
		}
	}
	return cut
}

// partitionOf builds the (single-group) shard engine for cfg and
// returns its subtree partition, nil if sharding declined to cut.
func partitionOf(t *testing.T, cfg Config) *treePartition {
	t.Helper()
	e, err := newEngineFor(cfg, []int{0}, nil, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return e.part
}

// TestSubtreeShardInvariance is the partition's contract on the
// planetary shape: a single-session tree cut one hop below the sender's
// children, so subtrees hold Capacity core links and lossy access links
// of their own, yields the byte-identical Result at every Shards >= 1.
func TestSubtreeShardInvariance(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 20000, 9)
	cfg.CutLinks = depth2Cut(cfg.Network)
	cfg.Shards = 1
	if p := partitionOf(t, cfg); p == nil {
		t.Fatal("depth-2 frontier declined to cut the planetary tree")
	} else if p.numSub < 2 {
		t.Fatalf("numSub = %d", p.numSub)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.PacketsSent != 20000 || want.Events == 0 {
		t.Fatalf("degenerate reference run: sent=%d events=%d", want.PacketsSent, want.Events)
	}
	for _, shards := range []int{2, 3, 4, 8} {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Shards=%d diverged from Shards=1", shards)
		}
	}
}

// TestSubtreeShardInvarianceScaleFree repeats the invariance check on a
// generic scale-free tree (explicit depth-2 frontier with wildly
// unequal subtree sizes, Coordinated signals and churn interleaving the
// transmission walks) across seeds.
func TestSubtreeShardInvarianceScaleFree(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := scaleFreeCfg(t, 8000, seed)
		cfg.Shards = 1
		if p := partitionOf(t, cfg); p == nil {
			t.Fatal("explicit depth-2 frontier declined to cut the scale-free tree")
		} else if p.numSub < 2 {
			t.Fatalf("numSub = %d", p.numSub)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 4
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Shards=4 diverged from Shards=1", seed)
		}
	}
}

// TestSubtreeExplicitCutFrontier drives the planetary access-link
// frontier through Config.CutLinks: the partition must cut exactly one
// subtree per PoP, and the Result must again be invariant in Shards.
func TestSubtreeExplicitCutFrontier(t *testing.T) {
	cfg, firstAccess := planetaryOneCfg(t, 12000, 11)
	cfg.CutLinks = topology.PlanetaryCutFrontier(firstAccess, cfg.Network.NumLinks())
	cfg.Shards = 1
	p := partitionOf(t, cfg)
	if p == nil {
		t.Fatal("explicit frontier declined to cut")
	}
	if p.numSub != 256 { // one subtree per PoP
		t.Fatalf("numSub = %d, want 256", p.numSub)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 6} {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Shards=%d diverged from Shards=1", shards)
		}
	}
}

// starOfStarsCfg is a tiny three-hub tree: sender -> 3 hubs -> leaves.
// The hub links (0, 1, 2 in construction order) make a natural explicit
// frontier of exactly three subtrees.
func starOfStarsCfg(t *testing.T, leaves, packets int, seed uint64) Config {
	t.Helper()
	g := netmodel.NewGraph(1 + 3 + 3*leaves)
	var specs []LinkSpec
	receivers := make([]int, 0, 3*leaves)
	for h := 0; h < 3; h++ {
		g.AddLink(0, 1+h, 1)
		specs = append(specs, LinkSpec{Kind: Bernoulli, Loss: 0.02})
	}
	for h := 0; h < 3; h++ {
		for x := 0; x < leaves; x++ {
			nd := 4 + h*leaves + x
			g.AddLink(1+h, nd, 1)
			specs = append(specs, LinkSpec{Kind: Bernoulli, Loss: 0.04})
			receivers = append(receivers, nd)
		}
	}
	sess := []*netmodel.Session{{Sender: 0, Receivers: receivers,
		Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}}
	net, err := routing.BuildNetwork(g, sess)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{{Protocol: protocol.Deterministic, Layers: 6}},
		Packets:  packets,
		Seed:     seed,
	}
}

// TestSubtreeDegenerateTrees: shapes the partition must decline — a
// single-edge tree (no interior to cut, even with its link listed) and
// a frontier that swallows the whole tree in one subtree — fall back to
// the plain single-group
// engine, whose group 0 keeps the base seed: the sharded Result is then
// byte-identical to the sequential Shards == 0 run.
func TestSubtreeDegenerateTrees(t *testing.T) {
	// Single edge: sender -> one receiver.
	g := netmodel.NewGraph(2)
	g.AddLink(0, 1, 1)
	sess := []*netmodel.Session{{Sender: 0, Receivers: []int{1},
		Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}}
	net, err := routing.BuildNetwork(g, sess)
	if err != nil {
		t.Fatal(err)
	}
	single := Config{
		Network:  net,
		Links:    []LinkSpec{{Kind: Bernoulli, Loss: 0.05}},
		Sessions: []SessionConfig{{Protocol: protocol.Deterministic, Layers: 4}},
		Packets:  2000,
		Seed:     3,
		CutLinks: []int{0},
	}
	// Whole-tree frontier: cutting the root's hub links... on a chain,
	// cutting the root edge makes the entire tree one subtree.
	chain := starOfStarsCfg(t, 8, 4000, 7)
	chainCut := chain
	chainCut.CutLinks = []int{0} // one cut edge -> numSub == 1 -> decline
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-edge", single},
		{"whole-tree-one-subtree", chainCut},
	} {
		seq, err := Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := tc.cfg
		sh.Shards = 4
		if p := partitionOf(t, sh); p != nil {
			t.Fatalf("%s: partition engaged (%d subtrees), want decline", tc.name, p.numSub)
		}
		got, err := Run(sh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("%s: degenerate sharded run diverged from sequential", tc.name)
		}
	}
}

// TestSubtreeAutoFrontierDeclinesSmall: there is no automatic cut
// frontier. Without CutLinks a single-session group is never
// partitioned, however large its tree, so the planetary tree (8192
// receivers) gives one Result at Shards 0, 2 and 64: the sharded
// single-group run is the sequential engine.
func TestSubtreeAutoFrontierDeclinesSmall(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 6000, 2)
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 64} {
		cfg.Shards = shards
		if p := partitionOf(t, cfg); p != nil {
			t.Fatalf("Shards=%d: a tree without CutLinks was cut into %d subtrees", shards, p.numSub)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("Shards=%d diverged from Shards=0", shards)
		}
	}
}

// TestSubtreeProbedInvariance extends the invariance contract to probed
// runs: the full Result including the ProbeSeries (ring contents,
// window grid, levels) must be identical for every Shards >= 1 on a
// partitioned single-session tree.
func TestSubtreeProbedInvariance(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 12000, 13)
	cfg.CutLinks = depth2Cut(cfg.Network)
	cfg.Shards = 1
	if partitionOf(t, cfg) == nil {
		t.Fatal("depth-2 frontier declined to cut the planetary tree")
	}
	cfg.Probe = &ProbeConfig{Window: 4, MaxSamples: 64}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Probe == nil || want.Probe.NumSamples() == 0 {
		t.Fatal("no probe samples")
	}
	for _, shards := range []int{2, 4} {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probed Shards=%d diverged from Shards=1", shards)
		}
	}
	// Packet windows shard fine in a single group (the global
	// transmission order is the group's own).
	cfg.Probe = &ProbeConfig{PacketWindow: 500}
	cfg.Shards = 1
	want, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("packet-window probed run diverged across Shards")
	}
}

// TestSubtreeRejectsUnsupportedShapes: DropTail edges and LeaveLatency
// runs must decline the partition (queue events and linger windows
// couple subtrees) and still produce the plain single-group result.
func TestSubtreeRejectsUnsupportedShapes(t *testing.T) {
	dt := starOfStarsCfg(t, 10, 3000, 4)
	dt.Links[0] = LinkSpec{Kind: DropTail, Capacity: 32, Buffer: 8, Delay: 0.01}
	dt.CutLinks = []int{0, 1, 2}
	dt.Shards = 2
	if p := partitionOf(t, dt); p != nil {
		t.Fatal("partition engaged on a DropTail tree")
	}
	ll := starOfStarsCfg(t, 10, 3000, 4)
	ll.LeaveLatency = 0.5
	ll.CutLinks = []int{0, 1, 2}
	ll.Shards = 2
	if p := partitionOf(t, ll); p != nil {
		t.Fatal("partition engaged under LeaveLatency")
	}
}

// TestPlanMemoryCountsSubtrees: PlanMemory replays the same frontier
// newTreePartition cuts, so the planned subtree count must match the
// engine's exactly — explicit planetary frontier and explicit
// scale-free frontier alike — and the plan must decline exactly where
// the engine declines, which without CutLinks is everywhere.
func TestPlanMemoryCountsSubtrees(t *testing.T) {
	auto, firstAccess := planetaryOneCfg(t, 100, 1)
	auto.Shards = 2
	explicit := auto
	explicit.CutLinks = topology.PlanetaryCutFrontier(firstAccess, auto.Network.NumLinks())
	sf := scaleFreeCfg(t, 100, 1)
	sf.Shards = 2
	oneSub := starOfStarsCfg(t, 20, 100, 2)
	oneSub.CutLinks = []int{0} // the whole tree in one subtree
	oneSub.Shards = 2
	// Nil Links: every link Perfect, so the frontier replay must not read
	// a link spec.
	perfect := explicit
	perfect.Links = nil
	for _, tc := range []struct {
		name string
		cfg  Config
		cut  bool // whether the engine partitions
	}{
		{"planetary-auto", auto, false},
		{"planetary-explicit", explicit, true},
		{"scale-free-explicit", sf, true},
		{"one-subtree-declined", oneSub, false},
		{"planetary-nil-links", perfect, true},
	} {
		plan, err := PlanMemory(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if p := partitionOf(t, tc.cfg); p != nil {
			want = p.numSub
		}
		if (want > 0) != tc.cut {
			t.Fatalf("%s: engine built %d subtrees", tc.name, want)
		}
		if plan.Subtrees != want || plan.CutFrontier != want {
			t.Fatalf("%s: plan subtrees = %d (frontier %d), engine built %d",
				tc.name, plan.Subtrees, plan.CutFrontier, want)
		}
		if want > 0 && !strings.Contains(plan.String(), "subtree shard") {
			t.Fatalf("%s: plan string omits the partition: %s", tc.name, plan)
		}
	}
	// Run checks the budget against the same plan before building.
	plan, err := PlanMemory(perfect)
	if err != nil {
		t.Fatal(err)
	}
	perfect.MemBudget = plan.Total
	if _, err := Run(perfect); err != nil {
		t.Fatalf("nil-Links run under its own plan's budget: %v", err)
	}
}

// TestPlanMemoryIndependentOfShards: the plan, like the Result, is the
// same for every Shards >= 1, so hosts with many cores (the planetary
// driver passes Shards = NumCPU) print the same plan line as small
// ones. The multi-region shape runs its partitioned groups on up to
// Shards goroutines; the one-region shape is a single group.
func TestPlanMemoryIndependentOfShards(t *testing.T) {
	net, firstAccess, err := topology.Planetary(rand.New(rand.NewPCG(7, 7)), topology.PlanetaryOptions{
		Regions: 4, CoreNodes: 16, PoPs: 48, ReceiversPerPoP: 16, CoreCap: 64, AccessCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	explicit := lossyCfg(net, rand.New(rand.NewPCG(1, 1)), 1000)
	explicit.CutLinks = topology.PlanetaryCutFrontier(firstAccess, net.NumLinks())
	deep, _ := planetaryOneCfg(t, 1000, 1)
	deep.CutLinks = depth2Cut(deep.Network)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"planetary-access-cut", explicit}, {"planetary-depth-2-cut", deep}} {
		var want *MemoryPlan
		for _, shards := range []int{1, 2, 16, 1 << 20} {
			cfg := tc.cfg
			cfg.Shards = shards
			plan, err := PlanMemory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Subtrees == 0 {
				t.Fatalf("%s Shards=%d: no subtrees planned", tc.name, shards)
			}
			if want == nil {
				want = plan
			} else if !reflect.DeepEqual(plan, want) {
				t.Fatalf("%s: plan at Shards=%d\n  %s\ndiffers from Shards=1\n  %s", tc.name, shards, plan, want)
			}
		}
	}
}

// TestCutLinksValidate pins the CutLinks range check.
func TestCutLinksValidate(t *testing.T) {
	cfg := starOfStarsCfg(t, 4, 100, 1)
	cfg.Shards = 2
	cfg.CutLinks = []int{cfg.Network.NumLinks()}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "CutLinks") {
		t.Fatalf("out-of-range CutLinks accepted: %v", err)
	}
}
