package netsim

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// planetaryOneCfg builds a single-region planetary config — one giant
// session, so session-group sharding alone cannot parallelize it and
// every Shards >= 1 run exercises the intra-session subtree path.
// Capacity core links keep demand tracking live across the frontier;
// Bernoulli access links put RNG draws inside the parallel subtrees.
func planetaryOneCfg(t *testing.T, packets int, seed uint64) (Config, int) {
	t.Helper()
	return planetaryPoPCfg(t, 32, packets, seed)
}

// planetaryPoPCfg is planetaryOneCfg with perPoP receivers at each PoP.
func planetaryPoPCfg(t *testing.T, perPoP, packets int, seed uint64) (Config, int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 5))
	net, firstAccess, err := topology.Planetary(rng, topology.PlanetaryOptions{
		Regions: 1, CoreNodes: 32, PoPs: 256, ReceiversPerPoP: perPoP,
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
// the sequential phases interleave with the parallel fan-out. ScaleFree
// draws each session's receiver count uniformly in 1..MaxReceivers, so
// the helper walks deterministic topology seeds until the draw is large
// (expected a handful of tries). The shallow BA shortest-path tree
// splinters the automatic frontier — hub children are mostly
// single-receiver leaves, so the avg-receivers guard declines it (see
// TestSubtreeShardInvarianceScaleFree, which pins that) — and the
// config instead cuts every distinct depth-2 tree link explicitly,
// which also stresses the work-stealing fan-out with wildly unequal
// subtree sizes.
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
	seen := make(map[int]bool)
	var cut []int
	for k := range net.Session(0).Receivers {
		if p := net.Path(0, k); len(p) >= 2 && !seen[p[1]] {
			seen[p[1]] = true
			cut = append(cut, p[1])
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
		CutLinks: cut,
	}
	cfg.Churn = []ChurnEvent{
		{Time: 2, Session: 0, Receiver: 7, Join: false},
		{Time: 4, Session: 0, Receiver: 7, Join: true},
		{Time: 3, Session: 0, Receiver: 4400, Join: false},
	}
	return cfg
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

// TestSubtreeShardInvariance is the tentpole contract on the planetary
// shape: a single-session tree is decomposed (auto frontier) and every
// Shards >= 1 — sequential fan-out, fewer workers than subtrees, more
// workers than the machine has cores — yields the byte-identical
// Result. Run under -race in CI, so the phase-2 disjointness claim is
// machine-checked, not just argued.
func TestSubtreeShardInvariance(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 20000, 9)
	cfg.Shards = 1
	if p := partitionOf(t, cfg); p == nil {
		t.Fatal("auto frontier declined to cut the planetary tree")
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
// sequential phases) across seeds. It also pins the auto policy on this
// shape: the shallow BA tree splinters into near-empty subtrees, so
// with CutLinks unset the avg-receivers guard must decline to cut.
func TestSubtreeShardInvarianceScaleFree(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := scaleFreeCfg(t, 8000, seed)
		cfg.Shards = 1
		auto := cfg
		auto.CutLinks = nil
		if p := partitionOf(t, auto); p != nil {
			t.Fatalf("auto frontier cut a splinter-prone BA tree into %d subtrees", p.numSub)
		}
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
// The explicit and auto frontiers are different decompositions, so
// their Results legitimately differ — each must only be
// self-consistent across shard counts.
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

// TestSubtreeStraddledWords: with 37 receivers per PoP, cut at the
// access links, the subtrees' receiver slot ranges are not 64-aligned,
// so subscription-bitmap words are shared by two subtrees and the
// fan-out walkers of an Uncoordinated session over lossy access links
// flip bits of one word concurrently. The test asserts the sharing,
// then checks the Result is identical at Shards 1, 2 and 4. CI runs it
// repeatedly under -race.
func TestSubtreeStraddledWords(t *testing.T) {
	cfg, firstAccess := planetaryPoPCfg(t, 37, 4000, 13)
	cfg.CutLinks = topology.PlanetaryCutFrontier(firstAccess, cfg.Network.NumLinks())
	cfg.Shards = 1
	e, err := newEngineFor(cfg, []int{0}, nil, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s, p := &e.sess[0], e.part
	if p == nil || s.subBits == nil {
		t.Fatal("no partition or no subscription bitmaps")
	}
	owner := make(map[int32]int32) // bitmap word -> first subtree with a slot in it
	shared := 0
	for j := range p.subRoot {
		lo, hi := s.recvStart[p.subRoot[j]], s.downHi[p.cutEid[j]]
		for wi := lo >> 6; hi > lo && wi <= (hi-1)>>6; wi++ {
			if o, ok := owner[wi]; !ok {
				owner[wi] = int32(j)
			} else if o != int32(j) {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no bitmap word is shared by two subtrees")
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
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

// TestSubtreeShardsExceedSubtrees: more Shards than subtrees leaves
// workers idle and changes nothing — the worker count is clamped and
// the Result stays identical across every Shards >= 1.
func TestSubtreeShardsExceedSubtrees(t *testing.T) {
	cfg := starOfStarsCfg(t, 10, 6000, 5)
	cfg.CutLinks = []int{0, 1, 2}
	cfg.Shards = 1
	p := partitionOf(t, cfg)
	if p == nil || p.numSub != 3 {
		t.Fatalf("partition = %+v, want 3 subtrees", p)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Shards=%d diverged (3 subtrees)", shards)
		}
	}
}

// TestSubtreeDegenerateTrees: shapes the partition must decline — a
// single-edge tree (no interior to cut) and a frontier that swallows
// the whole tree in one subtree — fall back to the plain single-group
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

// TestSubtreeAutoFrontierDeclinesSmall: below the receiver floor the
// auto frontier must not cut (the barriers would cost more than the
// fan-out wins), and the sharded single-group run then matches the
// sequential engine exactly.
func TestSubtreeAutoFrontierDeclinesSmall(t *testing.T) {
	cfg := starOfStarsCfg(t, 20, 3000, 2) // 60 receivers < autoCutMinReceivers
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	if p := partitionOf(t, cfg); p != nil {
		t.Fatalf("auto frontier cut a %d-receiver tree", 60)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatal("small-tree sharded run diverged from sequential")
	}
}

// TestSubtreeProbedInvariance extends the invariance contract to probed
// runs: the full Result including the ProbeSeries (ring contents,
// window grid, levels) must be identical for every Shards >= 1 on a
// partitioned single-session tree.
func TestSubtreeProbedInvariance(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 12000, 13)
	cfg.Probe = &ProbeConfig{Window: 4, MaxSamples: 64}
	cfg.Shards = 1
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

// TestSubtreeWorkerCountInvariantUnderGOMAXPROCS: setWorkers is a pure
// throughput knob even when it exceeds the subtree count or the
// machine's cores; forcing the partition's worker count directly (as
// runGroups would on a many-core box) must not change the Result.
func TestSubtreeWorkerCountInvariantUnderGOMAXPROCS(t *testing.T) {
	cfg, _ := planetaryOneCfg(t, 8000, 21)
	cfg.Shards = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shards=64 on one group -> 64 workers (clamped to subtree count).
	cfg.Shards = 64
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("worker flood changed the Result")
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
// policy newTreePartition applies, so the planned subtree count must
// match the engine's exactly — auto frontier, explicit planetary
// frontier, and explicit scale-free frontier alike — and the plan must
// decline exactly where the engine declines.
func TestPlanMemoryCountsSubtrees(t *testing.T) {
	auto, firstAccess := planetaryOneCfg(t, 100, 1)
	auto.Shards = 2
	explicit := auto
	explicit.CutLinks = topology.PlanetaryCutFrontier(firstAccess, auto.Network.NumLinks())
	sf := scaleFreeCfg(t, 100, 1)
	sf.Shards = 2
	small := starOfStarsCfg(t, 20, 100, 2)
	small.Shards = 2
	// Nil Links: every link Perfect, so the frontier replay must not read
	// a link spec.
	perfect := auto
	perfect.Links = nil
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"planetary-auto", auto},
		{"planetary-explicit", explicit},
		{"scale-free-explicit", sf},
		{"small-declined", small},
		{"planetary-nil-links", perfect},
	} {
		plan, err := PlanMemory(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if p := partitionOf(t, tc.cfg); p != nil {
			want = p.numSub
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
// same for every Shards >= 1. Worker stacks are planned at the widest
// fan-out setWorkers can reach, so hosts with many cores (the planetary
// driver passes Shards = NumCPU) print the same plan line as small
// ones. The multi-region shape splits Shards across groups, so each
// value here reaches a different worker count.
func TestPlanMemoryIndependentOfShards(t *testing.T) {
	net, firstAccess, err := topology.Planetary(rand.New(rand.NewPCG(7, 7)), topology.PlanetaryOptions{
		Regions: 4, CoreNodes: 16, PoPs: 48, ReceiversPerPoP: 16, CoreCap: 64, AccessCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	explicit := lossyCfg(net, rand.New(rand.NewPCG(1, 1)), 1000)
	explicit.CutLinks = topology.PlanetaryCutFrontier(firstAccess, net.NumLinks())
	auto, _ := planetaryOneCfg(t, 1000, 1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"planetary-access-cut", explicit}, {"planetary-auto", auto}} {
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

// TestWalkerPadding: fan-out workers' walk contexts sit side by side in
// one slice and their stacks in one backing array, so each walker ends
// in a full cache line of padding and neighbouring stacks are a line
// apart — two workers never write the same line.
func TestWalkerPadding(t *testing.T) {
	var w walker
	hot := unsafe.Offsetof(w.stack) + unsafe.Sizeof(w.stack)
	if pad := unsafe.Sizeof(w) - hot; pad < 64 {
		t.Fatalf("walker has %d bytes after its hot fields, want >= 64", pad)
	}
	cfg := starOfStarsCfg(t, 10, 100, 1)
	cfg.CutLinks = []int{0, 1, 2}
	cfg.Shards = 3
	e, err := newEngineFor(cfg, []int{0}, nil, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	p := e.part
	p.setWorkers(3)
	p.ensure(e, &e.sess[0])
	defer p.stop()
	for i := 1; i < len(p.walkers); i++ {
		prev, next := p.walkers[i-1].stack, p.walkers[i].stack
		end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(cap(prev))*4
		if gap := uintptr(unsafe.Pointer(unsafe.SliceData(next))) - end; gap < 64 {
			t.Fatalf("stacks %d and %d are %d bytes apart, want >= 64", i-1, i, gap)
		}
	}
}
