package scenario

import (
	"math"
	"reflect"
	"testing"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
)

// Loss trees: the packet-level protocols over the compiled binarytree
// and tree topologies with per-link Bernoulli loss. Definition 3
// redundancy is a per-link quantity, and on a distribution tree every
// interior link serves a different receiver subset, with loss
// correlation induced by shared path prefixes.

// compileCfg compiles spec and returns its netsim configuration.
func compileCfg(t *testing.T, spec *Spec) netsim.Config {
	t.Helper()
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c.Cfg
}

// binaryLossTree is a complete binary tree of the given depth with
// receivers at the leaves and Bernoulli loss on every link. Link j
// enters node j+1, and node n's parent is (n-1)/2.
func binaryLossTree(t *testing.T, depth int, loss float64, kind protocol.Kind, layers, packets int) netsim.Config {
	t.Helper()
	return compileCfg(t, &Spec{
		Topology:    TopologySpec{Kind: "binarytree", Depth: depth},
		Sessions:    []SessionSpec{{Protocol: kind.String(), Layers: layers}},
		DefaultLink: &LinkSpec{Kind: "bernoulli", Loss: loss},
		Packets:     packets,
	})
}

// lossTree is an explicit tree: node i's parent is parent[i], and its
// parent link (link i-1) loses with probability loss[i].
func lossTree(t *testing.T, parent []int, loss []float64, receivers []int, kind protocol.Kind, layers, packets int) netsim.Config {
	t.Helper()
	spec := &Spec{
		Topology:    TopologySpec{Kind: "tree", Parent: parent, ReceiverNodes: receivers},
		Sessions:    []SessionSpec{{Protocol: kind.String(), Layers: layers}},
		DefaultLink: &LinkSpec{Kind: "bernoulli"},
		Packets:     packets,
	}
	for i := 1; i < len(parent); i++ {
		spec.Links = append(spec.Links, LinkOverride{Link: i - 1, LinkSpec: LinkSpec{Kind: "bernoulli", Loss: loss[i]}})
	}
	return compileCfg(t, spec)
}

func runSeed(t *testing.T, cfg netsim.Config, seed uint64) *netsim.Result {
	t.Helper()
	cfg.Seed = seed
	res, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// heapDepth is the depth of binary-heap node n (the root is depth 0).
func heapDepth(n int) int {
	d := 0
	for ; n != 0; n = (n - 1) / 2 {
		d++
	}
	return d
}

type treeCase struct {
	name string
	spec *Spec
}

// treeSpec is a one-session loss tree with every link losing loss.
func treeSpec(parent, receivers []int, loss float64) *Spec {
	return &Spec{
		Topology:    TopologySpec{Kind: "tree", Parent: parent, ReceiverNodes: receivers},
		Sessions:    []SessionSpec{{Protocol: "coordinated", Layers: 4}},
		DefaultLink: &LinkSpec{Kind: "bernoulli", Loss: loss},
		Packets:     100,
	}
}

// rejectsEachTree checks that every case fails with an error, at
// Compile or at Run, never with a panic.
func rejectsEachTree(t *testing.T, cases []treeCase) {
	t.Helper()
	for _, tc := range cases {
		c, err := Compile(tc.spec)
		if err == nil {
			_, err = netsim.Run(c.Cfg)
		}
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestTreeSpecRejects: malformed trees — bad shapes at Compile, bad
// link losses at Run — are rejected.
func TestTreeSpecRejects(t *testing.T) {
	if _, err := Compile(treeSpec([]int{0, 0, 1}, []int{2}, 0.01)); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	rejectsEachTree(t, []treeCase{
		{"one node", treeSpec([]int{0}, []int{0}, 0)},
		{"parent not before child", treeSpec([]int{0, 1}, []int{1}, 0)},
		{"no receivers", treeSpec([]int{0, 0}, nil, 0)},
		{"receiver out of range", treeSpec([]int{0, 0, 1}, []int{5}, 0)},
		{"negative receiver node", treeSpec([]int{0, 0, 1}, []int{-1}, 0)},
		{"receiver at the sender", treeSpec([]int{0, 0, 1}, []int{0, 2}, 0)},
		{"capacity count", &Spec{
			Topology: TopologySpec{Kind: "tree", Parent: []int{0, 0}, ReceiverNodes: []int{1}, Capacities: []float64{1}},
			Packets:  100,
		}},
		{"loss 1", treeSpec([]int{0, 0}, []int{1}, 1)},
		{"negative loss", treeSpec([]int{0, 0, 1}, []int{2}, -0.1)},
	})
}

// TestTreeRunRejects: a run needs a tree and a layered session; a
// missing parent array or a negative layer count is an error.
func TestTreeRunRejects(t *testing.T) {
	rejectsEachTree(t, []treeCase{
		{"no parent array", treeSpec(nil, []int{1}, 0)},
		{"negative layers", &Spec{
			Topology: TopologySpec{Kind: "tree", Parent: []int{0, 0}, ReceiverNodes: []int{1}},
			Sessions: []SessionSpec{{Layers: -1}},
			Packets:  100,
		}},
	})
}

// TestBinaryTreeTopology pins the binarytree numbering that the
// experiments' per-depth buckets rely on: link j enters node j+1 and
// receivers sit at the leaves. Depth 0 is rejected.
func TestBinaryTreeTopology(t *testing.T) {
	const depth = 3
	cfg := binaryLossTree(t, depth, 0.01, protocol.Deterministic, 4, 5000)
	net := cfg.Network
	if net.NumLinks() != 14 || net.Session(0).NumReceivers() != 8 {
		t.Fatalf("depth-3 tree: %d links, %d receivers", net.NumLinks(), net.Session(0).NumReceivers())
	}
	for k := 0; k < 8; k++ {
		var want []int
		for nd := 7 + k; nd != 0; nd = (nd - 1) / 2 {
			want = append([]int{nd - 1}, want...)
		}
		if got := net.Path(0, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("leaf %d path %v, want %v", k, got, want)
		}
		if d := len(want); d != depth {
			t.Fatalf("leaf %d at depth %d, want %d", k, d, depth)
		}
	}
	if _, err := Compile(&Spec{Topology: TopologySpec{Kind: "binarytree", Depth: 0}, Packets: 100}); err == nil {
		t.Fatal("depth-0 binary tree accepted")
	}
}

// TestBinaryTreeLinkStats: a run reports one stats row per link, and a
// link at depth d carries the 2^(depth-d) leaves below it.
func TestBinaryTreeLinkStats(t *testing.T) {
	const depth = 3
	res := runSeed(t, binaryLossTree(t, depth, 0.01, protocol.Deterministic, 4, 5000), 37)
	if len(res.Links) != 14 {
		t.Fatalf("got %d link stats, want 14", len(res.Links))
	}
	for _, ls := range res.Links {
		if want := 1 << (depth - heapDepth(ls.Link+1)); ls.DownstreamReceivers != want {
			t.Fatalf("link %d: %d downstream receivers, want %d", ls.Link, ls.DownstreamReceivers, want)
		}
	}
}

// TestTreeStarMatchesStar: a star written as an explicit tree agrees
// statistically with netsim.Star at independent seeds.
func TestTreeStarMatchesStar(t *testing.T) {
	const n, shared, ind = 30, 0.001, 0.04
	parent := make([]int, n+2)
	loss := make([]float64, n+2)
	receivers := make([]int, n)
	parent[1], loss[1] = 0, shared
	for k := 0; k < n; k++ {
		parent[2+k], loss[2+k] = 1, ind
		receivers[k] = 2 + k
	}
	tree := lossTree(t, parent, loss, receivers, protocol.Deterministic, 8, 60000)
	flat, err := netsim.Star(n, shared, ind, netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 60000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var treeRed, flatRed stats.Accumulator
	for seed := uint64(0); seed < 6; seed++ {
		treeRed.Add(runSeed(t, tree, seed).LinkRedundancy(0, 0))
		flatRed.Add(runSeed(t, flat, seed+100).LinkRedundancy(0, 0))
	}
	tm, fm := treeRed.Mean(), flatRed.Mean()
	if rel := math.Abs(tm-fm) / fm; rel > 0.15 {
		t.Fatalf("tree star %v vs flat star %v (rel %v)", tm, fm, rel)
	}
}

// TestTreeLeafLinksNearEfficient: a leaf link serves one receiver, so
// its redundancy is just loss inflation.
func TestTreeLeafLinksNearEfficient(t *testing.T) {
	res := runSeed(t, binaryLossTree(t, 3, 0.02, protocol.Coordinated, 8, 100000), 5)
	for _, ls := range res.Links {
		if ls.DownstreamReceivers == 1 && ls.Redundancy > 1.3 {
			t.Fatalf("leaf link %d redundancy = %v", ls.Link, ls.Redundancy)
		}
	}
}

// TestTreeRedundancyGrowsTowardRoot: averaging per depth, links closer
// to the root (more downstream receivers) carry more redundancy — the
// protocol-dynamics analogue of Figure 5.
func TestTreeRedundancyGrowsTowardRoot(t *testing.T) {
	cfg := binaryLossTree(t, 4, 0.02, protocol.Uncoordinated, 8, 150000)
	byDepth := make([]stats.Accumulator, 5)
	for seed := uint64(0); seed < 4; seed++ {
		for _, ls := range runSeed(t, cfg, seed).Links {
			byDepth[heapDepth(ls.Link+1)].Add(ls.Redundancy)
		}
	}
	if root, leaf := byDepth[1].Mean(), byDepth[4].Mean(); !(root > leaf*1.1) {
		t.Fatalf("root redundancy %v not above leaf %v", root, leaf)
	}
}

// TestTreeLossless: without loss every link converges to redundancy ~1
// and receivers to the top rate.
func TestTreeLossless(t *testing.T) {
	res := runSeed(t, binaryLossTree(t, 2, 0, protocol.Deterministic, 6, 60000), 9)
	for k, r := range res.ReceiverRates[0] {
		if r < 28 {
			t.Fatalf("receiver %d rate %v, want near 32", k, r)
		}
	}
	for _, ls := range res.Links {
		if math.Abs(ls.Redundancy-1) > 0.1 {
			t.Fatalf("link %d redundancy %v", ls.Link, ls.Redundancy)
		}
	}
}

// TestTreeSharedPrefixCorrelation: two receivers sharing a lossy trunk
// stay more synchronized (lower trunk redundancy) than two receivers
// losing independently at the same end-to-end rate.
func TestTreeSharedPrefixCorrelation(t *testing.T) {
	parent, receivers := []int{0, 0, 1, 1}, []int{2, 3}
	trunkRed := func(loss []float64) float64 {
		cfg := lossTree(t, parent, loss, receivers, protocol.Deterministic, 8, 80000)
		var acc stats.Accumulator
		for seed := uint64(0); seed < 6; seed++ {
			acc.Add(runSeed(t, cfg, seed).LinkRedundancy(0, 0))
		}
		return acc.Mean()
	}
	shared := trunkRed([]float64{0, 0.05, 0, 0})   // lossy trunk, clean leaves
	indep := trunkRed([]float64{0, 0, 0.05, 0.05}) // clean trunk, lossy leaves
	if !(shared < indep) {
		t.Fatalf("shared-loss trunk %v not below independent-loss trunk %v", shared, indep)
	}
}

// TestTreeDeterminism: equal seeds give identical results.
func TestTreeDeterminism(t *testing.T) {
	cfg := binaryLossTree(t, 3, 0.03, protocol.Uncoordinated, 6, 20000)
	if a, b := runSeed(t, cfg, 21), runSeed(t, cfg, 21); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different results")
	}
}

// TestTreeInteriorReceiver: receivers need not sit at leaves, and the
// shallow one out-receives the deep one.
func TestTreeInteriorReceiver(t *testing.T) {
	cfg := lossTree(t, []int{0, 0, 1, 2}, []float64{0, 0.01, 0.01, 0.01}, []int{1, 3},
		protocol.Coordinated, 6, 40000)
	res := runSeed(t, cfg, 23)
	if r := res.ReceiverRates[0]; r[0] <= r[1] {
		t.Fatalf("shallow receiver (%v) should beat deep receiver (%v)", r[0], r[1])
	}
}
