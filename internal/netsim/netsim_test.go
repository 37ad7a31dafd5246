package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
)

func starCfg(t *testing.T, n int, sharedLoss, fanoutLoss float64, kind protocol.Kind, packets int, seed uint64) Config {
	t.Helper()
	cfg, err := Star(n, sharedLoss, fanoutLoss, SessionConfig{Protocol: kind, Layers: 8}, packets, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPerfectLinksRedundancyOne: with lossless links every receiver
// climbs to the full stack and receives every packet that crosses, so
// Definition 3 redundancy is 1 on every link and receiver goodput
// approaches the full cumulative rate 2^(M-1).
func TestPerfectLinksRedundancyOne(t *testing.T) {
	cfg, err := Star(5, 0, 0, SessionConfig{Protocol: protocol.Deterministic, Layers: 6}, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cfg.Links {
		cfg.Links[j] = LinkSpec{} // Perfect
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range res.Links {
		if math.Abs(ls.Redundancy-1) > 1e-9 {
			t.Errorf("link %d redundancy %v, want 1", ls.Link, ls.Redundancy)
		}
	}
	full := 32.0 // cumulative rate of 6 exponential layers
	for _, rate := range res.ReceiverRates[0] {
		if rate < 0.9*full || rate > full+1e-9 {
			t.Errorf("receiver rate %v, want near %v", rate, full)
		}
	}
}

// TestLossDrivesRedundancyAboveOne: independent fanout loss decorrelates
// receivers, so the shared link carries more than the best receiver gets.
func TestLossDrivesRedundancyAboveOne(t *testing.T) {
	cfg := starCfg(t, 30, 0.0001, 0.05, protocol.Uncoordinated, 60000, 11)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	red := res.LinkRedundancy(0, 0)
	if red <= 1.1 {
		t.Fatalf("shared-link redundancy %v, want clearly above 1", red)
	}
	if res.PacketsSent != cfg.Packets {
		t.Fatalf("sent %d, want %d", res.PacketsSent, cfg.Packets)
	}
}

// TestDeterminism: equal seeds give identical results, field for field,
// on a config exercising churn, droptail queues, and capacity links.
func TestDeterminism(t *testing.T) {
	cfg, bb, err := Mesh(2, 3, LinkSpec{Kind: DropTail, Capacity: 40, Buffer: 8, Delay: 0.01},
		0.02, SessionConfig{Protocol: protocol.Deterministic, Layers: 6}, 30000, 42)
	if err != nil {
		t.Fatal(err)
	}
	_ = bb
	cfg.Churn = UniformChurn(cfg.Network, 25, 10, 400)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different results")
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestChurnStopsDelivery: a receiver that leaves stops accumulating
// goodput; after it rejoins it resumes from the base layer.
func TestChurnStopsDelivery(t *testing.T) {
	cfg := starCfg(t, 2, 0, 0, protocol.Deterministic, 40000, 9)
	// Receiver 1 leaves early and stays out.
	cfg.Churn = []ChurnEvent{{Time: 10, Session: 0, Receiver: 1, Join: false}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReceiverRates[0][1] >= 0.2*res.ReceiverRates[0][0] {
		t.Fatalf("departed receiver rate %v vs staying receiver %v", res.ReceiverRates[0][1], res.ReceiverRates[0][0])
	}
	// Its fanout link (link 2) must carry almost nothing after the leave
	// thanks to pruning.
	var stay, gone int
	for _, ls := range res.Links {
		switch ls.Link {
		case 1:
			stay = ls.Crossed
		case 2:
			gone = ls.Crossed
		}
	}
	if gone >= stay/4 {
		t.Fatalf("pruning failed: departed fanout crossed %d vs staying %d", gone, stay)
	}
}

// TestChurnRejoinRestartsAtBase: immediately after a rejoin the receiver
// is subscribed to the base layer only, so the pruned fanout link's
// instantaneous demand restarts from 1 (observed via total crossings
// being far below an always-on receiver's).
func TestChurnRejoinRestartsAtBase(t *testing.T) {
	cfg := starCfg(t, 2, 0, 0, protocol.Deterministic, 30000, 9)
	cfg.Churn = []ChurnEvent{
		{Time: 50, Session: 0, Receiver: 1, Join: false},
		{Time: 200, Session: 0, Receiver: 1, Join: true},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := res.ReceiverRates[0][0], res.ReceiverRates[0][1]
	if r1 <= 0 {
		t.Fatal("rejoined receiver never received")
	}
	if r1 >= r0 {
		t.Fatalf("rejoined receiver rate %v not below always-on %v", r1, r0)
	}
}

// TestDropTailCapsThroughput: a droptail bottleneck at rate C keeps the
// receiver's goodput at or below C even though the full stack demands
// far more.
func TestDropTailCapsThroughput(t *testing.T) {
	cfg := starCfg(t, 1, 0, 0, protocol.Deterministic, 60000, 5)
	cfg.Links[0] = LinkSpec{Kind: DropTail, Capacity: 10, Buffer: 4, Delay: 0.05}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := res.ReceiverRates[0][0]
	if rate > 10+1e-9 {
		t.Fatalf("goodput %v exceeds service rate 10", rate)
	}
	if rate < 4 {
		t.Fatalf("goodput %v implausibly low for a rate-10 bottleneck", rate)
	}
}

// TestBackgroundStealsCapacity: background cross-traffic on a
// capacity-coupled bottleneck lowers the session's achieved rates.
func TestBackgroundStealsCapacity(t *testing.T) {
	base := starCfg(t, 3, 0, 0, protocol.Deterministic, 60000, 21)
	for j := range base.Links {
		base.Links[j] = LinkSpec{Kind: Capacity, Capacity: 1000}
	}
	base.Links[0] = LinkSpec{Kind: Capacity, Capacity: 20}
	free, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	loaded := base
	loaded.Links = append([]LinkSpec{}, base.Links...)
	loaded.Links[0].Background = 15
	busy, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if busy.MaxReceiverRate() >= 0.8*free.MaxReceiverRate() {
		t.Fatalf("background load did not bite: free %v vs loaded %v",
			free.MaxReceiverRate(), busy.MaxReceiverRate())
	}
}

// TestSaturatedDropTailDeliversNothing: background at or above the
// service rate starves the link completely.
func TestSaturatedDropTailDeliversNothing(t *testing.T) {
	cfg := starCfg(t, 1, 0, 0, protocol.Deterministic, 5000, 5)
	cfg.Links[0] = LinkSpec{Kind: DropTail, Capacity: 10, Background: 10}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReceiverRates[0][0] != 0 {
		t.Fatalf("goodput %v through a saturated link", res.ReceiverRates[0][0])
	}
}

func TestValidation(t *testing.T) {
	good := starCfg(t, 2, 0.01, 0.02, protocol.Deterministic, 100, 1)
	cases := []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"nil network", func(c *Config) { c.Network = nil }, "nil network"},
		{"session count", func(c *Config) { c.Sessions = nil }, "session configs"},
		{"link count", func(c *Config) { c.Links = c.Links[:1] }, "link specs"},
		{"packets", func(c *Config) { c.Packets = 0 }, "Packets"},
		{"layers", func(c *Config) { c.Sessions = []SessionConfig{{Layers: 0}} }, "Layers"},
		// An unknown kind would arm no countdown, so every delivered
		// packet would join its receiver.
		{"protocol below range", func(c *Config) { c.Sessions = []SessionConfig{{Protocol: -1, Layers: 8}} }, "session 0: unknown Protocol Kind(-1)"},
		{"protocol above range", func(c *Config) { c.Sessions = []SessionConfig{{Protocol: 7, Layers: 8}} }, "session 0: unknown Protocol Kind(7)"},
		{"loss range", func(c *Config) { c.Links[0].Loss = 1.5 }, "loss"},
		{"churn session", func(c *Config) { c.Churn = []ChurnEvent{{Session: 9}} }, "out of range"},
		{"churn receiver", func(c *Config) { c.Churn = []ChurnEvent{{Receiver: 9}} }, "out of range"},
		{"churn time", func(c *Config) { c.Churn = []ChurnEvent{{Time: -1}} }, "negative time"},
		{"signal period", func(c *Config) { c.SignalPeriod = -1 }, "SignalPeriod"},
	}
	for _, tc := range cases {
		c := good
		c.Links = append([]LinkSpec{}, good.Links...)
		tc.mut(&c)
		_, err := Run(c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestAbstractNetworkRejected: Builder networks have no concrete nodes
// to forward over.
func TestAbstractNetworkRejected(t *testing.T) {
	b := netmodel.NewBuilder()
	l := b.AddLink(4)
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s, 0, l)
	cfg := Config{
		Network:  b.MustBuild(),
		Sessions: []SessionConfig{{Protocol: protocol.Deterministic, Layers: 2}},
		Packets:  10,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "abstract") {
		t.Fatalf("abstract network accepted: %v", err)
	}
}

// TestNonTreePathsRejected: two receivers reaching one node over
// different links cannot be served by a single multicast tree.
func TestNonTreePathsRejected(t *testing.T) {
	g := netmodel.NewGraph(4)
	a := g.AddLink(0, 1, 1)
	b := g.AddLink(0, 2, 1)
	c := g.AddLink(1, 3, 1)
	d := g.AddLink(2, 3, 1)
	s := &netmodel.Session{Sender: 0, Receivers: []int{3, 3}, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	net, err := netmodel.NewNetwork(g, []*netmodel.Session{s}, [][][]int{{{a, c}, {b, d}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Network:  net,
		Sessions: []SessionConfig{{Protocol: protocol.Deterministic, Layers: 2}},
		Packets:  10,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "tree") {
		t.Fatalf("non-tree paths accepted: %v", err)
	}
}

func TestLinkKindString(t *testing.T) {
	for k, want := range map[LinkKind]string{
		Perfect: "perfect", Bernoulli: "bernoulli", Capacity: "capacity",
		DropTail: "droptail", LinkKind(9): "LinkKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
