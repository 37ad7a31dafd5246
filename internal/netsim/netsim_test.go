package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
)

// starCfg is an 8-layer star (see star in star_test.go).
func starCfg(t *testing.T, n int, sharedLoss, fanoutLoss float64, kind protocol.Kind, packets int, seed uint64) Config {
	t.Helper()
	return star(t, n, sharedLoss, fanoutLoss, kind, 8, packets, seed)
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

// checkClockBound sets a clock period on a 2,000-packet star of one
// 8-layer Coordinated session, a 15.625-unit horizon (Packets over the
// aggregate sending rate). A period whose clock would fire more than
// maxRounds times over the horizon must be rejected up front, by
// PlanMemory and Run alike, naming the field: the clock advances by
// additions that stop moving it once the period falls below its float
// precision, so the run would never end. A period within the bound
// runs.
func checkClockBound(t *testing.T, field string, set func(c *Config, period float64)) {
	t.Helper()
	good := starCfg(t, 10, 0.001, 0.02, protocol.Coordinated, 2000, 1)
	// 1e-5 fires 1.56M times, just over the 2^20 bound.
	for _, period := range []float64{1e-300, 1e-20, 1e-5} {
		c := good
		set(&c, period)
		if _, err := PlanMemory(c); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("period %v: PlanMemory error %v, want mention of %q", period, err, field)
		}
		if _, err := Run(c); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("period %v: Run error %v, want mention of %q", period, err, field)
		}
	}
	c := good
	set(&c, 1e-3) // 15,625 firings
	if _, err := Run(c); err != nil {
		t.Fatalf("period 1e-3: %v", err)
	}
	// A budget above the bound may fire the clock once per packet: a
	// 3M-packet run of 2 layers spans 1.5M time units, so period 1 is
	// accepted there and period 1/2 (3M firings) is too; 1/4 is not.
	long := starCfg(t, 1, 0, 0.01, protocol.Coordinated, 3000000, 1)
	long.Sessions[0].Layers = 2
	for _, tc := range []struct {
		period float64
		ok     bool
	}{{1, true}, {0.5, true}, {0.25, false}} {
		c := long
		set(&c, tc.period)
		if _, err := PlanMemory(c); (err == nil) != tc.ok {
			t.Fatalf("3M packets, period %v: PlanMemory error %v, want accepted = %v", tc.period, err, tc.ok)
		}
	}
}

// TestProbeWindowBounded: a time probe window may not close more than
// maxRounds windows over the run.
func TestProbeWindowBounded(t *testing.T) {
	checkClockBound(t, "probe Window", func(c *Config, w float64) { c.Probe = &ProbeConfig{Window: w} })
}

// TestSignalPeriodBounded: the Coordinated signal clock may not fire
// more than maxRounds times over the run; without a Coordinated
// session of two or more layers no clock is armed, and any period is
// harmless.
func TestSignalPeriodBounded(t *testing.T) {
	checkClockBound(t, "SignalPeriod", func(c *Config, p float64) { c.SignalPeriod = p })
	c := starCfg(t, 10, 0.001, 0.02, protocol.Uncoordinated, 2000, 1)
	c.SignalPeriod = 1e-300
	if _, err := Run(c); err != nil {
		t.Fatalf("uncoordinated session with a tiny signal period: %v", err)
	}
}

// TestSessionlessNetworkRejected: a network without sessions has
// nothing to send, and PlanMemory and Run reject it alike.
func TestSessionlessNetworkRejected(t *testing.T) {
	g := netmodel.NewGraph(2)
	g.AddLink(0, 1, 1)
	net, err := netmodel.NewNetwork(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Network: net, Packets: 10}
	const want = "netsim: network has no sessions"
	if _, err := PlanMemory(cfg); err == nil || err.Error() != want {
		t.Fatalf("PlanMemory error %v, want %q", err, want)
	}
	if _, err := Run(cfg); err == nil || err.Error() != want {
		t.Fatalf("Run error %v, want %q", err, want)
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
