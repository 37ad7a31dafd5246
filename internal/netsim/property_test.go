package netsim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mlfair/internal/protocol"
	"mlfair/internal/topology"
)

// randomConfig builds a random but valid engine config over a random
// connected topology: random link models (all four kinds), random
// per-session protocols and layer depths, and sometimes churn. It is
// the generator behind the invariant suite and mirrors what the fuzz
// targets explore.
func randomConfig(rng *rand.Rand) Config {
	o := topology.DefaultRandomOptions()
	o.Nodes = 6 + rng.IntN(18)
	o.ExtraLinks = rng.IntN(5)
	o.Sessions = 1 + rng.IntN(5)
	o.MaxReceivers = 1 + rng.IntN(5)
	o.SingleRateProb = 0 // session Type is irrelevant to the engine
	net := topology.RandomNetwork(rng, o)
	cfg := Config{
		Network:  net,
		Links:    make([]LinkSpec, net.NumLinks()),
		Sessions: make([]SessionConfig, net.NumSessions()),
		Packets:  2000 + rng.IntN(4000),
		Seed:     rng.Uint64(),
	}
	for j := range cfg.Links {
		switch rng.IntN(4) {
		case 0:
			cfg.Links[j] = LinkSpec{} // Perfect
		case 1:
			cfg.Links[j] = LinkSpec{Kind: Bernoulli, Loss: rng.Float64() * 0.2}
		case 2:
			cfg.Links[j] = LinkSpec{Kind: Capacity, Capacity: 1 + rng.Float64()*40, Background: rng.Float64() * 4}
		case 3:
			cfg.Links[j] = LinkSpec{Kind: DropTail, Capacity: 1 + rng.Float64()*40,
				Buffer: rng.IntN(12), Delay: rng.Float64() * 0.05, Background: rng.Float64() * 2}
		}
	}
	for i := range cfg.Sessions {
		cfg.Sessions[i] = SessionConfig{
			Protocol: protocol.Kinds()[rng.IntN(3)],
			Layers:   1 + rng.IntN(10),
		}
	}
	if rng.IntN(2) == 0 {
		cfg.SignalPeriod = 0.25 + rng.Float64()
	}
	if rng.IntN(2) == 0 {
		cfg.Churn = UniformChurn(net, 1+rng.Float64()*4, 1+rng.Float64()*4, 60)
	}
	return cfg
}

// checkInvariants asserts the engine's conservation laws on one result:
//
//   - the packet budget is spent exactly;
//   - a receiver never gets more packets than its session pushed across
//     any link on its data-path (packets delivered <= packets sent);
//   - per-link crossings never exceed the session's transmissions, a
//     link never drops more packets than crossed it, and Rate is
//     exactly Crossed over the duration;
//   - Definition 3 redundancy sits in [0, PacketsSent];
//   - final subscription levels sit in [1, M] for joined receivers, 0
//     only for churned-out ones.
func checkInvariants(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if res.PacketsSent != cfg.Packets {
		t.Fatalf("sent %d, budget %d", res.PacketsSent, cfg.Packets)
	}
	crossedOf := make(map[[2]int]int, len(res.Links)) // (link, session)
	for _, ls := range res.Links {
		crossedOf[[2]int{ls.Link, ls.Session}] = ls.Crossed
	}
	for i := range res.ReceiverPackets {
		for k, got := range res.ReceiverPackets[i] {
			for _, j := range cfg.Network.Path(i, k) {
				if crossed := crossedOf[[2]int{j, i}]; got > crossed {
					t.Fatalf("receiver %d,%d delivered %d > %d crossings of path link %d", i, k, got, crossed, j)
				}
			}
			if rate := res.ReceiverRates[i][k]; res.Duration > 0 {
				want := float64(got) / res.Duration
				if rate != want {
					t.Fatalf("receiver %d,%d rate %v != packets/duration %v", i, k, rate, want)
				}
			}
		}
	}
	hasChurn := len(cfg.Churn) > 0
	for i, lv := range res.FinalLevels {
		m := cfg.Sessions[i].Layers
		for k, v := range lv {
			if v < 0 || v > m {
				t.Fatalf("receiver %d,%d final level %d outside [0, %d]", i, k, v, m)
			}
			if v == 0 && !hasChurn {
				t.Fatalf("receiver %d,%d departed without churn", i, k)
			}
		}
	}
	for _, ls := range res.Links {
		if ls.Crossed < 0 || ls.Crossed > res.PacketsSent {
			t.Fatalf("link %d session %d crossed %d outside [0, %d]", ls.Link, ls.Session, ls.Crossed, res.PacketsSent)
		}
		if ls.Dropped < 0 || ls.Dropped > ls.Crossed {
			t.Fatalf("link %d session %d dropped %d outside [0, crossed %d]", ls.Link, ls.Session, ls.Dropped, ls.Crossed)
		}
		if res.Duration > 0 && ls.Rate != float64(ls.Crossed)/res.Duration {
			t.Fatalf("link %d rate %v inconsistent with crossings", ls.Link, ls.Rate)
		}
		if ls.Redundancy < 0 || ls.Redundancy > float64(res.PacketsSent) {
			t.Fatalf("link %d session %d redundancy %v outside [0, sent]", ls.Link, ls.Session, ls.Redundancy)
		}
		if math.IsNaN(ls.Redundancy) || math.IsInf(ls.Redundancy, 0) {
			t.Fatalf("link %d session %d redundancy %v not finite", ls.Link, ls.Session, ls.Redundancy)
		}
	}
}

// TestEngineInvariants drives the engine over a population of random
// topologies, link models, protocols, and churn schedules, asserting
// the conservation laws on every run. Run under -race in CI.
func TestEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 7))
	n := 40
	if testing.Short() {
		n = 8
	}
	for trial := 0; trial < n; trial++ {
		cfg := randomConfig(rng)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkInvariants(t, cfg, res)
	}
	for i, cfg := range wideStars(t, n/2) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("wide star %d: %v", i, err)
		}
		checkInvariants(t, cfg, res)
	}
}

// wideStars is a seeded set of n modified stars whose hub is wide: 17 to
// 60 leaves, each Perfect or lossy Bernoulli, every protocol in turn,
// and churn in half of them. randomConfig's sessions have at most five
// receivers, so they never reach a wide node. The shared link is of
// any of the four kinds, so the hub is crossed by each walk variant
// and, behind a DropTail link, entered from the event queue; one star
// in four gives a leaf a per-layer loss table.
func wideStars(t *testing.T, n int) []Config {
	t.Helper()
	rng := rand.New(rand.NewPCG(2026, 24))
	cfgs := make([]Config, n)
	for i := range cfgs {
		sc := SessionConfig{Protocol: protocol.Kinds()[i%3], Layers: 2 + rng.IntN(8)}
		cfg, err := Star(17+rng.IntN(44), 0, 0, sc, 2000+rng.IntN(4000), rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(cfg.Links); j++ {
			if rng.IntN(2) == 0 {
				cfg.Links[j] = LinkSpec{Kind: Bernoulli, Loss: rng.Float64() * 0.1}
			}
		}
		if rng.IntN(4) == 0 {
			cfg.Links[1+rng.IntN(len(cfg.Links)-1)] = LinkSpec{Kind: Bernoulli, LayerLoss: []float64{0.01, 0.05}}
		}
		switch rng.IntN(4) {
		case 0:
			cfg.Links[0] = LinkSpec{} // Perfect
		case 1:
			cfg.Links[0] = LinkSpec{Kind: Bernoulli, Loss: rng.Float64() * 0.02}
		case 2:
			cfg.Links[0] = LinkSpec{Kind: Capacity, Capacity: 4 + rng.Float64()*60}
		case 3:
			cfg.Links[0] = LinkSpec{Kind: DropTail, Capacity: 4 + rng.Float64()*60,
				Buffer: rng.IntN(12), Delay: rng.Float64() * 0.05}
		}
		if rng.IntN(2) == 0 {
			cfg.Churn = UniformChurn(cfg.Network, 1+rng.Float64()*4, 1+rng.Float64()*4, 60)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// TestLingerKeepsDynamics pins the LeaveLatency contract under every
// link kind: lingering crossings consume link bandwidth but deliver
// nothing, observe no losses and draw no randomness. So a run at
// latency L > 0 keeps the L = 0 run's receiver dynamics and every
// link's drops and fluid usage exactly, and no link's crossings fall.
// randomConfig draws all four link kinds, so DropTail continuations
// enter linger sessions mid-tree; the wide stars add hubs whose leaves
// linger. L derives from each config's seed, so the generators' draws
// stay those of TestEngineInvariants.
func TestLingerKeepsDynamics(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 7))
	n := 40
	if testing.Short() {
		n = 8
	}
	cfgs := make([]Config, n)
	for trial := range cfgs {
		cfgs[trial] = randomConfig(rng)
	}
	cfgs = append(cfgs, wideStars(t, n/2)...)
	lingered := 0
	for trial, cfg := range cfgs {
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg.LeaveLatency = 0.25 + float64(cfg.Seed%32)/4
		lat, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d at latency %v: %v", trial, cfg.LeaveLatency, err)
		}
		checkInvariants(t, cfg, lat)
		if !reflect.DeepEqual(base.ReceiverPackets, lat.ReceiverPackets) ||
			!reflect.DeepEqual(base.FinalLevels, lat.FinalLevels) ||
			!reflect.DeepEqual(base.MeanLevels, lat.MeanLevels) {
			t.Fatalf("trial %d: latency %v changed receiver dynamics", trial, cfg.LeaveLatency)
		}
		if len(base.Links) != len(lat.Links) {
			t.Fatalf("trial %d: %d link stats at latency 0, %d at %v", trial, len(base.Links), len(lat.Links), cfg.LeaveLatency)
		}
		for i, a := range base.Links {
			b := lat.Links[i]
			if a.Link != b.Link || a.Session != b.Session {
				t.Fatalf("trial %d: link stats %d are (%d,%d) vs (%d,%d)", trial, i, a.Link, a.Session, b.Link, b.Session)
			}
			if a.Dropped != b.Dropped || a.FluidRate != b.FluidRate {
				t.Fatalf("trial %d link %d session %d: latency changed drops %d -> %d or fluid rate %v -> %v",
					trial, a.Link, a.Session, a.Dropped, b.Dropped, a.FluidRate, b.FluidRate)
			}
			if b.Crossed < a.Crossed {
				t.Fatalf("trial %d link %d session %d: crossings fell %d -> %d under latency", trial, a.Link, a.Session, a.Crossed, b.Crossed)
			}
			if b.Crossed > a.Crossed {
				lingered++
			}
		}
	}
	if lingered == 0 {
		t.Fatal("no link ever carried a lingering crossing: the property checked nothing")
	}
	t.Logf("%d links carried lingering crossings over %d configs", lingered, len(cfgs))
}

// TestSubscriptionLevelsWithinBounds: on a churn-free run every
// receiver's level stays in [1, M]; FinalLevels is the observable
// witness, and the perfect-star run guarantees every layer is exercised
// up to M.
func TestSubscriptionLevelsWithinBounds(t *testing.T) {
	cfg, err := Star(12, 0, 0, SessionConfig{Protocol: protocol.Deterministic, Layers: 5}, 20000, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.FinalLevels[0] {
		if v < 1 || v > 5 {
			t.Fatalf("final level %d outside [1, 5]", v)
		}
	}
	// Lossless links must drive everyone to the full stack.
	for k, v := range res.FinalLevels[0] {
		if v != 5 {
			t.Fatalf("receiver %d stuck at level %d on lossless links", k, v)
		}
	}
}

// TestRunnerWorkerBitIdentity: replication results and streamed
// aggregates are bit-identical for 1, 4, and 8 workers — the
// determinism contract the parallel runner advertises. Run under -race
// in CI.
func TestRunnerWorkerBitIdentity(t *testing.T) {
	cfg, err := Star(20, 0.0001, 0.05, SessionConfig{Protocol: protocol.Uncoordinated, Layers: 6}, 8000, 23)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 10
	metrics := []Metric{LinkRedundancyMetric(0, 0), MeanReceiverRateMetric()}
	baseResults, err := RunReplications(cfg, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	baseSums, err := SummarizeReplications(cfg, reps, 1, metrics...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		results, err := RunReplications(cfg, reps, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseResults, results) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
		sums, err := SummarizeReplications(cfg, reps, workers, metrics...)
		if err != nil {
			t.Fatal(err)
		}
		// Bitwise equality, not approximate: the accumulation order is
		// pinned to replication order regardless of scheduling.
		if !reflect.DeepEqual(baseSums, sums) {
			t.Fatalf("summaries differ between 1 and %d workers: %v vs %v", workers, baseSums, sums)
		}
	}
}

// TestStreamReplicationsOrderAndError: consume sees indices 0..n-1 in
// order, and its error aborts the stream.
func TestStreamReplicationsOrderAndError(t *testing.T) {
	cfg, err := Star(5, 0, 0.02, SessionConfig{Protocol: protocol.Deterministic, Layers: 4}, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	err = StreamReplications(cfg, 12, 5, func(i int, r *Result) error {
		seen = append(seen, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("out-of-order consumption: %v", seen)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("consumed %d of 12", len(seen))
	}
	wantErr := errSentinel{}
	err = StreamReplications(cfg, 12, 5, func(i int, r *Result) error {
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("consume error not propagated: %v", err)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }
