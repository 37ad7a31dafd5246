// Package mlfair's benchmark suite: one benchmark per paper table/figure
// regenerator plus the ablations called out in DESIGN.md (closed-form vs
// bisection allocator steps, closed-form vs Monte-Carlo redundancy,
// dense vs power-iteration stationary solves, per-protocol simulator
// throughput).
//
// Run with: go test -bench=. -benchmem
package mlfair

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"mlfair/internal/experiments"
	"mlfair/internal/fairness"
	"mlfair/internal/layering"
	"mlfair/internal/markov"
	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/obs"
	"mlfair/internal/protocol"
	"mlfair/internal/redundancy"
	"mlfair/internal/scenario"
	"mlfair/internal/sweepexec"
	"mlfair/internal/topology"
)

// --- Figure 1 / Figure 2: allocation of the paper's example networks ---

func BenchmarkFigure1Allocation(b *testing.B) {
	net := topology.Figure1().Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.Allocate(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Allocation(b *testing.B) {
	net := topology.Figure2(netmodel.SingleRate).Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.Allocate(net); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocator ablation: closed-form step vs generic bisection ---

func randomNet() *netmodel.Network {
	rng := rand.New(rand.NewPCG(5, 5))
	o := topology.DefaultRandomOptions()
	o.Nodes, o.Sessions, o.MaxReceivers = 30, 10, 6
	return topology.RandomNetwork(rng, o)
}

func BenchmarkAllocateClosedForm(b *testing.B) {
	net := randomNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.Allocate(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateGenericBisection(b *testing.B) {
	net := randomNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.AllocateGeneric(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFairnessCheck(b *testing.B) {
	net := randomNet()
	res, err := maxmin.Allocate(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fairness.Check(res.Alloc)
	}
}

// --- Figure 3: receiver-removal re-allocation ---

func BenchmarkFigure3Removal(b *testing.B) {
	net := topology.Figure3a().Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after, err := net.RemoveReceiver(netmodel.ReceiverID{Session: 2, Receiver: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := maxmin.Allocate(after); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 3 example: fixed-layer feasible-set search ---

func BenchmarkSection3FixedLayerSearch(b *testing.B) {
	net := topology.SingleLink(6).Network
	schemes := []layering.Scheme{layering.Uniform(3, 2), layering.Uniform(2, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := layering.FindMaxMinFixed(net, schemes); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: allocation under a redundancy function ---

func BenchmarkFigure4RedundantAllocation(b *testing.B) {
	net := topology.Figure4(2).Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.Allocate(net); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: redundancy closed form vs Monte Carlo (ablation) ---

func fig5Rates() []float64 {
	rates := make([]float64, 100)
	for i := range rates {
		rates[i] = 0.1
	}
	return rates
}

func BenchmarkFigure5Redundancy(b *testing.B) {
	rates := fig5Rates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		redundancy.SingleLayer(rates, 1)
	}
}

func BenchmarkFigure5MonteCarlo(b *testing.B) {
	rates := fig5Rates()
	rng := rand.New(rand.NewPCG(9, 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		redundancy.MonteCarloLinkRate(rates, 1, 100, 10, rng)
	}
}

// --- Figure 6: constrained fair-rate curve ---

func BenchmarkFigure6FairRate(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 1.0; v <= 10; v += 0.5 {
			redundancy.NormalizedFairRate(0.05, v)
		}
	}
}

// --- Figure 7a / Markov analysis: stationary solves (ablation) ---

func uncoordChain(b *testing.B) *markov.Model {
	m, err := markov.BuildStar(protocol.Uncoordinated, markov.StarParams{
		Layers: 5, SharedLoss: 0.001, Loss1: 0.05, Loss2: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMarkovSolveDense(b *testing.B) {
	m := uncoordChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovSolvePower(b *testing.B) {
	m := uncoordChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolvePower(1e-10, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: one sweep point per protocol (reduced size), and raw
// simulator throughput ---

func benchFigure8Point(b *testing.B, kind protocol.Kind) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure8Point(kind, 0.0001, 0.04, experiments.Figure8Options{
			Receivers: 100, Packets: 20000, Trials: 2, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8PointCoordinated(b *testing.B)   { benchFigure8Point(b, protocol.Coordinated) }
func BenchmarkFigure8PointUncoordinated(b *testing.B) { benchFigure8Point(b, protocol.Uncoordinated) }
func BenchmarkFigure8PointDeterministic(b *testing.B) { benchFigure8Point(b, protocol.Deterministic) }

func BenchmarkSimulatorPacketThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := netsim.Star(100, 0.0001, 0.04,
			netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 100000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100000) // report packets/sec as MB/s-style rate
}

// --- Whole-figure regenerators (quick settings) ---

func BenchmarkExperimentFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentMarkovAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.MarkovAnalysis(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches: tree simulation and closed-loop convergence ---

func BenchmarkTreeSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := binaryTreeConfig(b, 4, 50000)
		cfg.Seed = uint64(i)
		if _, err := netsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosedLoopSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := netsim.CapacityStar(24, [][]float64{{2, 8, 64}, {64}},
			netsim.SessionConfig{Protocol: protocol.Coordinated, Layers: 8}, 50000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- netsim: the general engine on its headline scenarios ---

// benchNetsimRun drives one engine config through b.N runs and reports
// the engine's throughput currency — events/sec (transmissions, event
// pops, link admissions, receiver deliveries) — plus steady-state
// allocs/event measured over the whole loop (engine construction
// amortizes into it, so the target "~0 allocs per event" is visible
// directly).
func benchNetsimRun(b *testing.B, cfg netsim.Config) {
	b.Helper()
	b.ReportAllocs()
	var events int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res, err := netsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if events > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
	}
}

func BenchmarkNetsimLargeStar(b *testing.B) {
	cfg, err := netsim.Star(200, 0.0001, 0.04,
		netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, cfg)
}

// BenchmarkNetsimLargeStarProbed is BenchmarkNetsimLargeStar with the
// streaming probe on (256-packet windows over 200 receivers): the
// probe's per-event cost — and that allocs/event stays ~0 with it
// enabled — reads as the delta against the unprobed benchmark, and the
// benchjson -check allocs/event gate pins it.
func BenchmarkNetsimLargeStarProbed(b *testing.B) {
	cfg, err := netsim.Star(200, 0.0001, 0.04,
		netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Probe = &netsim.ProbeConfig{PacketWindow: 256}
	benchNetsimRun(b, cfg)
}

// BenchmarkNetsimLargeStarInstrumented is BenchmarkNetsimLargeStar
// with an EngineStats sink attached: the instrumentation's whole cost
// is one flush of atomic adds per run, so events/sec must hold within
// 2% of the uninstrumented twin and allocs/event must not move. CI
// pins both via benchjson's -overhead pair gate, which compares the
// twins within the same run and therefore needs no committed baseline.
func BenchmarkNetsimLargeStarInstrumented(b *testing.B) {
	cfg, err := netsim.Star(200, 0.0001, 0.04,
		netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Stats = &netsim.EngineStats{}
	benchNetsimRun(b, cfg)
}

func BenchmarkNetsimDeepTree(b *testing.B) {
	benchNetsimRun(b, binaryTreeConfig(b, 7, 50000))
}

// binaryTreeConfig compiles the Coordinated loss tree of the tree
// benchmarks: a complete binary tree of the given depth with receivers
// at the leaves and 2% Bernoulli loss on every link.
func binaryTreeConfig(b *testing.B, depth, packets int) netsim.Config {
	b.Helper()
	c, err := scenario.Compile(&scenario.Spec{
		Topology:    scenario.TopologySpec{Kind: "binarytree", Depth: depth},
		Sessions:    []scenario.SessionSpec{{Protocol: "coordinated", Layers: 8}},
		DefaultLink: &scenario.LinkSpec{Kind: "bernoulli", Loss: 0.02},
		Packets:     packets,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c.Cfg
}

func BenchmarkNetsimMultiSessionMesh(b *testing.B) {
	cfg, _, err := netsim.Mesh(4, 8, netsim.LinkSpec{Kind: netsim.Capacity, Capacity: 40},
		0.01, netsim.SessionConfig{Protocol: protocol.Coordinated, Layers: 8}, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, cfg)
}

// largeTopoBenchConfig builds the capacity-coupled mixed-protocol
// config the large-topology scenarios run (see experiments.NetsimScaleFree).
func largeTopoBenchConfig(b *testing.B, net *netmodel.Network, packets int) netsim.Config {
	b.Helper()
	cfg := netsim.Config{
		Network:  net,
		Links:    netsim.CapacityLinks(net.NumLinks()),
		Sessions: make([]netsim.SessionConfig, net.NumSessions()),
		Packets:  packets,
	}
	kinds := protocol.Kinds()
	for i := range cfg.Sessions {
		cfg.Sessions[i] = netsim.SessionConfig{Protocol: kinds[i%len(kinds)], Layers: 8}
	}
	return cfg
}

// BenchmarkNetsimScaleFree exercises the engine at hundreds of links x
// dozens of sessions on a power-law graph (150 nodes, ~300 links, 24
// mixed-protocol sessions).
func BenchmarkNetsimScaleFree(b *testing.B) {
	net, err := topology.ScaleFree(rand.New(rand.NewPCG(5, 5)), topology.DefaultScaleFreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, largeTopoBenchConfig(b, net, 100000))
}

// BenchmarkNetsimFatTree exercises the engine on the k=6 fat-tree
// fabric (54 hosts, 162 links, 24 mixed-protocol sessions).
func BenchmarkNetsimFatTree(b *testing.B) {
	net, err := topology.FatTree(rand.New(rand.NewPCG(5, 5)), topology.DefaultFatTreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, largeTopoBenchConfig(b, net, 100000))
}

// BenchmarkNetsimScaleFreeDense doubles the preferential-attachment
// degree (Attach 4, ~600 links): more chords mean bushier trees and
// wider per-node fan-out, stressing the wide-child descent path.
func BenchmarkNetsimScaleFreeDense(b *testing.B) {
	opts := topology.DefaultScaleFreeOptions()
	opts.Attach = 4
	net, err := topology.ScaleFree(rand.New(rand.NewPCG(5, 5)), opts)
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, largeTopoBenchConfig(b, net, 100000))
}

// BenchmarkNetsimFatTreeWide scales the fabric to k=8 (128 hosts, 384
// links): deeper receiver blocks and more links per session exercise
// the per-link fold and the capacity-admission table at size.
func BenchmarkNetsimFatTreeWide(b *testing.B) {
	opts := topology.DefaultFatTreeOptions()
	opts.K = 8
	net, err := topology.FatTree(rand.New(rand.NewPCG(5, 5)), opts)
	if err != nil {
		b.Fatal(err)
	}
	benchNetsimRun(b, largeTopoBenchConfig(b, net, 100000))
}

// --- netsim: planetary scale (session-sharded, memory-planned) ---

// benchNetsimPlanetary drives the planetary topology (link-disjoint
// regional backbones, PoP fan-out, 64 receivers per PoP) through
// benchNetsimRun with session-sharded execution, then reports the
// process's kernel peak RSS. The RSS metric is a process-wide high
// water, so the suite orders these benchmarks smallest-first and CI
// budgets the largest via benchjson -max-rss-bytes.
func benchNetsimPlanetary(b *testing.B, po topology.PlanetaryOptions, packets, shards int) {
	b.Helper()
	net, firstAccess, err := topology.Planetary(rand.New(rand.NewPCG(5, 5)), po)
	if err != nil {
		b.Fatal(err)
	}
	links := make([]netsim.LinkSpec, net.NumLinks())
	for j := 0; j < firstAccess; j++ {
		links[j] = netsim.LinkSpec{Kind: netsim.Capacity}
	}
	kinds := protocol.Kinds()
	sess := make([]netsim.SessionConfig, net.NumSessions())
	for i := range sess {
		sess[i] = netsim.SessionConfig{Protocol: kinds[i%len(kinds)], Layers: 8}
	}
	benchNetsimRun(b, netsim.Config{
		Network: net, Links: links, Sessions: sess,
		Packets: packets, Shards: shards,
	})
	b.ReportMetric(float64(obs.ReadPeakRSS()), "peak-RSS-bytes")
}

// BenchmarkNetsimPlanetary1M is the 2^20-receiver single run: 8 regions
// x 2048 PoPs x 64 receivers (131k links). Construction amortizes into
// the loop, so events/sec here is the end-to-end figure the ROADMAP's
// intra-run-scale target is gated on.
func BenchmarkNetsimPlanetary1M(b *testing.B) {
	benchNetsimPlanetary(b, topology.PlanetaryOptions1M(), 16384, runtime.NumCPU())
}

// BenchmarkNetsimPlanetary10M is the 10^7-receiver single run: 8
// regions x 20480 PoPs x 64 receivers (1.3M links). The interesting
// number is peak-RSS-bytes — the run must fit the documented planetary
// memory budget (docs/SCALE.md) on a stock CI runner.
func BenchmarkNetsimPlanetary10M(b *testing.B) {
	benchNetsimPlanetary(b, topology.PlanetaryOptions10M(), 4096, runtime.NumCPU())
}

// BenchmarkNetsimParallelRunner measures replication-runner scaling:
// compare ns/op across -cpu settings (the work per op is fixed at 8
// replications, so ideal scaling halves ns/op per doubling).
func BenchmarkNetsimParallelRunner(b *testing.B) {
	cfg, err := netsim.Star(100, 0.0001, 0.04,
		netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 20000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netsim.StreamReplications(cfg, 8, 0, func(_ int, r *netsim.Result) error {
			events += r.Events
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

func BenchmarkWeightedAllocation(b *testing.B) {
	net := randomNet()
	w := maxmin.UniformWeights(net)
	for i := range w {
		for k := range w[i] {
			w[i][k] = 1 + float64((i+k)%3)
		}
	}
	// Single-rate sessions need uniform weights.
	for i, s := range net.Sessions() {
		if s.Type == netmodel.SingleRate {
			for k := range w[i] {
				w[i][k] = 2
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.AllocateWeighted(net, w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sweepexec: the distributed sweep scheduler ---

// benchSweepScheduler drives a small sweep through sweepexec.Run with
// the given checkpoint setup, reporting the engine's events/sec so the
// checkpointing twin reads as a throughput delta. (Deliberately no
// allocs/event metric: the scheduler's per-point bookkeeping is not
// per-event work, so the engine's allocation budget does not apply.)
func benchSweepScheduler(b *testing.B, checkpoint bool) {
	b.Helper()
	sw := &scenario.Sweep{
		Base: scenario.Spec{
			Topology:     scenario.TopologySpec{Kind: "star", Receivers: 100},
			Sessions:     []scenario.SessionSpec{{Protocol: "deterministic", Layers: 8}},
			DefaultLink:  &scenario.LinkSpec{Kind: "bernoulli", Loss: 0.02},
			Packets:      250000,
			Seed:         77,
			Replications: scenario.ReplicationSpec{N: 8, Workers: 2},
		},
		Axes: []scenario.Axis{
			{Field: "defaultLink.loss", Values: []any{0.01, 0.05}},
		},
		Outputs: []string{"goodput"},
	}
	root := b.TempDir()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &netsim.EngineStats{}
		opts := sweepexec.Options{Observe: &scenario.Observe{Stats: st}}
		if checkpoint {
			opts.CheckpointDir = filepath.Join(root, strconv.Itoa(i))
		}
		if _, err := sweepexec.Run(sw, opts); err != nil {
			b.Fatal(err)
		}
		events += st.Events.Load()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkNetsimSweepScheduler is the sweepexec baseline: the
// streaming point scheduler with no durability: 2 points x 8 heavy
// replications per op, so the fixed per-commit file I/O of the
// checkpointed twin reads as a small relative delta.
func BenchmarkNetsimSweepScheduler(b *testing.B) {
	benchSweepScheduler(b, false)
}

// BenchmarkNetsimSweepSchedulerCheckpointed runs the identical sweep
// with checkpointing at the default per-point granularity — spill
// shard + checkpoint rename as each point completes. CI's benchjson
// -overhead pair gate pins the durability cost at <=2% events/sec
// against the baseline twin within the same run.
func BenchmarkNetsimSweepSchedulerCheckpointed(b *testing.B) {
	benchSweepScheduler(b, true)
}
