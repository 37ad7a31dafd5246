package netsim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// disjointCfg builds a config with three link-disjoint star sessions —
// three independent shard groups — covering the three protocols and
// three link models (Bernoulli, Capacity, DropTail shared links), plus
// churn on session 1. Receivers: n per session.
func disjointCfg(t *testing.T, n, packets int, seed uint64) Config {
	t.Helper()
	g := netmodel.NewGraph(3 * (2 + n))
	sessions := make([]*netmodel.Session, 3)
	var specs []LinkSpec
	shared := []LinkSpec{
		{Kind: Bernoulli, Loss: 0.02},
		{Kind: Capacity, Capacity: 24},
		{Kind: DropTail, Capacity: 32, Buffer: 8, Delay: 0.01},
	}
	kinds := protocol.Kinds()
	for i := 0; i < 3; i++ {
		base := i * (2 + n)
		sender, hub := base, base+1
		g.AddLink(sender, hub, 1)
		specs = append(specs, shared[i])
		receivers := make([]int, n)
		for k := 0; k < n; k++ {
			g.AddLink(hub, base+2+k, 1)
			specs = append(specs, LinkSpec{Kind: Bernoulli, Loss: 0.04})
			receivers[k] = base + 2 + k
		}
		sessions[i] = &netmodel.Session{Sender: sender, Receivers: receivers,
			Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Network: net,
		Links:   specs,
		Sessions: []SessionConfig{
			{Protocol: kinds[0], Layers: 8},
			{Protocol: kinds[1], Layers: 6},
			{Protocol: kinds[2], Layers: 8},
		},
		Packets: packets,
		Seed:    seed,
	}
	cfg.Churn = []ChurnEvent{
		{Time: 2, Session: 1, Receiver: 0, Join: false},
		{Time: 5, Session: 1, Receiver: 0, Join: true},
		{Time: 3, Session: 1, Receiver: n - 1, Join: false},
	}
	return cfg
}

// TestShardCountInvariance is the sharding contract's property test:
// on a multi-group topology, every Shards >= 1 yields the identical
// Result — the shard count tunes parallelism, never output. The config
// spans all three protocols, Bernoulli/Capacity/DropTail links, and
// churn, so every event family crosses the per-group engines.
func TestShardCountInvariance(t *testing.T) {
	cfg := disjointCfg(t, 12, 30000, 11)
	cfg.Shards = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.PacketsSent == 0 || want.Events == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}
	for shards := 2; shards <= 5; shards++ {
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

// TestShardInvarianceAcrossSeeds re-runs the invariance check over
// several seeds so a lucky event ordering can't hide a merge bug.
func TestShardInvarianceAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := disjointCfg(t, 6, 12000, seed)
		cfg.Shards = 1
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

// TestSingleGroupShardedMatchesSequential: when the whole topology is
// one link-connectivity component (a shared backbone couples every
// session), the sharded path runs the one group with the base seed and
// must reproduce the sequential engine's Result exactly — the sharded
// runner costs nothing in reproducibility when there is nothing to
// shard.
func TestSingleGroupShardedMatchesSequential(t *testing.T) {
	cfg, _, err := Mesh(3, 5, LinkSpec{Kind: Capacity, Capacity: 24}, 0.01,
		SessionConfig{Protocol: protocol.Coordinated, Layers: 8}, 30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("single-group Shards=%d diverged from the sequential engine", shards)
		}
	}
}

// TestShardedStatsMerge: a run flushes EngineStats once at every
// Shards — one Runs increment, counters summed across groups, the
// events total agreeing with Result.Events, and the probe's windows
// counted once (every group flushes the same window grid).
func TestShardedStatsMerge(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		cfg := disjointCfg(t, 8, 15000, 5)
		cfg.Shards = shards
		cfg.Probe = &ProbeConfig{Window: 10, MaxSamples: 4}
		cfg.Stats = &EngineStats{}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := cfg.Stats
		if got := st.Runs.Load(); got != 1 {
			t.Fatalf("Shards=%d: Runs = %d, want 1", shards, got)
		}
		if got := st.Events.Load(); got != res.Events {
			t.Fatalf("Shards=%d: stats events %d != result events %d", shards, got, res.Events)
		}
		if st.VirtualTime.Load() != res.Duration {
			t.Fatalf("Shards=%d: virtual time %v != duration %v", shards, st.VirtualTime.Load(), res.Duration)
		}
		ps := res.Probe
		if ps.Dropped == 0 {
			t.Fatalf("Shards=%d: probe ring never overflowed (%d samples)", shards, ps.NumSamples())
		}
		if got, want := st.ProbeWindows.Load(), int64(ps.NumSamples()+ps.Dropped); got != want {
			t.Fatalf("Shards=%d: probe windows = %d, want %d", shards, got, want)
		}
		if got := st.ProbeDropped.Load(); got != int64(ps.Dropped) {
			t.Fatalf("Shards=%d: probe dropped = %d, want %d", shards, got, ps.Dropped)
		}
	}
}

// TestShardedProbeMatchesSequential: on a single-component topology
// (one shard group, base seed) a probed sharded run must reproduce the
// sequential probed Result byte-for-byte — ProbeSeries included. This
// is the satellite contract for lifting the old probe + Shards
// rejection: probing stays pure measurement in sharded mode too.
func TestShardedProbeMatchesSequential(t *testing.T) {
	cfg, _, err := Mesh(3, 5, LinkSpec{Kind: Capacity, Capacity: 24}, 0.01,
		SessionConfig{Protocol: protocol.Coordinated, Layers: 8}, 30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []*ProbeConfig{
		{Window: 8, MaxSamples: 32},
		{PacketWindow: 1000},
	} {
		cfg.Probe = probe
		cfg.Shards = 0
		seq, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Probe == nil || seq.Probe.NumSamples() == 0 {
			t.Fatal("no probe samples in the sequential reference")
		}
		for _, shards := range []int{1, 3} {
			cfg.Shards = shards
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("probed single-group Shards=%d diverged from sequential (%+v)", shards, probe)
			}
		}
	}
}

// TestShardedProbeMultiGroup: with several shard groups, time-window
// probes merge into one global ProbeSeries — invariant in the shard
// count, window grid aligned across groups, and the windowed deltas
// summing back to the Result's cumulative counters.
func TestShardedProbeMultiGroup(t *testing.T) {
	cfg := disjointCfg(t, 8, 15000, 5)
	cfg.Probe = &ProbeConfig{Window: 10, MaxSamples: 256}
	cfg.Shards = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := want.Probe
	if ps == nil || ps.NumSamples() < 2 || ps.Dropped != 0 {
		t.Fatalf("probe series: %+v", ps)
	}
	for shards := 2; shards <= 4; shards++ {
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probed Shards=%d diverged from Shards=1", shards)
		}
	}
	// The windows partition the run: start[0] = 0, contiguous
	// boundaries, final close at Duration.
	n := ps.NumSamples()
	if ps.Starts[0] != 0 || ps.Times[n-1] != want.Duration {
		t.Fatalf("window grid [%v, %v] does not span [0, %v]", ps.Starts[0], ps.Times[n-1], want.Duration)
	}
	for s := 1; s < n; s++ {
		if ps.Starts[s] != ps.Times[s-1] {
			t.Fatalf("sample %d start %v != previous close %v", s, ps.Starts[s], ps.Times[s-1])
		}
	}
	// Deliveries summed over windows equal the cumulative counters.
	for i := range want.ReceiverPackets {
		for k, totPkts := range want.ReceiverPackets[i] {
			sum := 0
			for s := 0; s < n; s++ {
				sum += ps.ReceiverDelivered(i, k, s)
			}
			if sum != totPkts {
				t.Fatalf("receiver (%d,%d): windows sum to %d, result says %d", i, k, sum, totPkts)
			}
		}
	}
	// Link crossings likewise (all sessions fold into one per-link sum).
	crossed := make(map[int]int)
	for _, ls := range want.Links {
		crossed[ls.Link] += ls.Crossed
	}
	for j := 0; j < ps.NumLinks(); j++ {
		sum := 0
		for s := 0; s < n; s++ {
			sum += ps.LinkCrossed(j, s)
		}
		if sum != crossed[j] {
			t.Fatalf("link %d: windows sum to %d, result says %d", j, sum, crossed[j])
		}
	}
}

// TestShardsRejectMultiGroupPacketProbe: packet-window boundaries count
// transmissions across all sessions in one global order, which no group
// engine can see — multi-group packet probing is a clear error, while
// the same probe on a single-component topology is accepted.
func TestShardsRejectMultiGroupPacketProbe(t *testing.T) {
	cfg := disjointCfg(t, 4, 1000, 1)
	cfg.Shards = 2
	cfg.Probe = &ProbeConfig{PacketWindow: 64}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "packet-window probing") {
		t.Fatalf("multi-group packet-window probe accepted: %v", err)
	}
}

// TestSessionGroupsOf pins the grouping itself: disjoint stars get one
// group per session, a shared backbone collapses everything to one.
func TestSessionGroupsOf(t *testing.T) {
	cfg := disjointCfg(t, 4, 1000, 1)
	groupOf, n := sessionGroupsOf(cfg)
	if n != 3 {
		t.Fatalf("disjoint stars: %d groups, want 3", n)
	}
	// Group ids are assigned in order of lowest session index.
	for i, g := range groupOf {
		if g != i {
			t.Fatalf("groupOf = %v, want identity", groupOf)
		}
	}
	mesh, _, err := Mesh(3, 4, LinkSpec{Kind: Capacity, Capacity: 24}, 0.01,
		SessionConfig{Protocol: protocol.Deterministic, Layers: 8}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := sessionGroupsOf(mesh); n != 1 {
		t.Fatalf("shared backbone: %d groups, want 1", n)
	}
}

// TestPlanMemoryAccounting: the plan's arithmetic invariants, plus a
// live-measurement sanity check — the bytes actually allocated by a
// sequential run land within a factor of two of the plan's accounting
// (the plan tracks every slab the engine carves, so a big mismatch
// means a formula drifted from newEngineFor).
func TestPlanMemoryAccounting(t *testing.T) {
	cfg := starCfg(t, 5000, 0.0001, 0.04, protocol.Deterministic, 100, 1)
	plan, err := PlanMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Receivers != 5000 || plan.Links != 5001 || plan.Sessions != 1 || plan.Groups != 1 {
		t.Fatalf("plan shape: %+v", plan)
	}
	peak := plan.ScratchBytes
	if plan.ResultBytes > peak {
		peak = plan.ResultBytes
	}
	if plan.Total != plan.SessionBytes+plan.FixedBytes+peak {
		t.Fatalf("plan total %d inconsistent with parts: %+v", plan.Total, plan)
	}
	if plan.BytesPerReceiver <= 0 || plan.BytesPerReceiver > 4096 {
		t.Fatalf("bytes/receiver = %v", plan.BytesPerReceiver)
	}
	planned := plan.SessionBytes + plan.FixedBytes + plan.ScratchBytes + plan.ResultBytes
	measured := allocatedBytes(t, cfg)
	if measured < planned/2 || measured > planned*2 {
		t.Fatalf("run allocated %d bytes, plan accounts for %d (off by more than 2x)", measured, planned)
	}
}

// TestPlanMemoryMatchesEngine: the plan's SessionBytes is exactly what
// the engine's sessions hold — the capacity of every slice field of
// every sessState times its element size, summed by reflection so that
// a new field is counted without editing this test — on stars, on nodes
// hosting 100 receivers under each protocol, and on a tree cut at its
// access links.
func TestPlanMemoryMatchesEngine(t *testing.T) {
	cfgs := map[string]Config{}
	for _, kind := range protocol.Kinds() {
		cfgs["star/"+kind.String()] = starCfg(t, 20, 0.0001, 0.04, kind, 400, 1)
		cfgs["pop100/"+kind.String()] = pop100Cfg(t, kind, 1)
	}
	cut := pop100Cfg(t, protocol.Uncoordinated, 1)
	cut.Shards = 2
	cut.CutLinks = topology.PlanetaryCutFrontier(pop100FirstAccess, cut.Network.NumLinks())
	cfgs["pop100/access"] = cut
	for name, cfg := range cfgs {
		plan, err := PlanMemory(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids := make([]int, cfg.Network.NumSessions())
		for i := range ids {
			ids[i] = i
		}
		e, err := newEngineFor(cfg, ids, cfg.Churn, cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var held int64
		for i := range e.sess {
			v := reflect.ValueOf(&e.sess[i]).Elem()
			for f := 0; f < v.NumField(); f++ {
				if fv := v.Field(f); fv.Kind() == reflect.Slice {
					held += int64(fv.Cap()) * int64(fv.Type().Elem().Size())
				}
			}
		}
		if held != plan.SessionBytes {
			t.Errorf("%s: sessions hold %d bytes, plan's SessionBytes = %d", name, held, plan.SessionBytes)
		}
	}
}

// allocatedBytes measures the heap bytes one Run allocates (engine +
// result, not the prebuilt network), single-threaded and GC-settled.
func allocatedBytes(t *testing.T, cfg Config) int64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestPlanMemoryCountsShardGroups: under sharding the per-engine fixed
// state multiplies by the group count, so a sharded plan is never
// smaller than the sequential one.
func TestPlanMemoryCountsShardGroups(t *testing.T) {
	cfg := disjointCfg(t, 16, 1000, 1)
	seq, err := PlanMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	sh, err := PlanMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Groups != 3 {
		t.Fatalf("sharded plan groups = %d, want 3", sh.Groups)
	}
	if sh.Total < seq.Total {
		t.Fatalf("sharded plan %d < sequential plan %d", sh.Total, seq.Total)
	}
}

// TestMemBudgetFailFast: a budget below the plan fails before any
// engine allocation with an error naming both numbers; a budget at the
// plan runs.
func TestMemBudgetFailFast(t *testing.T) {
	cfg := starCfg(t, 200, 0.0001, 0.04, protocol.Deterministic, 1000, 1)
	plan, err := PlanMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudget = plan.Total - 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "exceeds MemBudget") {
		t.Fatalf("under-budget run accepted: %v", err)
	}
	cfg.MemBudget = plan.Total
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
