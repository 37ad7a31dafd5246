package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlfair/internal/netsim"
)

// TestSpecRoundTrip pins the JSON contract: decode → validate → encode
// reproduces every committed spec file byte for byte (the testdata here
// and the cmd/netsim -spec corpus).
func TestSpecRoundTrip(t *testing.T) {
	var files []string
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "cmd", "netsim", "testdata")} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) < 5 {
		t.Fatalf("expected a spec corpus, found %d files", len(files))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out bytes.Buffer
		if err := spec.Encode(&out); err != nil {
			t.Fatalf("%s: encode: %v", path, err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Errorf("%s: decode→encode not stable:\n--- file ---\n%s\n--- re-encoded ---\n%s",
				path, raw, out.String())
		}
		// Second round trip is a fixed point.
		spec2, err := Decode(&out)
		if err != nil {
			t.Fatalf("%s: second decode: %v", path, err)
		}
		var out2 bytes.Buffer
		if err := spec2.Encode(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out2.Bytes(), raw) {
			t.Errorf("%s: second round trip diverged", path)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Topology:     TopologySpec{Kind: "star", Receivers: 3},
			Packets:      100,
			Replications: ReplicationSpec{N: 1},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Topology.Kind = "torus" }},
		{"negative reps", func(s *Spec) { s.Replications.N = -1 }},
		{"no packets", func(s *Spec) { s.Packets = 0 }},
		{"paths simulated", func(s *Spec) { s.Topology.Kind = "paths" }},
		{"bad metric", func(s *Spec) { s.Metrics = []string{"latency"} }},
		{"bad protocol", func(s *Spec) { s.Sessions = []SessionSpec{{Protocol: "tcp"}} }},
		{"bad type", func(s *Spec) { s.Sessions = []SessionSpec{{Type: "dual"}} }},
		{"redundancy below 1", func(s *Spec) { s.Sessions = []SessionSpec{{Redundancy: 0.5}} }},
		{"paths on concrete kind", func(s *Spec) { s.Sessions = []SessionSpec{{Paths: [][]int{{0}}}} }},
		{"bad link kind", func(s *Spec) { s.DefaultLink = &LinkSpec{Kind: "wormhole"} }},
		{"negative topology sessions", func(s *Spec) { s.Topology.Kind = "mesh"; s.Topology.Sessions = -1 }},
		{"negative fanout capacity", func(s *Spec) { s.Topology.FanoutCapacities = []float64{-1} }},
		{"NaN shared capacity", func(s *Spec) { s.Topology.SharedCapacity = math.NaN() }},
		{"capMax below capMin", func(s *Spec) {
			s.Topology.Kind = "binarytree"
			s.Topology.Depth = 2
			s.Topology.CapMin = 4
			s.Topology.CapMax = 2
		}},
		{"probability above 1", func(s *Spec) { s.Topology.Kind = "random"; s.Topology.SingleRateProb = 2 }},
		{"links on paths topology", func(s *Spec) {
			s.Topology = TopologySpec{Kind: "paths", LinkCapacities: []float64{1}}
			s.Replications.N = 0
			s.Sessions = []SessionSpec{{Paths: [][]int{{0}}}}
			s.DefaultLink = &LinkSpec{Kind: "capacity"}
		}},
		{"negative signal period", func(s *Spec) { s.SignalPeriod = -1 }},
		{"negative leave latency", func(s *Spec) { s.LeaveLatency = -1 }},
		{"negative churn", func(s *Spec) { s.Churn = &ChurnSpec{Interval: -1} }},
		{"churn rounds above the cap", func(s *Spec) {
			s.Churn = &ChurnSpec{Interval: 1, Downtime: 1, Horizon: maxChurnRounds + 1}
		}},
	}
	for _, c := range cases {
		s := base()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	// An empty link kind means perfect (matching a nil DefaultLink),
	// both in validation and in the compiled config.
	s := base()
	s.DefaultLink = &LinkSpec{}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("empty link kind rejected: %v", err)
	}
	if c.Cfg.Links[0].Kind != netsim.Perfect {
		t.Fatalf("empty link kind compiled to %v", c.Cfg.Links[0].Kind)
	}
	// Degenerate generator parameters come back as errors, not panics.
	s = base()
	s.Topology = TopologySpec{Kind: "random", Nodes: 1}
	if _, err := Compile(s); err == nil {
		t.Fatal("random topology with one node accepted")
	}
}

// TestCompileStarShape pins the star contract: link 0 shared, link k+1
// receiver k's fanout, overrides applied, and the benchmark network
// using effective capacities (spec capacity minus background).
func TestCompileStarShape(t *testing.T) {
	s := &Spec{
		Topology: TopologySpec{Kind: "star", SharedCapacity: 24, FanoutCapacities: []float64{2, 8}},
		Sessions: []SessionSpec{{Protocol: "coordinated", Layers: 4, Type: "single", MaxRate: 10}},
		Links: []LinkOverride{
			{Link: 0, LinkSpec: LinkSpec{Kind: "droptail", Capacity: 20, Background: 4}},
		},
		DefaultLink:  &LinkSpec{Kind: "capacity"},
		Packets:      100,
		Replications: ReplicationSpec{N: 1},
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.NumLinks() != 3 || c.Net.NumSessions() != 1 {
		t.Fatalf("star shape: %d links, %d sessions", c.Net.NumLinks(), c.Net.NumSessions())
	}
	if c.Cfg.Links[0].Kind != netsim.DropTail || c.Cfg.Links[1].Kind != netsim.Capacity {
		t.Fatalf("link specs not resolved: %+v", c.Cfg.Links)
	}
	if got := c.Benchmark.Capacity(0); math.Abs(got-16) > 1e-12 {
		t.Fatalf("benchmark shared capacity %v, want 20-4=16", got)
	}
	if got := c.Benchmark.Capacity(1); got != 2 {
		t.Fatalf("benchmark fanout capacity %v, want 2", got)
	}
	bs := c.Benchmark.Session(0)
	if bs.MaxRate != 10 || bs.Type.String() != "S" {
		t.Fatalf("benchmark Γ/κ not applied: type %v κ %v", bs.Type, bs.MaxRate)
	}
	if c.Cfg.Sessions[0].Layers != 4 {
		t.Fatalf("session layers %d", c.Cfg.Sessions[0].Layers)
	}
	// Out-of-range override rejected.
	s.Links[0].Link = 99
	if _, err := Compile(s); err == nil {
		t.Fatal("out-of-range link override accepted")
	}
}

// TestRunAuditPipeline is the tentpole acceptance path in miniature:
// one spec drives simulation + max-min benchmark + fairness audits +
// per-receiver gaps, on an explicit capacity tree with a hand-checked
// fair allocation.
func TestRunAuditPipeline(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "tree-audit.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Simulated {
		t.Fatal("simulation stage did not run")
	}
	// Hand computation: receiver paths bottleneck at 4, 8, 2.
	want := []float64{4, 8, 2}
	for k, w := range want {
		if got := res.FairRates[0][k]; math.Abs(got-w) > 1e-9 {
			t.Fatalf("fair rate r1,%d = %v, want %v (all: %v)", k+1, got, w, res.FairRates)
		}
	}
	if res.BenchmarkFairness == nil || !res.BenchmarkFairness.AllHold() {
		t.Fatalf("benchmark audit should hold all four properties: %+v", res.BenchmarkFairness)
	}
	if res.SimulatedFairness == nil {
		t.Fatal("simulated-rate audit missing")
	}
	for k := range want {
		gap := res.Gap[0][k]
		if gap <= 0 || gap > 1.3 {
			t.Fatalf("gap r1,%d = %v outside (0, 1.3]", k+1, gap)
		}
	}
	var b strings.Builder
	if err := res.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, wantStr := range []string{"max-min fair rate", "fairness gap", "benchmark properties", "simulated-rate properties"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, out)
		}
	}
}

// TestAnalyticOnly: the abstract paths topology runs the analytic
// stages without simulation, honoring Γ, κ and redundancy functions.
func TestAnalyticOnly(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "paths-analytic.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated {
		t.Fatal("analytic-only spec simulated")
	}
	if len(res.FairRates) != 2 || len(res.FairRates[0]) != 3 {
		t.Fatalf("fair rate shape wrong: %v", res.FairRates)
	}
	if res.BenchmarkFairness == nil {
		t.Fatal("benchmark audit missing")
	}
	var b strings.Builder
	if err := res.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max-min benchmark properties") {
		t.Errorf("report missing verdicts:\n%s", b.String())
	}
	// Simulation must be explicitly rejected for abstract topologies.
	spec.Replications.N = 1
	spec.Packets = 100
	if _, err := Run(spec); err == nil {
		t.Fatal("abstract topology accepted a simulation run")
	}
}

// TestRunnerWorkerIndependence: aggregates are bit-identical for any
// worker count (the streaming runner's determinism contract).
func TestRunnerWorkerIndependence(t *testing.T) {
	base := &Spec{
		Topology:     TopologySpec{Kind: "star", Receivers: 8},
		Sessions:     []SessionSpec{{Protocol: "deterministic", Layers: 6}},
		DefaultLink:  &LinkSpec{Kind: "bernoulli", Loss: 0.03},
		Packets:      5000,
		Seed:         13,
		Replications: ReplicationSpec{N: 6, Workers: 1},
		Metrics:      []string{MetricGoodput, MetricRedundancy, MetricRates},
	}
	run := func(workers int) *Result {
		s := *base
		s.Replications.Workers = workers
		res, err := Run(&s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(3)
	if a.Goodput != b.Goodput || a.RootRedundancy != b.RootRedundancy || a.MaxLinkRedundancy != b.MaxLinkRedundancy {
		t.Fatalf("aggregates differ across worker counts:\n1: %+v\n3: %+v", a, b)
	}
	for k := range a.Rates[0] {
		if a.Rates[0][k] != b.Rates[0][k] {
			t.Fatalf("receiver %d summary differs across worker counts", k)
		}
	}
}

// TestDecodeRejectsDenseChurn: a churn interval far below the horizon
// asks for more leave/rejoin rounds than memory holds (at an interval of
// 1e-20 the round time also stops advancing near 1e-4); Decode refuses
// the spec, naming the churn block, before anything is compiled.
func TestDecodeRejectsDenseChurn(t *testing.T) {
	const spec = `{"topology":{"kind":"star","receivers":4},"sessions":[{"protocol":"Deterministic","layers":4}],"packets":100,"churn":{"interval":1e-20,"downtime":1,"horizon":1},"replications":{"n":1},"seed":1}`
	_, err := Decode(strings.NewReader(spec))
	if err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("Decode = %v, want an error naming churn", err)
	}
}

// TestChurnCompilation: a ChurnSpec yields both the periodic schedule
// and the explicit events in the compiled config.
func TestChurnCompilation(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "star-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cfg.Churn) < 3 {
		t.Fatalf("churn schedule too small: %d events", len(c.Cfg.Churn))
	}
	last := c.Cfg.Churn[len(c.Cfg.Churn)-1]
	if last.Time != 10 || last.Receiver != 3 || last.Join {
		t.Fatalf("explicit churn event not appended: %+v", last)
	}
	if _, err := Run(spec); err != nil {
		t.Fatalf("churn spec run: %v", err)
	}
}
