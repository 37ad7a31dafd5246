package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// sweepBase is a small star spec suitable as a sweep template.
func sweepBase() Spec {
	return Spec{
		Topology:     TopologySpec{Kind: "star", Receivers: 5},
		Sessions:     []SessionSpec{{Protocol: "deterministic", Layers: 6}},
		DefaultLink:  &LinkSpec{Kind: "bernoulli", Loss: 0.02},
		Links:        []LinkOverride{{Link: 0, LinkSpec: LinkSpec{Kind: "bernoulli", Loss: 0.0001}}},
		Packets:      3000,
		Seed:         77,
		Replications: ReplicationSpec{N: 3, Workers: 2},
	}
}

func TestSweepValidateRejects(t *testing.T) {
	base := sweepBase()
	cases := []struct {
		name string
		mut  func(*Sweep)
	}{
		{"no axes", func(sw *Sweep) { sw.Axes = nil }},
		{"empty grid", func(sw *Sweep) { sw.Axes = []Axis{{Field: "packets", Values: []any{}}} }},
		{"no value source", func(sw *Sweep) { sw.Axes = []Axis{{Field: "packets"}} }},
		{"two value sources", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "packets", Values: []any{1000.0}, Range: &RangeSpec{From: 1, To: 2, Step: 1}}}
		}},
		{"bad field name", func(sw *Sweep) { sw.Axes = []Axis{{Field: "topology.warp", Values: []any{1.0}}} }},
		{"bad top-level field", func(sw *Sweep) { sw.Axes = []Axis{{Field: "wormholes", Values: []any{1.0}}} }},
		{"conflicting axes", func(sw *Sweep) {
			sw.Axes = []Axis{
				{Field: "defaultLink.loss", Values: []any{0.01}},
				{Field: "defaultLink.loss", Values: []any{0.02}},
			}
		}},
		{"conflicting sessions axes", func(sw *Sweep) {
			sw.Axes = []Axis{
				{Field: "sessions.layers", Values: []any{4.0}},
				{Field: "sessions[0].layers", Values: []any{6.0}},
			}
		}},
		{"duplicate axis values", func(sw *Sweep) { sw.Axes = []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.01}}} }},
		{"string for numeric field", func(sw *Sweep) { sw.Axes = []Axis{{Field: "packets", Values: []any{"many"}}} }},
		{"fraction for integer field", func(sw *Sweep) { sw.Axes = []Axis{{Field: "topology.receivers", Values: []any{2.5}}} }},
		{"number for string field", func(sw *Sweep) { sw.Axes = []Axis{{Field: "sessions.protocol", Values: []any{3.0}}} }},
		{"defaultLink axis without base model", func(sw *Sweep) {
			sw.Base.DefaultLink = nil
			sw.Axes = []Axis{{Field: "defaultLink.loss", Values: []any{0.01}}}
		}},
		{"links axis without base override", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "links[3].loss", Values: []any{0.01}}}
		}},
		{"malformed links axis", func(sw *Sweep) { sw.Axes = []Axis{{Field: "links[x].loss", Values: []any{0.01}}} }},
		{"session slot out of range", func(sw *Sweep) { sw.Axes = []Axis{{Field: "sessions[4].layers", Values: []any{4.0}}} }},
		{"bad range step", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "defaultLink.loss", Range: &RangeSpec{From: 0, To: 1, Step: 0}}}
		}},
		{"inverted range", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "defaultLink.loss", Range: &RangeSpec{From: 1, To: 0, Step: 0.1}}}
		}},
		{"bad logRange", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "defaultLink.loss", LogRange: &LogRangeSpec{From: 0, To: 1, Points: 3}}}
		}},
		{"one-point logRange", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "defaultLink.loss", LogRange: &LogRangeSpec{From: 0.1, To: 1, Points: 1}}}
		}},
		{"unknown output", func(sw *Sweep) { sw.Outputs = []string{"latency"} }},
		{"duplicate output", func(sw *Sweep) { sw.Outputs = []string{"goodput", "goodput"} }},
		{"analytic base", func(sw *Sweep) { sw.Base.Replications.N = 0 }},
		{"invalid base", func(sw *Sweep) { sw.Base.Packets = 0 }},
		{"grid explosion", func(sw *Sweep) {
			// 2100^2 points exceeds the 1<<22 overflow guard (the old
			// 4096 cap is gone: points expand lazily, so merely large
			// grids are legal).
			sw.Axes = []Axis{
				{Field: "packets", Range: &RangeSpec{From: 1, To: 2100, Step: 1}},
				{Field: "seed", Range: &RangeSpec{From: 1, To: 2100, Step: 1}},
			}
		}},
		{"axis value breaking point validation", func(sw *Sweep) {
			sw.Axes = []Axis{{Field: "sessions.protocol", Values: []any{"tcp"}}}
		}},
	}
	for _, c := range cases {
		sw := &Sweep{Base: base, Axes: []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.02}}}}
		c.mut(sw)
		if _, err := sw.Expand(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Distinct indexed session slots do NOT conflict: a per-slot
	// cross-product is a legitimate sweep.
	twoSlots := sweepBase()
	twoSlots.Topology = TopologySpec{Kind: "mesh", Sessions: 2, Receivers: 2}
	twoSlots.Sessions = []SessionSpec{{Protocol: "deterministic"}, {Protocol: "deterministic"}}
	sw := &Sweep{Base: twoSlots, Axes: []Axis{
		{Field: "sessions[0].layers", Values: []any{4.0, 6.0}},
		{Field: "sessions[1].layers", Values: []any{4.0, 8.0}},
	}}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatalf("per-slot axes rejected: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("per-slot cross product expanded to %d points", len(pts))
	}
	if pts[1].Spec.Sessions[0].Layers != 4 || pts[1].Spec.Sessions[1].Layers != 8 {
		t.Fatalf("per-slot overrides misapplied: %+v", pts[1].Spec.Sessions)
	}
}

func TestSweepExpand(t *testing.T) {
	sw := &Sweep{
		Base: sweepBase(),
		Axes: []Axis{
			{Field: "sessions.protocol", Values: []any{"Coordinated", "Deterministic"}},
			{Field: "defaultLink.loss", Range: &RangeSpec{From: 0.01, To: 0.03, Step: 0.01}},
		},
	}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("expanded %d points, want 6", len(pts))
	}
	// Row-major: first axis slowest.
	wantCoords := [][]string{
		{"Coordinated", "0.01"}, {"Coordinated", "0.02"}, {"Coordinated", "0.03"},
		{"Deterministic", "0.01"}, {"Deterministic", "0.02"}, {"Deterministic", "0.03"},
	}
	for i, p := range pts {
		if p.ID != i {
			t.Fatalf("point %d has id %d", i, p.ID)
		}
		if strings.Join(p.Coords, "|") != strings.Join(wantCoords[i], "|") {
			t.Fatalf("point %d coords %v, want %v", i, p.Coords, wantCoords[i])
		}
		if p.Spec.Sessions[0].Protocol != wantCoords[i][0] {
			t.Fatalf("point %d protocol %q", i, p.Spec.Sessions[0].Protocol)
		}
		if got := p.Spec.DefaultLink.Loss; formatAxisValue(got) != wantCoords[i][1] {
			t.Fatalf("point %d loss %v", i, got)
		}
		// The base must not be aliased.
		if p.Spec == &sw.Base {
			t.Fatal("point spec aliases the base")
		}
	}
	if sw.Base.DefaultLink.Loss != 0.02 || sw.Base.Sessions[0].Protocol != "deterministic" {
		t.Fatalf("expansion mutated the base: %+v", sw.Base)
	}
}

func TestSweepFieldSetters(t *testing.T) {
	s := sweepBase()
	for field, v := range map[string]any{
		"packets":             6000.0,
		"seed":                99.0,
		"leaveLatency":        2.0,
		"signalPeriod":        0.5,
		"replications.n":      5.0,
		"topology.receivers":  9.0,
		"topology.seed":       4.0,
		"churn.interval":      3.0,
		"churn.downtime":      1.0,
		"churn.horizon":       30.0,
		"defaultLink.loss":    0.5,
		"defaultLink.buffer":  8.0,
		"links[0].loss":       0.25,
		"sessions[0].layers":  4.0,
		"sessions.maxRate":    7.0,
		"sessions.type":       "single",
		"sessions.redundancy": 1.5,
	} {
		if err := setSpecField(&s, field, v); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
	}
	if s.Packets != 6000 || s.Seed != 99 || s.LeaveLatency != 2 || s.Replications.N != 5 {
		t.Fatalf("scalar fields not applied: %+v", s)
	}
	if s.Topology.Receivers != 9 || s.Topology.Seed != 4 {
		t.Fatalf("topology fields not applied: %+v", s.Topology)
	}
	if s.Churn == nil || s.Churn.Interval != 3 || s.Churn.Downtime != 1 || s.Churn.Horizon != 30 {
		t.Fatalf("churn fields not applied: %+v", s.Churn)
	}
	if s.DefaultLink.Loss != 0.5 || s.DefaultLink.Buffer != 8 || s.Links[0].Loss != 0.25 {
		t.Fatalf("link fields not applied: %+v %+v", s.DefaultLink, s.Links)
	}
	ss := s.Sessions[0]
	if ss.Layers != 4 || ss.MaxRate != 7 || ss.Type != "single" || ss.Redundancy != 1.5 {
		t.Fatalf("session fields not applied: %+v", ss)
	}
	// "sessions.X" materializes a slot when the base has none.
	empty := sweepBase()
	empty.Sessions = nil
	if err := setSpecField(&empty, "sessions.protocol", "Coordinated"); err != nil {
		t.Fatal(err)
	}
	if len(empty.Sessions) != 1 || empty.Sessions[0].Protocol != "Coordinated" {
		t.Fatalf("sessions slot not materialized: %+v", empty.Sessions)
	}
}

// compilePoints expands sw and compiles every point on one executor.
func compilePoints(t *testing.T, sw *Sweep) []*Compiled {
	t.Helper()
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewPointExecutor(sw)
	if err != nil {
		t.Fatal(err)
	}
	compiled := make([]*Compiled, len(pts))
	for i := range pts {
		if compiled[i], err = x.Compile(&pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return compiled
}

// TestSweepTopologyCache: points varying only non-topology fields
// share one built network; points varying topology inputs do not.
func TestSweepTopologyCache(t *testing.T) {
	base := sweepBase()
	base.Topology = TopologySpec{Kind: "scalefree", Nodes: 30, Sessions: 3}
	sw := &Sweep{Base: base, Axes: []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.02, 0.03}}}}
	compiled := compilePoints(t, sw)
	if compiled[0].Net != compiled[1].Net || compiled[1].Net != compiled[2].Net {
		t.Fatal("points with identical topology inputs did not share the built network")
	}
	sw2 := &Sweep{Base: base, Axes: []Axis{{Field: "topology.nodes", Values: []any{30.0, 40.0}}}}
	compiled2 := compilePoints(t, sw2)
	if compiled2[0].Net == compiled2[1].Net {
		t.Fatal("points with different topology inputs shared a network")
	}
	if compiled2[0].Net.Graph().NumNodes() == compiled2[1].Net.Graph().NumNodes() {
		t.Fatal("topology axis had no effect")
	}
}

// TestRunSweepDeterminism: the whole sweep — CSV and JSON bytes — is
// invariant under the worker budget, the scheduler's point/replication
// split, and repeated runs.
func TestRunSweepDeterminism(t *testing.T) {
	build := func(workers int) *Sweep {
		base := sweepBase()
		base.Replications.Workers = workers
		return &Sweep{
			Base: base,
			Axes: []Axis{
				{Field: "sessions.protocol", Values: []any{"Coordinated", "Deterministic"}},
				{Field: "defaultLink.loss", Values: []any{0.01, 0.05}},
			},
			Outputs:   []string{"goodput", "shared_redundancy", "best_rate"},
			Benchmark: true,
		}
	}
	render := func(workers int) string {
		res, err := RunSweepObserved(build(workers), nil)
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String() + js.String()
	}
	want := render(1)
	for _, workers := range []int{2, 4, 7} {
		if got := render(workers); got != want {
			t.Fatalf("sweep output differs between 1 and %d workers:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
	if got := render(1); got != want {
		t.Fatal("repeated run not deterministic")
	}
}

// TestRunSweepAgainstScenarioRun: a sweep point's cell reproduces a
// direct scenario.Run of the same spec bit for bit — the sweep layer
// adds scheduling, never different numbers.
func TestRunSweepAgainstScenarioRun(t *testing.T) {
	sw := &Sweep{
		Base:    sweepBase(),
		Axes:    []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.04}}},
		Outputs: []string{"goodput", "root_redundancy"},
	}
	res, err := RunSweepObserved(sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, loss := range []float64{0.01, 0.04} {
		spec := sweepBase()
		spec.DefaultLink.Loss = loss
		direct, err := Run(&spec)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := res.Cell(i, "goodput")
		if err != nil {
			t.Fatal(err)
		}
		if cell.Mean != direct.Goodput.Mean || cell.CI95() != direct.Goodput.CI95 {
			t.Fatalf("point %d goodput %v±%v, direct run %v±%v",
				i, cell.Mean, cell.CI95(), direct.Goodput.Mean, direct.Goodput.CI95)
		}
		red, err := res.Cell(i, "root_redundancy")
		if err != nil {
			t.Fatal(err)
		}
		if red.Mean != direct.RootRedundancy.Mean {
			t.Fatalf("point %d redundancy %v, direct %v", i, red.Mean, direct.RootRedundancy.Mean)
		}
	}
}

// TestSweepBenchmarkStage: the compare columns join per point and the
// fairness gap lands in a sane band on a capacity star.
func TestSweepBenchmarkStage(t *testing.T) {
	base := Spec{
		Topology:     TopologySpec{Kind: "star", SharedCapacity: 12, FanoutCapacities: []float64{2, 8, 32}},
		Sessions:     []SessionSpec{{Protocol: "Coordinated", Layers: 8}},
		DefaultLink:  &LinkSpec{Kind: "capacity"},
		Packets:      20000,
		Seed:         7,
		Replications: ReplicationSpec{N: 2, Workers: 2},
	}
	sw := &Sweep{
		Base:      base,
		Axes:      []Axis{{Field: "topology.sharedCapacity", Values: []any{12.0, 24.0}}},
		Outputs:   []string{"goodput", "best_rate"},
		Benchmark: true,
	}
	res, err := RunSweepObserved(sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench == nil {
		t.Fatal("benchmark store missing")
	}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", b.String())
	}
	if !strings.HasSuffix(lines[0], ",fair_rate,fair_min,gap_mean,gap_min") {
		t.Fatalf("missing benchmark columns: %s", lines[0])
	}
	for _, id := range []int{0, 1} {
		fr, err := res.Bench.Cell(id, "fair_rate")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Mean <= 0 {
			t.Fatalf("point %d fair_rate %v", id, fr.Mean)
		}
		gap, err := res.Bench.Cell(id, "gap_mean")
		if err != nil {
			t.Fatal(err)
		}
		if gap.Mean <= 0 || gap.Mean > 1.5 {
			t.Fatalf("point %d gap_mean %v outside (0, 1.5]", id, gap.Mean)
		}
	}
	// The two points' fair rates differ: the topology axis reached the
	// benchmark side too.
	a, _ := res.Bench.Cell(0, "fair_rate")
	c, _ := res.Bench.Cell(1, "fair_rate")
	if a.Mean == c.Mean {
		t.Fatal("sharedCapacity axis did not move the benchmark allocation")
	}
}

// TestSweepRoundTrip: decode → validate → encode is byte-stable for a
// canonical sweep document.
func TestSweepRoundTrip(t *testing.T) {
	sw := &Sweep{
		Name: "round trip",
		Base: sweepBase(),
		Axes: []Axis{
			{Field: "defaultLink.loss", Values: []any{0.0, 0.01, 0.02}},
			{Field: "sessions.protocol", Values: []any{"Coordinated", "Uncoordinated"}},
		},
		Outputs:   []string{"goodput"},
		Benchmark: true,
	}
	var a bytes.Buffer
	if err := sw.Encode(&a); err != nil {
		t.Fatal(err)
	}
	sw2, err := DecodeSweep(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sw2.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sweep round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", a.String(), b.String())
	}
	// Unknown fields rejected.
	if _, err := DecodeSweep(strings.NewReader(`{"base": {}, "axes": [], "warp": 9}`)); err == nil {
		t.Fatal("unknown sweep field accepted")
	}
}

func TestAxisLogRange(t *testing.T) {
	ax := Axis{Field: "defaultLink.loss", LogRange: &LogRangeSpec{From: 0.001, To: 0.1, Points: 3}}
	vals, err := ax.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("%d values", len(vals))
	}
	if vals[0].(float64) != 0.001 || vals[2].(float64) != 0.1 {
		t.Fatalf("endpoints %v", vals)
	}
	mid := vals[1].(float64)
	if mid < 0.0099 || mid > 0.0101 {
		t.Fatalf("geometric midpoint %v, want ~0.01", mid)
	}
}

// TestValidateRejectsNegativeWorkers: a negative replication worker
// budget is invalid in a spec and in a sweep's base, which every point
// inherits; 0 (GOMAXPROCS) stays valid.
func TestValidateRejectsNegativeWorkers(t *testing.T) {
	spec := sweepBase()
	spec.Replications.Workers = -3
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "replications.workers") {
		t.Fatalf("spec with workers -3: err = %v", err)
	}
	sw := &Sweep{Base: spec, Axes: []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.02}}}}
	if err := sw.Validate(); err == nil {
		t.Fatal("sweep base with workers -3 accepted")
	}
	if _, err := RunSweepObserved(sw, nil); err == nil {
		t.Fatal("sweep with workers -3 ran")
	}
	spec.Replications.Workers = 0
	if err := spec.Validate(); err != nil {
		t.Fatalf("workers 0 rejected: %v", err)
	}
}

// TestRunPointsLowestFailingPoint: points that pass validation but fail
// to compile (link override 4 on stars of 2 and 1 receivers) are
// reported when a worker reaches them, and for any worker budget the
// run returns the lowest failing point's error.
func TestRunPointsLowestFailingPoint(t *testing.T) {
	base := sweepBase()
	base.Links = []LinkOverride{{Link: 4, LinkSpec: LinkSpec{Kind: "bernoulli", Loss: 0.01}}}
	for _, workers := range []int{1, 2, 4} {
		base.Replications.Workers = workers
		sw := &Sweep{Base: base, Axes: []Axis{{Field: "topology.receivers", Values: []any{5.0, 2.0, 4.0, 1.0}}}}
		_, err := RunSweepObserved(sw, nil)
		if err == nil || !strings.Contains(err.Error(), "sweep point 1:") {
			t.Fatalf("workers %d: err = %v, want point 1's", workers, err)
		}
	}
}

var errStop = errors.New("sink stop")

// stopSink fails its k-th cell and counts every call it gets.
type stopSink struct{ k, cells, ends int }

func (s *stopSink) Cell(*Point, int, []float64) error {
	if s.cells++; s.cells == s.k {
		return errStop
	}
	return nil
}

func (s *stopSink) PointEnd(*Point, []float64) error {
	s.ends++
	return nil
}

// TestRunPointsSinkErrorStops: a sink error stops the scheduler at once
// and is what RunPoints returns: no later cell reaches the stores or
// the sink, and no point ends.
func TestRunPointsSinkErrorStops(t *testing.T) {
	sw := &Sweep{
		Base: sweepBase(),
		Axes: []Axis{{Field: "defaultLink.loss", Values: []any{0.01, 0.02, 0.03, 0.04}}},
	}
	r, err := NewSweepResult(sw)
	if err != nil {
		t.Fatal(err)
	}
	sk := &stopSink{k: 2}
	if err := r.RunPoints(0, 1, 4, nil, sk); !errors.Is(err, errStop) {
		t.Fatalf("RunPoints = %v, want the sink's error", err)
	}
	if sk.cells != 2 || sk.ends != 0 || r.Sim.NumObservations() != 2 {
		t.Fatalf("after the stop: %d sink cells, %d point ends, %d stored cells; want 2, 0, 2",
			sk.cells, sk.ends, r.Sim.NumObservations())
	}
}
