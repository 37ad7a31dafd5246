package experiments

import (
	"fmt"
	"io"
	"strconv"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/scenario"
	"mlfair/internal/stats"
	"mlfair/internal/trace"
)

// Every driver in this file is declarative: it builds a scenario.Spec
// or scenario.Sweep, compiles it through the scenario layer, and
// either runs the built-in stages (scenario.RunCompiled /
// scenario.RunSweep) or streams the compiled netsim config through
// driver-specific aggregation. The same specs and sweeps, written as
// JSON, drive `cmd/netsim -spec` and `cmd/netsim -sweep` — see
// docs/SCENARIOS.md and docs/SWEEPS.md; the committed sweep files
// under cmd/netsim/testdata/sweeps are pinned to the builders here.

// NetsimOptions sizes the general-engine scenario drivers.
type NetsimOptions struct {
	Receivers int
	Packets   int
	Trials    int
	// Workers bounds the replication pool (0 = GOMAXPROCS).
	Workers int
	Seed    uint64
	// Observe optionally attaches the observability layer (engine stats
	// sink, progress reporting) to every scenario and sweep the drivers
	// execute. Nil is fully inert; results are identical either way.
	Observe *scenario.Observe
}

// engineConfig applies the observability attachment to a compiled
// config for drivers that stream replications directly.
func (o NetsimOptions) engineConfig(cfg netsim.Config) netsim.Config {
	if o.Observe != nil && o.Observe.Stats != nil {
		cfg.Stats = o.Observe.Stats
	}
	return cfg
}

// DefaultNetsimOptions resolves the scenario effects in a few seconds.
func DefaultNetsimOptions() NetsimOptions {
	return NetsimOptions{Receivers: 50, Packets: 50000, Trials: 8, Seed: 777}
}

// Validate rejects degenerate sizing up front, so the sweep builders
// return errors instead of letting invalid point or replication counts
// panic somewhere inside the pipeline (the same contract as the
// error-returning topology generators).
func (o NetsimOptions) Validate() error {
	if o.Receivers < 1 || o.Packets < 1 || o.Trials < 1 {
		return fmt.Errorf("experiments: invalid netsim options: receivers %d, packets %d, trials %d (all must be >= 1)",
			o.Receivers, o.Packets, o.Trials)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: invalid netsim options: workers %d", o.Workers)
	}
	return nil
}

// protocolValues is the protocol axis of the sweeps, in the paper's
// plotting order.
func protocolValues() []any {
	kinds := protocol.Kinds()
	out := make([]any, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// writeSweepSeries renders a two-axis sweep — series axis first (e.g.
// protocol), numeric x axis second — as a trace series table of one
// output metric's per-point mean.
func writeSweepSeries(w io.Writer, res *scenario.SweepResult, title, xLabel, metric string) error {
	pts := res.Points
	if len(pts) == 0 || len(pts[0].Coords) < 2 {
		return fmt.Errorf("experiments: series rendering needs a two-axis sweep (have %d axes)", len(res.Sweep.Axes))
	}
	nx := 0
	for _, p := range pts {
		if p.Coords[0] != pts[0].Coords[0] {
			break
		}
		nx++
	}
	if nx == 0 || len(pts)%nx != 0 {
		return fmt.Errorf("experiments: sweep is not a series grid (%d points, first block %d)", len(pts), nx)
	}
	xs := make([]float64, nx)
	for i := 0; i < nx; i++ {
		x, err := strconv.ParseFloat(pts[i].Coords[1], 64)
		if err != nil {
			return fmt.Errorf("experiments: non-numeric x coordinate %q", pts[i].Coords[1])
		}
		xs[i] = x
	}
	series := make([]trace.Series, len(pts)/nx)
	for s := range series {
		ys := make([]float64, nx)
		for i := range ys {
			cell, err := res.Cell(pts[s*nx+i].ID, metric)
			if err != nil {
				return err
			}
			ys[i] = cell.Mean
		}
		series[s] = trace.Series{Name: pts[s*nx].Coords[0], Y: ys}
	}
	return trace.WriteSeries(w, title, xLabel, xs, series)
}

// mixedSessions is the session slot list that cycles the three
// protocols across a generated topology's sessions in the paper's
// plotting order.
func mixedSessions() []scenario.SessionSpec {
	kinds := protocol.Kinds()
	out := make([]scenario.SessionSpec, len(kinds))
	for i, k := range kinds {
		out[i] = scenario.SessionSpec{Protocol: k.String(), Layers: 8}
	}
	return out
}

// starSpec declares the paper's modified star (Figure 7b) in the loss
// domain: shared Bernoulli link 0, fanout links 1..n.
func starSpec(o NetsimOptions, kind protocol.Kind, sharedLoss, fanoutLoss float64) *scenario.Spec {
	return &scenario.Spec{
		Topology:     scenario.TopologySpec{Kind: "star", Receivers: o.Receivers},
		Sessions:     []scenario.SessionSpec{{Protocol: kind.String(), Layers: 8}},
		DefaultLink:  &scenario.LinkSpec{Kind: "bernoulli", Loss: fanoutLoss},
		Links:        []scenario.LinkOverride{{Link: 0, LinkSpec: scenario.LinkSpec{Kind: "bernoulli", Loss: sharedLoss}}},
		Packets:      o.Packets,
		Seed:         o.Seed,
		Replications: scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers},
	}
}

// StarProtocolSweep declares the paper's modified star comparison as a
// sweep: one axis cycling the three protocols over the loss-domain
// star (Figure 7b).
func StarProtocolSweep(o NetsimOptions) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim star: %d receivers, shared loss 1e-4, independent loss 0.04, %d packets, %d trials",
			o.Receivers, o.Packets, o.Trials),
		Base:    *starSpec(o, protocol.Deterministic, 0.0001, 0.04),
		Axes:    []scenario.Axis{{Field: "sessions.protocol", Values: protocolValues()}},
		Outputs: []string{"root_redundancy", "goodput"},
	}, nil
}

// NetsimStar runs StarProtocolSweep and tabulates shared-link
// redundancy (= the star's root redundancy) and mean receiver goodput
// per protocol, replication-aggregated.
func NetsimStar(w io.Writer, o NetsimOptions) error {
	sw, err := StarProtocolSweep(o)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	t := trace.NewTable(sw.Name, "protocol", "shared redundancy", "ci95", "receiver goodput", "ci95")
	for _, p := range res.Points {
		red, err := res.Cell(p.ID, "root_redundancy")
		if err != nil {
			return err
		}
		good, err := res.Cell(p.ID, "goodput")
		if err != nil {
			return err
		}
		t.AddRow(p.Coords[0],
			trace.Float(red.Mean), trace.Float(red.CI95()),
			trace.Float(good.Mean), trace.Float(good.CI95()))
	}
	_, err = t.WriteTo(w)
	return err
}

// Figure8Sweep re-expresses the paper's Figure 8 panel as a netsim
// sweep: protocol × independent (fanout) loss at a fixed shared-link
// loss, reporting shared-link redundancy per point.
func Figure8Sweep(o NetsimOptions, sharedLoss float64) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if sharedLoss < 0 || sharedLoss >= 1 {
		return nil, fmt.Errorf("experiments: shared loss %v outside [0, 1)", sharedLoss)
	}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim figure 8 (shared loss %g): redundancy vs independent loss — %d receivers, 8 layers, %d packets × %d trials",
			sharedLoss, o.Receivers, o.Packets, o.Trials),
		Base: *starSpec(o, protocol.Deterministic, sharedLoss, 0),
		Axes: []scenario.Axis{
			{Field: "sessions.protocol", Values: protocolValues()},
			{Field: "defaultLink.loss", Values: []any{0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1}},
		},
		Outputs: []string{"root_redundancy"},
	}, nil
}

// NetsimFigure8 runs the Figure 8 sweep at the paper's low shared-loss
// operating point and renders the per-protocol redundancy curves.
func NetsimFigure8(w io.Writer, o NetsimOptions) error {
	sw, err := Figure8Sweep(o, 0.0001)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	return writeSweepSeries(w, res, sw.Name, "ind. loss", "root_redundancy")
}

// LeaveLatencySweep declares the Section 5 leave-latency extension as
// a netsim sweep: protocol × IGMP-style slow-leave latency on the
// modified star, reporting shared-link redundancy inflation.
func LeaveLatencySweep(o NetsimOptions) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim leave latency: redundancy vs leave latency (ind. loss 0.04, %d receivers, %d packets × %d trials)",
			o.Receivers, o.Packets, o.Trials),
		Base: *starSpec(o, protocol.Deterministic, 0.0001, 0.04),
		Axes: []scenario.Axis{
			{Field: "sessions.protocol", Values: protocolValues()},
			{Field: "leaveLatency", Values: []any{0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}},
		},
		Outputs: []string{"root_redundancy"},
	}, nil
}

// NetsimLeaveLatency runs the leave-latency sweep and renders the
// per-protocol redundancy-vs-latency curves.
func NetsimLeaveLatency(w io.Writer, o NetsimOptions) error {
	sw, err := LeaveLatencySweep(o)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	return writeSweepSeries(w, res, sw.Name, "latency", "root_redundancy")
}

// NetsimTree measures per-depth Definition 3 redundancy on a binary
// loss tree: the scenario layer compiles the topology, the driver
// streams the replications and buckets link redundancy by depth.
func NetsimTree(w io.Writer, o NetsimOptions) error {
	const depth = 4
	const linkLoss = 0.02
	kinds := protocol.Kinds()
	xs := make([]float64, depth)
	for d := 0; d < depth; d++ {
		xs[d] = float64(d + 1)
	}
	series := make([]trace.Series, len(kinds))
	for ki, k := range kinds {
		spec := binaryTreeSpec(depth, linkLoss, k, o.Packets)
		spec.Seed = o.Seed
		spec.Replications = scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers}
		c, err := scenario.Compile(spec)
		if err != nil {
			return err
		}
		// Stream the replications: per-depth accumulation happens in
		// replication order without retaining any result.
		byDepth := make([]stats.Accumulator, depth+1)
		err = netsim.StreamReplications(o.engineConfig(c.Cfg), o.Trials, o.Workers, func(_ int, res *netsim.Result) error {
			for _, ls := range res.Links {
				byDepth[binaryTreeDepth(ls.Link)].Add(ls.Redundancy)
			}
			return nil
		})
		if err != nil {
			return err
		}
		ys := make([]float64, depth)
		for d := 1; d <= depth; d++ {
			ys[d-1] = byDepth[d].Mean()
		}
		series[ki] = trace.Series{Name: k.String(), Y: ys}
	}
	if err := trace.WriteSeries(w,
		fmt.Sprintf("netsim: per-link redundancy vs tree depth (binary tree, depth %d, link loss %g)",
			depth, linkLoss),
		"depth", xs, series); err != nil {
		return err
	}
	fmt.Fprintln(w, "depth 1 = root link (16 downstream receivers); redundancy grows toward the root")
	fmt.Fprintln(w)
	return nil
}

// NetsimMesh runs several sessions through one capacity-coupled
// backbone — the multi-session scenario: sessions generate each other's
// congestion and the driver reports how the backbone's bandwidth
// splits.
func NetsimMesh(w io.Writer, o NetsimOptions) error {
	const sessions, perSession = 3, 4
	spec := &scenario.Spec{
		Topology: scenario.TopologySpec{Kind: "mesh", Sessions: sessions, Receivers: perSession},
		Sessions: []scenario.SessionSpec{{Protocol: "Coordinated", Layers: 8}},
		// Lossless sender access links, a capacity-24 backbone, and
		// Bernoulli receiver access links.
		DefaultLink: &scenario.LinkSpec{Kind: "bernoulli", Loss: 0.01},
		Links: []scenario.LinkOverride{
			{Link: 0, LinkSpec: scenario.LinkSpec{Kind: "perfect"}},
			{Link: 1, LinkSpec: scenario.LinkSpec{Kind: "perfect"}},
			{Link: 2, LinkSpec: scenario.LinkSpec{Kind: "perfect"}},
			{Link: sessions, LinkSpec: scenario.LinkSpec{Kind: "capacity", Capacity: 24}},
		},
		Packets:      o.Packets * 2,
		Seed:         o.Seed,
		Replications: scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers},
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	const bb = sessions // backbone link index in the mesh layout
	accBest := make([]stats.Accumulator, sessions)
	accRed := make([]stats.Accumulator, sessions)
	err = netsim.StreamReplications(o.engineConfig(c.Cfg), o.Trials, o.Workers, func(_ int, r *netsim.Result) error {
		for i := 0; i < sessions; i++ {
			m := 0.0
			for _, v := range r.ReceiverRates[i] {
				if v > m {
					m = v
				}
			}
			accBest[i].Add(m)
			accRed[i].Add(r.LinkRedundancy(bb, i))
		}
		return nil
	})
	if err != nil {
		return err
	}
	t := trace.NewTable(
		fmt.Sprintf("netsim mesh: %d sessions x %d receivers over one capacity-24 backbone, access loss 0.01",
			sessions, perSession),
		"session", "best receiver rate", "ci95", "backbone redundancy", "ci95")
	for i := 0; i < sessions; i++ {
		t.AddRow(fmt.Sprintf("S%d", i+1),
			trace.Float(accBest[i].Mean()), trace.Float(accBest[i].CI95()),
			trace.Float(accRed[i].Mean()), trace.Float(accRed[i].CI95()))
	}
	_, err = t.WriteTo(w)
	return err
}

// ChurnSweep declares the stable-versus-churning comparison as a sweep
// over the churn interval: interval 0 disables the round-robin
// leave/rejoin schedule entirely (the stable point), the second point
// churns every receiver twice over the run's horizon.
func ChurnSweep(o NetsimOptions) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	base := starSpec(o, protocol.Deterministic, 0.0001, 0.04)
	horizon := float64(o.Packets) / 128 // approximate run duration
	base.Churn = &scenario.ChurnSpec{Downtime: horizon / 20, Horizon: horizon}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim churn: modified star, %d receivers, leave/rejoin round-robin, %d trials",
			o.Receivers, o.Trials),
		Base:    *base,
		Axes:    []scenario.Axis{{Field: "churn.interval", Values: []any{0.0, horizon / float64(2*o.Receivers)}}},
		Outputs: []string{"goodput", "root_redundancy"},
	}, nil
}

// NetsimChurn runs ChurnSweep: departures prune layers off the shared
// link, and fresh joins restart at the base layer, dragging goodput
// down while redundancy stays put.
func NetsimChurn(w io.Writer, o NetsimOptions) error {
	sw, err := ChurnSweep(o)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	t := trace.NewTable(sw.Name, "scenario", "mean receiver rate", "ci95", "shared redundancy", "ci95")
	for _, p := range res.Points {
		name := "churning"
		if p.Coords[0] == "0" {
			name = "stable"
		}
		good, err := res.Cell(p.ID, "goodput")
		if err != nil {
			return err
		}
		red, err := res.Cell(p.ID, "root_redundancy")
		if err != nil {
			return err
		}
		t.AddRow(name, trace.Float(good.Mean), trace.Float(good.CI95()),
			trace.Float(red.Mean), trace.Float(red.CI95()))
	}
	_, err = t.WriteTo(w)
	return err
}

// BackgroundSweep declares the TCP-over-ABR/UBR-style cross-traffic
// competition as a sweep over the droptail bottleneck's constant
// background load.
func BackgroundSweep(o NetsimOptions) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const capacity = 32.0
	base := starSpec(o, protocol.Deterministic, 0, 0.02)
	base.Links = []scenario.LinkOverride{{Link: 0, LinkSpec: scenario.LinkSpec{
		Kind: "droptail", Capacity: capacity, Buffer: 16, Delay: 0.01,
	}}}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim background traffic: droptail bottleneck capacity %g, buffer 16, %d receivers",
			capacity, o.Receivers),
		Base:    *base,
		Axes:    []scenario.Axis{{Field: "links[0].background", Values: []any{0.0, 8.0, 16.0, 24.0, 28.0}}},
		Outputs: []string{"best_rate", "shared_redundancy"},
	}, nil
}

// NetsimBackground runs BackgroundSweep: as background load eats the
// queue's service rate, the session's achievable rate collapses along
// with it.
func NetsimBackground(w io.Writer, o NetsimOptions) error {
	sw, err := BackgroundSweep(o)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	t := trace.NewTable(sw.Name, "background load", "best receiver rate", "ci95", "shared redundancy", "ci95")
	for _, p := range res.Points {
		best, err := res.Cell(p.ID, "best_rate")
		if err != nil {
			return err
		}
		red, err := res.Cell(p.ID, "shared_redundancy")
		if err != nil {
			return err
		}
		bg, err := strconv.ParseFloat(p.Coords[0], 64)
		if err != nil {
			return err
		}
		t.AddRow(trace.Float(bg), trace.Float(best.Mean), trace.Float(best.CI95()),
			trace.Float(red.Mean), trace.Float(red.CI95()))
	}
	_, err = t.WriteTo(w)
	return err
}

// ConvergenceSweep declares the time-domain question — how fast does
// each protocol converge to the max-min fair allocation, with and
// without membership churn — as a sweep: the capacity-coupled audit
// star with probe windows, protocol × churn-interval axes, and the
// convergence outputs (time-to-within-ε-of-fair, fraction-of-time-
// fair, post-convergence oscillation) computed per replication against
// the epoch-incremental fair-rate timeline.
func ConvergenceSweep(o NetsimOptions) (*scenario.Sweep, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// One 8-layer session sends 128 packets per time unit, so the run
	// lasts about o.Packets/128; churn spans it with one leave/rejoin
	// round every eighth of the horizon.
	horizon := float64(o.Packets) / 128
	window := o.Packets / 128
	if window < 1 {
		window = 1
	}
	base := scenario.Spec{
		Topology: scenario.TopologySpec{
			Kind:             "star",
			SharedCapacity:   24,
			FanoutCapacities: []float64{2, 8, 32, 64},
		},
		Sessions:     []scenario.SessionSpec{{Protocol: "Deterministic", Layers: 8}},
		DefaultLink:  &scenario.LinkSpec{Kind: "capacity"},
		Packets:      o.Packets,
		Seed:         o.Seed,
		Probe:        &scenario.ProbeSpec{PacketWindow: window},
		Churn:        &scenario.ChurnSpec{Downtime: horizon / 20, Horizon: horizon},
		Replications: scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers},
	}
	return &scenario.Sweep{
		Name: fmt.Sprintf("netsim convergence: time-to-fair vs protocol and churn (capacity star 2/8/32/64 behind 24, %d packets, %d trials)",
			o.Packets, o.Trials),
		Base: base,
		Axes: []scenario.Axis{
			{Field: "sessions.protocol", Values: protocolValues()},
			{Field: "churn.interval", Values: []any{0.0, horizon / 8}},
		},
		Outputs: []string{"time_to_fair", "frac_time_fair", "oscillation"},
	}, nil
}

// NetsimConvergence runs ConvergenceSweep and tabulates the
// per-protocol convergence metrics for the stable and churning points.
func NetsimConvergence(w io.Writer, o NetsimOptions) error {
	sw, err := ConvergenceSweep(o)
	if err != nil {
		return err
	}
	res, err := scenario.RunSweepObserved(sw, o.Observe)
	if err != nil {
		return err
	}
	t := trace.NewTable(sw.Name,
		"protocol", "scenario", "time to fair", "ci95", "frac time fair", "oscillation")
	for _, p := range res.Points {
		name := "churning"
		if p.Coords[1] == "0" {
			name = "stable"
		}
		ttf, err := res.Cell(p.ID, "time_to_fair")
		if err != nil {
			return err
		}
		frac, err := res.Cell(p.ID, "frac_time_fair")
		if err != nil {
			return err
		}
		osc, err := res.Cell(p.ID, "oscillation")
		if err != nil {
			return err
		}
		t.AddRow(p.Coords[0], name,
			trace.Float(ttf.Mean), trace.Float(ttf.CI95()),
			trace.Float(frac.Mean), trace.Float(osc.Mean))
	}
	_, err = t.WriteTo(w)
	return err
}

// NetsimAudit is the end-to-end "simulate, then audit against the
// paper's fair allocation" pipeline on a capacity-coupled star with
// heterogeneous receivers: one spec selects the rates, max-min
// benchmark, fairness-property and gap stages, and the report shows the
// achieved rates tracking their analytic max-min fair counterparts.
func NetsimAudit(w io.Writer, o NetsimOptions) error {
	res, err := scenario.RunObserved(AuditSpec(o), o.Observe)
	if err != nil {
		return err
	}
	if err := res.WriteReport(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "gap = achieved/fair; the layered sawtooth keeps protocols below but")
	fmt.Fprintln(w, "tracking their max-min fair rates (the paper's closing claim, audited)")
	return nil
}

// AuditSpec is NetsimAudit's declarative input (exported so the test
// suite can pin its JSON round-trip alongside cmd/netsim -spec).
func AuditSpec(o NetsimOptions) *scenario.Spec {
	return &scenario.Spec{
		Name: fmt.Sprintf("netsim audit: capacity star, fanouts 2/8/32 + a 64-wide peer, %d packets, %d trials",
			o.Packets, o.Trials),
		Topology: scenario.TopologySpec{
			Kind:             "star",
			SharedCapacity:   24,
			FanoutCapacities: []float64{2, 8, 32, 64},
		},
		Sessions:     []scenario.SessionSpec{{Protocol: "Coordinated", Layers: 8}},
		DefaultLink:  &scenario.LinkSpec{Kind: "capacity"},
		Packets:      o.Packets * 2,
		Seed:         o.Seed,
		Replications: scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers},
		Metrics: []string{
			scenario.MetricRates, scenario.MetricMaxMin,
			scenario.MetricFairness, scenario.MetricGap,
		},
	}
}

// largeTopoSpec assembles the shared shape of the two large-topology
// scenarios: capacity-coupled links, mixed protocols cycled across
// sessions, and the goodput + redundancy stages.
func largeTopoSpec(o NetsimOptions, topo scenario.TopologySpec) *scenario.Spec {
	return &scenario.Spec{
		Topology:     topo,
		Sessions:     mixedSessions(),
		DefaultLink:  &scenario.LinkSpec{Kind: "capacity"},
		Packets:      o.Packets,
		Seed:         o.Seed,
		Replications: scenario.ReplicationSpec{N: o.Trials, Workers: o.Workers},
	}
}

// NetsimScaleFree runs dozens of mixed-protocol sessions over a random
// power-law (preferential-attachment) graph with capacity-coupled
// links — the heavy-tailed regime where hub links carry many competing
// sessions at once. The topology itself is deterministic in the seed.
func NetsimScaleFree(w io.Writer, o NetsimOptions) error {
	c, err := scenario.Compile(largeTopoSpec(o, scenario.TopologySpec{Kind: "scalefree"}))
	if err != nil {
		return err
	}
	c.Spec.Name = fmt.Sprintf("netsim scale-free: %d nodes, %d links, %d sessions (mixed protocols), %d packets, %d trials",
		c.Net.Graph().NumNodes(), c.Net.NumLinks(), c.Net.NumSessions(), o.Packets, o.Trials)
	res, err := scenario.RunCompiledObserved(c, o.Observe)
	if err != nil {
		return err
	}
	return res.WriteReport(w)
}

// NetsimFatTree runs dozens of mixed-protocol sessions across a k-ary
// fat-tree fabric with a mildly oversubscribed core — the multipath
// data-center scenario collapsed onto per-session BFS trees.
func NetsimFatTree(w io.Writer, o NetsimOptions) error {
	const k = 6
	c, err := scenario.Compile(largeTopoSpec(o, scenario.TopologySpec{Kind: "fattree", K: k}))
	if err != nil {
		return err
	}
	c.Spec.Name = fmt.Sprintf("netsim fat-tree: k=%d (%d hosts, %d links), %d sessions (mixed protocols), %d packets, %d trials",
		k, k*k*k/4, c.Net.NumLinks(), c.Net.NumSessions(), o.Packets, o.Trials)
	res, err := scenario.RunCompiledObserved(c, o.Observe)
	if err != nil {
		return err
	}
	return res.WriteReport(w)
}
