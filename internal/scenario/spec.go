// Package scenario is the declarative layer over the whole pipeline:
// one Spec names a topology (generated or explicit), the sessions
// riding it (protocol kind, layer count, session type Γ, κ, redundancy
// function), the per-link loss/queue models, churn, the packet budget
// and replication plan, and the metric stages to evaluate. A Spec
// round-trips through JSON (Encode/Decode), validates, compiles to a
// netsim.Config plus an analytic benchmark network (Compile), and runs
// through a streaming replication Runner (Run) whose built-in stages
// include the paper's max-min fair benchmark ("maxmin"), the four
// Section 2.1 fairness-property audits ("fairness"), and per-receiver
// fairness-gap indices ("gap") — "simulate, then audit against the
// paper's fair allocation" as one call.
//
// The experiment drivers, the cmd binaries' shared -spec flag, and the
// examples all program against this package; docs/SCENARIOS.md is the
// format reference.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"mlfair/internal/protocol"
)

// Spec declares one scenario end to end.
type Spec struct {
	// Name is the report title; empty synthesizes one from the topology.
	Name string `json:"name,omitempty"`
	// Topology selects and parameterizes the network.
	Topology TopologySpec `json:"topology"`
	// Sessions configures the network's sessions. For generated
	// topologies the entries are cycled (session i takes Sessions[i %
	// len]); for the abstract "paths" topology each entry IS one session
	// and must carry Paths. Empty defaults to one Deterministic 8-layer
	// session spec.
	Sessions []SessionSpec `json:"sessions,omitempty"`
	// DefaultLink is the loss/queue model applied to every link not
	// overridden in Links. Nil means Perfect.
	DefaultLink *LinkSpec `json:"defaultLink,omitempty"`
	// Links overrides individual links by index (see each topology
	// kind's link-numbering contract in docs/SCENARIOS.md).
	Links []LinkOverride `json:"links,omitempty"`
	// Packets is the per-replication sender budget (required when
	// Replications.N > 0).
	Packets int `json:"packets,omitempty"`
	// SignalPeriod is the Coordinated base signal period (0 = 1.0).
	SignalPeriod float64 `json:"signalPeriod,omitempty"`
	// LeaveLatency is netsim's IGMP-style slow-leave model.
	LeaveLatency float64 `json:"leaveLatency,omitempty"`
	// Churn schedules membership changes.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Probe turns on netsim's streaming observation windows — required
	// by the "timeseries" and "convergence" stages.
	Probe *ProbeSpec `json:"probe,omitempty"`
	// Convergence parameterizes the "convergence" stage.
	Convergence *ConvergenceSpec `json:"convergence,omitempty"`
	// Replications plans the simulation; N = 0 runs the analytic stages
	// only (no simulation), which is the only mode the abstract "paths"
	// topology supports.
	Replications ReplicationSpec `json:"replications"`
	// Seed drives everything: topology generation (unless
	// Topology.Seed overrides), and the replication seed chain.
	Seed uint64 `json:"seed"`
	// Metrics selects the report stages: "goodput", "redundancy",
	// "rates", "maxmin", "fairness", "gap", "timeseries",
	// "convergence". Empty means ["goodput", "redundancy"].
	Metrics []string `json:"metrics,omitempty"`
}

// ProbeSpec is the JSON form of netsim.ProbeConfig: windowed streaming
// observation of per-receiver throughput and subscription levels plus
// per-link utilization. Exactly one of Window (virtual time) and
// PacketWindow (sender transmissions) must be positive.
type ProbeSpec struct {
	Window       float64 `json:"window,omitempty"`
	PacketWindow int     `json:"packetWindow,omitempty"`
	// MaxSamples caps retained windows (0 = netsim's default ring).
	MaxSamples int `json:"maxSamples,omitempty"`
}

// DefaultConvergenceEpsilon is the relative fair-rate band used when
// ConvergenceSpec.Epsilon is zero: a receiver's window counts as fair
// when its rate is within 50% of its epoch fair rate (the exponential
// layer scheme quantizes achievable rates to powers of two, so bands
// much tighter than a factor of two are unreachable by construction).
const DefaultConvergenceEpsilon = 0.5

// ConvergenceSpec parameterizes the "convergence" stage.
type ConvergenceSpec struct {
	// Epsilon is the relative band around the epoch fair rate within
	// which a window counts as fair (0 = DefaultConvergenceEpsilon).
	Epsilon float64 `json:"epsilon,omitempty"`
}

// TopologySpec selects a topology generator or an explicit layout.
// Only the fields of the chosen Kind apply; Validate rejects stray ones
// lazily (unknown knobs for a kind are simply unused).
type TopologySpec struct {
	// Kind is one of: star, chain, binarytree, tree, mesh, scalefree,
	// fattree, random, paths.
	Kind string `json:"kind"`
	// Seed overrides the topology RNG seed (0 = derive from Spec.Seed).
	Seed uint64 `json:"seed,omitempty"`

	// star: Receivers fanout links of capacity 1 (or FanoutCapacities)
	// behind one shared link of SharedCapacity (default 1). Link 0 is
	// the shared link; link k+1 is receiver k's fanout.
	// mesh: Receivers receivers per session, Sessions sessions, one
	// backbone of SharedCapacity (default 1); links number senders'
	// access 0..S-1, backbone S, then receiver access links.
	Receivers        int       `json:"receivers,omitempty"`
	Sessions         int       `json:"sessions,omitempty"`
	SharedCapacity   float64   `json:"sharedCapacity,omitempty"`
	FanoutCapacities []float64 `json:"fanoutCapacities,omitempty"`

	// chain: link k (capacity Capacities[k]) leads to receiver k.
	// tree: Capacities[i] is node i's parent-link capacity (default 1).
	Capacities []float64 `json:"capacities,omitempty"`

	// binarytree: complete binary tree of Depth with receivers at the
	// leaves and uniform-random capacities in [CapMin, CapMax]
	// (defaults 1..1); node i's parent link is link i-1.
	Depth int `json:"depth,omitempty"`

	// tree: explicit rooted tree in topological numbering — node 0 is
	// the sender, Parent[i] < i is node i's parent (Parent[0] ignored),
	// ReceiverNodes the receiver placements, in [1, len(Parent)); node
	// i's parent link is link i-1.
	Parent        []int `json:"parent,omitempty"`
	ReceiverNodes []int `json:"receiverNodes,omitempty"`

	// scalefree / random: graph size and session placement.
	Nodes        int     `json:"nodes,omitempty"`
	Attach       int     `json:"attach,omitempty"`
	MaxReceivers int     `json:"maxReceivers,omitempty"`
	CapMin       float64 `json:"capMin,omitempty"`
	CapMax       float64 `json:"capMax,omitempty"`

	// fattree: arity and layer capacities.
	K          int     `json:"k,omitempty"`
	HostCap    float64 `json:"hostCap,omitempty"`
	EdgeAggCap float64 `json:"edgeAggCap,omitempty"`
	AggCoreCap float64 `json:"aggCoreCap,omitempty"`

	// random: extra chords and session-type mix.
	ExtraLinks     int     `json:"extraLinks,omitempty"`
	SingleRateProb float64 `json:"singleRateProb,omitempty"`
	KappaProb      float64 `json:"kappaProb,omitempty"`
	KappaMax       float64 `json:"kappaMax,omitempty"`

	// paths: abstract link-capacity list; sessions give their receivers'
	// data-paths explicitly (analytic stages only).
	LinkCapacities []float64 `json:"linkCapacities,omitempty"`
}

// SessionSpec configures one session (or one cycled slot).
type SessionSpec struct {
	// Protocol is coordinated, uncoordinated or deterministic
	// (case-insensitive); empty defaults to deterministic.
	Protocol string `json:"protocol,omitempty"`
	// Layers is M (default 8).
	Layers int `json:"layers,omitempty"`
	// Type is the paper's Γ for the analytic benchmark: "multi"
	// (default) or "single". Only star, chain, binarytree, tree and
	// paths topologies honor it (the large-topology generators place
	// multi-rate sessions).
	Type string `json:"type,omitempty"`
	// MaxRate is κ (0 = unbounded). Same applicability as Type.
	MaxRate float64 `json:"maxRate,omitempty"`
	// Redundancy v >= 1 applies the paper's Section 3.1 link-rate
	// function v·max on shared links of the analytic benchmark
	// (netmodel.SharedScaledMax); 0 or 1 means the efficient max.
	Redundancy float64 `json:"redundancy,omitempty"`
	// Paths lists per-receiver data-paths (paths topology only).
	Paths [][]int `json:"paths,omitempty"`
}

// LinkSpec is the JSON form of a netsim link model.
type LinkSpec struct {
	// Kind is perfect, bernoulli, capacity or droptail.
	Kind string `json:"kind"`
	// Loss is the Bernoulli drop probability.
	Loss float64 `json:"loss,omitempty"`
	// LayerLoss gives layer-dependent Bernoulli drop probabilities
	// (overrides Loss; the priority-dropping lever).
	LayerLoss []float64 `json:"layerLoss,omitempty"`
	// Capacity is the service/fluid rate (capacity, droptail); 0 uses
	// the topology's link capacity.
	Capacity float64 `json:"capacity,omitempty"`
	// Buffer is the droptail waiting room (0 = 16).
	Buffer int `json:"buffer,omitempty"`
	// Delay is the droptail propagation delay.
	Delay float64 `json:"delay,omitempty"`
	// Background is constant competing cross-traffic.
	Background float64 `json:"background,omitempty"`
}

// LinkOverride applies a LinkSpec to one link index.
type LinkOverride struct {
	Link int `json:"link"`
	LinkSpec
}

// ChurnSpec schedules membership changes: a periodic round-robin
// leave/rejoin process (Interval/Downtime/Horizon, netsim.UniformChurn)
// and/or explicit events.
type ChurnSpec struct {
	Interval float64      `json:"interval,omitempty"`
	Downtime float64      `json:"downtime,omitempty"`
	Horizon  float64      `json:"horizon,omitempty"`
	Events   []ChurnEvent `json:"events,omitempty"`
}

// ChurnEvent toggles one receiver's membership at a given time.
type ChurnEvent struct {
	Time     float64 `json:"time"`
	Session  int     `json:"session"`
	Receiver int     `json:"receiver"`
	Join     bool    `json:"join"`
}

// ReplicationSpec plans the simulation half of a run.
type ReplicationSpec struct {
	// N is the independent replication count (0 = analytic only).
	N int `json:"n"`
	// Workers bounds the replication pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Metric stage names.
const (
	MetricGoodput    = "goodput"
	MetricRedundancy = "redundancy"
	MetricRates      = "rates"
	MetricMaxMin     = "maxmin"
	MetricFairness   = "fairness"
	MetricGap        = "gap"
	// MetricTimeseries joins the probe's windowed receiver rates and
	// levels against the epoch-incremental fair-rate timeline.
	MetricTimeseries = "timeseries"
	// MetricConvergence reduces the joined time series to scalar
	// convergence metrics (time-to-within-ε-of-fair, post-convergence
	// oscillation amplitude, fraction-of-time-fair).
	MetricConvergence = "convergence"
)

var knownMetrics = map[string]bool{
	MetricGoodput: true, MetricRedundancy: true, MetricRates: true,
	MetricMaxMin: true, MetricFairness: true, MetricGap: true,
	MetricTimeseries: true, MetricConvergence: true,
}

// DefaultMetrics is the selection used when Spec.Metrics is empty.
var DefaultMetrics = []string{MetricGoodput, MetricRedundancy}

// metricSet resolves the effective stage selection.
func (s *Spec) metricSet() map[string]bool {
	ms := s.Metrics
	if len(ms) == 0 {
		ms = DefaultMetrics
	}
	set := map[string]bool{}
	for _, m := range ms {
		set[m] = true
	}
	return set
}

var topologyKinds = map[string]bool{
	"star": true, "chain": true, "binarytree": true, "tree": true,
	"mesh": true, "scalefree": true, "fattree": true, "random": true,
	"paths": true,
}

// parseProtocol resolves a SessionSpec protocol name.
func parseProtocol(name string) (protocol.Kind, error) {
	switch name {
	case "", "deterministic", "Deterministic":
		return protocol.Deterministic, nil
	case "coordinated", "Coordinated":
		return protocol.Coordinated, nil
	case "uncoordinated", "Uncoordinated":
		return protocol.Uncoordinated, nil
	}
	return 0, fmt.Errorf("scenario: unknown protocol %q (want coordinated, uncoordinated or deterministic)", name)
}

// Validate checks the Spec's shape (everything that does not require
// building the topology; Compile finishes the job, e.g. link-override
// index ranges).
func (s *Spec) Validate() error {
	if !topologyKinds[s.Topology.Kind] {
		return fmt.Errorf("scenario: unknown topology kind %q", s.Topology.Kind)
	}
	if s.Replications.N < 0 {
		return fmt.Errorf("scenario: replications.n = %d", s.Replications.N)
	}
	if s.Replications.N > 0 {
		if s.Packets < 1 {
			return fmt.Errorf("scenario: packets = %d with %d replications", s.Packets, s.Replications.N)
		}
		if s.Topology.Kind == "paths" {
			return fmt.Errorf("scenario: the abstract paths topology supports analytic stages only (replications.n must be 0)")
		}
	}
	if s.SignalPeriod < 0 || math.IsNaN(s.SignalPeriod) || math.IsInf(s.SignalPeriod, 0) {
		return fmt.Errorf("scenario: signalPeriod = %v", s.SignalPeriod)
	}
	if s.LeaveLatency < 0 || math.IsNaN(s.LeaveLatency) || math.IsInf(s.LeaveLatency, 0) {
		return fmt.Errorf("scenario: leaveLatency = %v", s.LeaveLatency)
	}
	for _, m := range s.Metrics {
		if !knownMetrics[m] {
			return fmt.Errorf("scenario: unknown metric %q", m)
		}
	}
	if s.Probe != nil {
		p := s.Probe
		if p.Window < 0 || math.IsNaN(p.Window) || math.IsInf(p.Window, 0) {
			return fmt.Errorf("scenario: probe window = %v", p.Window)
		}
		if p.PacketWindow < 0 || p.MaxSamples < 0 {
			return fmt.Errorf("scenario: probe packetWindow = %d, maxSamples = %d", p.PacketWindow, p.MaxSamples)
		}
		if (p.Window > 0) == (p.PacketWindow > 0) {
			return fmt.Errorf("scenario: probe needs exactly one of window (%v) and packetWindow (%d) positive", p.Window, p.PacketWindow)
		}
	}
	if s.Convergence != nil {
		if e := s.Convergence.Epsilon; e < 0 || e >= 1 || math.IsNaN(e) {
			return fmt.Errorf("scenario: convergence epsilon = %v outside [0, 1)", e)
		}
	}
	sel := s.metricSet()
	if sel[MetricTimeseries] || sel[MetricConvergence] {
		if s.Probe == nil {
			return fmt.Errorf("scenario: the timeseries/convergence stages need a probe block")
		}
		if s.Replications.N < 1 {
			return fmt.Errorf("scenario: the timeseries/convergence stages need replications.n >= 1")
		}
	}
	for i, ss := range s.Sessions {
		if _, err := parseProtocol(ss.Protocol); err != nil {
			return fmt.Errorf("scenario: session %d: %w", i, err)
		}
		if ss.Layers < 0 || ss.Layers > 32 {
			return fmt.Errorf("scenario: session %d: layers = %d", i, ss.Layers)
		}
		switch ss.Type {
		case "", "multi", "single":
		default:
			return fmt.Errorf("scenario: session %d: unknown type %q (want multi or single)", i, ss.Type)
		}
		if ss.MaxRate < 0 || math.IsNaN(ss.MaxRate) {
			return fmt.Errorf("scenario: session %d: maxRate = %v", i, ss.MaxRate)
		}
		if ss.Redundancy != 0 && ss.Redundancy < 1 {
			return fmt.Errorf("scenario: session %d: redundancy %v below 1", i, ss.Redundancy)
		}
		if len(ss.Paths) > 0 && s.Topology.Kind != "paths" {
			return fmt.Errorf("scenario: session %d sets paths on topology kind %q", i, s.Topology.Kind)
		}
	}
	if s.Churn != nil {
		c := s.Churn
		if c.Interval < 0 || c.Downtime < 0 || c.Horizon < 0 {
			return fmt.Errorf("scenario: negative churn parameters %+v", *c)
		}
		// Each churn round is two events held in memory for the whole
		// run, so the periodic process is capped the way topology depth
		// is: a sub-precision interval would otherwise ask for more
		// events than memory holds.
		if c.Interval > 0 && c.Horizon/c.Interval > maxChurnRounds {
			return fmt.Errorf("scenario: churn horizon/interval = %g exceeds %d rounds", c.Horizon/c.Interval, maxChurnRounds)
		}
		for i, ev := range c.Events {
			if ev.Time < 0 || math.IsNaN(ev.Time) {
				return fmt.Errorf("scenario: churn event %d at time %v", i, ev.Time)
			}
		}
	}
	checkKind := func(where, kind string) error {
		switch kind {
		case "", "perfect", "bernoulli", "capacity", "droptail":
			return nil // empty means perfect, matching a nil DefaultLink
		}
		return fmt.Errorf("scenario: %s: unknown link kind %q", where, kind)
	}
	if s.DefaultLink != nil {
		if err := checkKind("defaultLink", s.DefaultLink.Kind); err != nil {
			return err
		}
	}
	for i, ov := range s.Links {
		if err := checkKind(fmt.Sprintf("links[%d] (link %d)", i, ov.Link), ov.Kind); err != nil {
			return err
		}
	}
	if s.Topology.Kind == "paths" && (s.DefaultLink != nil || len(s.Links) > 0) {
		return fmt.Errorf("scenario: the paths topology takes link capacities directly; defaultLink/links models are not supported")
	}
	return s.Topology.validateNumbers()
}

// maxChurnRounds bounds a periodic churn process's horizon/interval
// ratio, its leave/rejoin round count.
const maxChurnRounds = 1 << 20

// validateNumbers rejects degenerate numeric topology fields up front,
// so Compile returns errors instead of panicking inside the graph
// builders on malformed -spec input.
func (t *TopologySpec) validateNumbers() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"receivers", t.Receivers}, {"sessions", t.Sessions}, {"depth", t.Depth},
		{"nodes", t.Nodes}, {"attach", t.Attach}, {"maxReceivers", t.MaxReceivers},
		{"k", t.K}, {"extraLinks", t.ExtraLinks},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario: topology %s = %d", f.name, f.v)
		}
	}
	if t.Depth > 24 {
		return fmt.Errorf("scenario: topology depth %d unreasonably large", t.Depth)
	}
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"sharedCapacity", t.SharedCapacity}, {"capMin", t.CapMin}, {"capMax", t.CapMax},
		{"hostCap", t.HostCap}, {"edgeAggCap", t.EdgeAggCap}, {"aggCoreCap", t.AggCoreCap},
		{"kappaMax", t.KappaMax},
	} {
		if bad(f.v) {
			return fmt.Errorf("scenario: topology %s = %v", f.name, f.v)
		}
	}
	if t.CapMax != 0 && t.CapMax < t.CapMin {
		return fmt.Errorf("scenario: topology capMax %v below capMin %v", t.CapMax, t.CapMin)
	}
	for _, f := range []struct {
		name string
		v    []float64
	}{
		{"fanoutCapacities", t.FanoutCapacities}, {"capacities", t.Capacities},
		{"linkCapacities", t.LinkCapacities},
	} {
		for i, v := range f.v {
			if bad(v) {
				return fmt.Errorf("scenario: topology %s[%d] = %v", f.name, i, v)
			}
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"singleRateProb", t.SingleRateProb}, {"kappaProb", t.KappaProb},
	} {
		if bad(f.v) || f.v > 1 {
			return fmt.Errorf("scenario: topology %s = %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Decode reads and validates a Spec from JSON.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode writes the Spec's canonical JSON form (two-space indented,
// trailing newline). Decode of an Encode round-trips bit-exactly, and
// Encode of a Decode is stable — the golden-test contract.
func (s *Spec) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// LoadFile reads and validates a Spec from a JSON file. Parse and
// validation errors name the offending file; JSON errors that carry a
// byte offset are reported as path:line:col.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(bytes.NewReader(data))
	if err != nil {
		return nil, locateError(path, data, err)
	}
	return s, nil
}
