package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"mlfair/internal/netsim"
)

// Sweep declares a whole parameter study: a base Spec plus axes that
// vary overridable fields over a grid. The cartesian product of the
// axes is its points, and one point scheduler (SweepResult.RunPoints,
// behind RunSweepObserved and internal/sweepexec) expands and compiles
// each point as a worker takes it (sharing generated topologies
// between points whose topology inputs agree), runs its replications,
// and streams per-replication metric rows into a results.Store —
// every figure of the paper is one of these.
type Sweep struct {
	// Name titles reports; empty synthesizes one from the base.
	Name string `json:"name,omitempty"`
	// Base is the template Spec every point starts from. It must be a
	// valid simulating spec on its own (replications.n >= 1).
	Base Spec `json:"base"`
	// Axes are the swept dimensions, first axis slowest (row-major
	// expansion order). Two axes must not address the same field.
	Axes []Axis `json:"axes"`
	// Outputs selects the per-replication metric columns (see
	// SweepOutputs). Empty means ["goodput", "root_redundancy"].
	Outputs []string `json:"outputs,omitempty"`
	// Benchmark adds the per-point analytic stage: the max-min fair
	// benchmark allocation of each point's compiled network, reported as
	// fair_rate/fair_min columns plus gap_mean/gap_min fairness-gap
	// indices (simulated mean rate / fair rate, per receiver) joined
	// onto the CSV — the sweep-level "compare against the paper's fair
	// allocation" stage.
	Benchmark bool `json:"benchmark,omitempty"`
}

// Axis is one swept dimension: a field path and its value set, given
// either explicitly (values), as a linear range (from/to/step,
// inclusive), or as a geometric log-range (from/to/points).
//
// Field paths: "packets", "seed", "signalPeriod", "leaveLatency",
// "topology.<field>", "churn.<interval|downtime|horizon>",
// "defaultLink.<loss|capacity|background|buffer|delay>",
// "links[J].<same>" (J must be an override link index present in the
// base), "sessions.<protocol|type|layers|maxRate|redundancy>" (every
// slot) or "sessions[I].<same>" (slot I of the base).
type Axis struct {
	Field    string        `json:"field"`
	Values   []any         `json:"values,omitempty"`
	Range    *RangeSpec    `json:"range,omitempty"`
	LogRange *LogRangeSpec `json:"logRange,omitempty"`
}

// RangeSpec is an inclusive linear range from From to To in steps of
// Step (> 0).
type RangeSpec struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// LogRangeSpec is a geometric range: Points values from From to To
// (both > 0) with a constant ratio.
type LogRangeSpec struct {
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Points int     `json:"points"`
}

// maxSweepPoints caps a sweep's expansion. The point scheduler
// materializes one point at a time, so the historical 4096-point cap
// is gone; what remains is an overflow guard that makes a typo'd grid
// — billions of points from a fat-fingered range step — fail fast at
// validation instead of scheduling a sweep that could never finish.
const maxSweepPoints = 1 << 22

// SweepOutputs lists the per-replication metric columns a sweep can
// select, in the order they appear in docs/SWEEPS.md.
//
//	goodput             mean receiver goodput over all receivers
//	root_redundancy     mean per-session root-link redundancy
//	max_link_redundancy max Definition-3 redundancy over (link, session)
//	best_rate           fastest receiver's goodput
//	shared_redundancy   session 0's Definition-3 redundancy on link 0
//	                    (the shared link of the star topologies)
//	time_to_fair        mean time until the windowed rate stays within
//	                    ε of the epoch max-min fair rate (probe needed)
//	frac_time_fair      duration-weighted fraction of the run inside
//	                    the ε band (probe needed)
//	oscillation         post-convergence peak-to-peak rate amplitude
//	                    over the fair rate (probe needed)
func SweepOutputs() []string {
	return append([]string{"goodput", "root_redundancy", "max_link_redundancy", "best_rate", "shared_redundancy"},
		convergenceOutputs...)
}

// convergenceOutputs are the sweep columns computed from the probe's
// time series against the epoch-incremental fair-rate timeline rather
// than from the end-of-run Result; they require base.probe.
var convergenceOutputs = []string{"time_to_fair", "frac_time_fair", "oscillation"}

func isConvergenceOutput(name string) bool {
	return slices.Contains(convergenceOutputs, name)
}

// hasConvergenceOutput reports whether any selected output needs the
// probe + timeline machinery.
func (sw *Sweep) hasConvergenceOutput() bool {
	for _, o := range sw.outputSet() {
		if isConvergenceOutput(o) {
			return true
		}
	}
	return false
}

// DefaultSweepOutputs is the selection used when Sweep.Outputs is
// empty.
var DefaultSweepOutputs = []string{"goodput", "root_redundancy"}

var sweepMetrics = map[string]func(*netsim.Result) float64{
	"goodput": netsim.MeanReceiverRateMetric(),
	"root_redundancy": func(r *netsim.Result) float64 {
		if len(r.ReceiverRates) == 0 {
			return 0
		}
		sum := 0.0
		for i := range r.ReceiverRates {
			sum += r.SessionRedundancy(i)
		}
		return sum / float64(len(r.ReceiverRates))
	},
	"max_link_redundancy": func(r *netsim.Result) float64 {
		m := 0.0
		for _, ls := range r.Links {
			if ls.Redundancy > m {
				m = ls.Redundancy
			}
		}
		return m
	},
	"best_rate":         func(r *netsim.Result) float64 { return r.MaxReceiverRate() },
	"shared_redundancy": func(r *netsim.Result) float64 { return r.LinkRedundancy(0, 0) },
}

// outputSet resolves the effective output selection.
func (sw *Sweep) outputSet() []string {
	if len(sw.Outputs) == 0 {
		return append([]string(nil), DefaultSweepOutputs...)
	}
	return append([]string(nil), sw.Outputs...)
}

// OutputColumns returns the effective per-replication metric columns
// (the explicit Outputs, or DefaultSweepOutputs).
func (sw *Sweep) OutputColumns() []string { return sw.outputSet() }

// AxisFields returns the swept field paths — the result stores'
// coordinate axes — in axis order.
func (sw *Sweep) AxisFields() []string {
	fields := make([]string, len(sw.Axes))
	for i, a := range sw.Axes {
		fields[i] = a.Field
	}
	return fields
}

// Title resolves the sweep's report title.
func (sw *Sweep) Title() string {
	if sw.Name != "" {
		return sw.Name
	}
	fields := make([]string, len(sw.Axes))
	for i, a := range sw.Axes {
		fields[i] = a.Field
	}
	return fmt.Sprintf("sweep over %s (%s topology)", strings.Join(fields, " × "), sw.Base.Topology.Kind)
}

// Validate checks the sweep's shape: a valid simulating base, at least
// one well-formed axis, no two axes addressing the same field, every
// axis value applicable to the base, known outputs, and a bounded
// point count.
func (sw *Sweep) Validate() error {
	if err := sw.Base.Validate(); err != nil {
		return fmt.Errorf("scenario: sweep base: %w", err)
	}
	if sw.Base.Replications.N < 1 {
		return fmt.Errorf("scenario: sweep base must simulate (replications.n >= 1)")
	}
	if len(sw.Axes) == 0 {
		return fmt.Errorf("scenario: sweep has no axes")
	}
	total := 1
	for i, ax := range sw.Axes {
		vals, err := ax.expand()
		if err != nil {
			return fmt.Errorf("scenario: axis %d (%s): %w", i, ax.Field, err)
		}
		for j := 0; j < i; j++ {
			if axesConflict(sw.Axes[j].Field, ax.Field) {
				return fmt.Errorf("scenario: axes %q and %q conflict: they override overlapping fields", sw.Axes[j].Field, ax.Field)
			}
		}
		// Probe-apply every value to a scratch copy of the base, so bad
		// field paths and value types surface at validation time.
		probe, err := cloneSpec(&sw.Base)
		if err != nil {
			return err
		}
		for _, v := range vals {
			if err := setSpecField(probe, ax.Field, v); err != nil {
				return err
			}
		}
		total *= len(vals)
		if total > maxSweepPoints {
			return fmt.Errorf("scenario: sweep expands to more than %d points", maxSweepPoints)
		}
	}
	for i, o := range sw.outputSet() {
		if _, ok := sweepMetrics[o]; !ok && !isConvergenceOutput(o) {
			return fmt.Errorf("scenario: unknown sweep output %q (have %s)", o, strings.Join(SweepOutputs(), ", "))
		}
		for j, p := range sw.outputSet() {
			if j < i && p == o {
				return fmt.Errorf("scenario: duplicate sweep output %q", o)
			}
		}
	}
	if sw.hasConvergenceOutput() && sw.Base.Probe == nil {
		return fmt.Errorf("scenario: the %s outputs need base.probe to be set", strings.Join(convergenceOutputs, "/"))
	}
	return nil
}

// axesConflict reports whether two axis field paths address
// overlapping state: the same path, or the every-slot "sessions.X"
// form against any "sessions[I].X" of the same suffix. Two different
// indexed slots ("sessions[0].layers" vs "sessions[1].layers") do not
// conflict.
func axesConflict(a, b string) bool {
	if a == b {
		return true
	}
	na, nb := normalizeFieldKey(a), normalizeFieldKey(b)
	if na != nb {
		return false
	}
	return a == na || b == na // one side is the every-slot wildcard
}

// normalizeFieldKey strips a sessions[I] index down to the every-slot
// form ("sessions[2].layers" → "sessions.layers").
func normalizeFieldKey(field string) string {
	if i := strings.IndexByte(field, '['); i >= 0 {
		if j := strings.IndexByte(field, ']'); j > i && field[:i] == "sessions" {
			return "sessions" + field[j+1:]
		}
	}
	return field
}

// expand materializes an axis's value list.
func (a *Axis) expand() ([]any, error) {
	sources := 0
	if a.Values != nil {
		sources++
	}
	if a.Range != nil {
		sources++
	}
	if a.LogRange != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("need exactly one of values, range, logRange")
	}
	switch {
	case a.Values != nil:
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("empty value list")
		}
		seen := map[string]bool{}
		for _, v := range a.Values {
			c := formatAxisValue(v)
			if seen[c] {
				return nil, fmt.Errorf("duplicate value %s", c)
			}
			seen[c] = true
		}
		return a.Values, nil
	case a.Range != nil:
		r := a.Range
		if r.Step <= 0 || math.IsNaN(r.Step) || math.IsInf(r.Step, 0) {
			return nil, fmt.Errorf("range step %v", r.Step)
		}
		if r.To < r.From || math.IsNaN(r.From) || math.IsInf(r.To, 0) {
			return nil, fmt.Errorf("range [%v, %v]", r.From, r.To)
		}
		var out []any
		// The epsilon keeps To itself in the grid despite float
		// accumulation (0 + 11×0.01 overshooting 0.1 by one ulp).
		for i := 0; ; i++ {
			v := r.From + float64(i)*r.Step
			if v > r.To+r.Step*1e-9 {
				break
			}
			out = append(out, v)
			if len(out) > maxSweepPoints {
				return nil, fmt.Errorf("range expands past %d values", maxSweepPoints)
			}
		}
		return out, nil
	default:
		lr := a.LogRange
		if lr.From <= 0 || lr.To < lr.From || math.IsNaN(lr.From) || math.IsInf(lr.To, 0) {
			return nil, fmt.Errorf("logRange [%v, %v]", lr.From, lr.To)
		}
		if lr.Points < 2 || lr.Points > maxSweepPoints {
			return nil, fmt.Errorf("logRange points %d", lr.Points)
		}
		out := make([]any, lr.Points)
		ratio := lr.To / lr.From
		for i := 0; i < lr.Points; i++ {
			out[i] = lr.From * math.Pow(ratio, float64(i)/float64(lr.Points-1))
		}
		out[lr.Points-1] = lr.To // exact endpoint regardless of rounding
		return out, nil
	}
}

// Point is one expanded sweep point: its row id (expansion order), its
// coordinate values (one per axis, formatted), and its fully resolved
// Spec.
type Point struct {
	ID     int
	Coords []string
	Spec   *Spec
}

// Expander streams a validated sweep's points without materializing
// the cartesian product: PointAt resolves any single point by id, so a
// scheduler can walk a grid far larger than memory would allow for the
// full []Point slice. The expansion order (and therefore every point
// id) is identical to Expand's: first axis slowest, last axis fastest.
type Expander struct {
	sw   *Sweep
	vals [][]any
}

// Expander validates the sweep and prepares lazy point expansion.
func (sw *Sweep) Expander() (*Expander, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	vals := make([][]any, len(sw.Axes))
	for i, ax := range sw.Axes {
		v, err := ax.expand()
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return &Expander{sw: sw, vals: vals}, nil
}

// Len returns the sweep's total point count.
func (e *Expander) Len() int {
	total := 1
	for _, v := range e.vals {
		total *= len(v)
	}
	return total
}

// Sweep returns the expanded sweep.
func (e *Expander) Sweep() *Sweep { return e.sw }

// RepsAt returns point id's replication count without materializing
// its spec: the replications.n axis value when that field is swept,
// the base count otherwise. Invalid axis values are left for PointAt
// to reject — RepsAt is a sizing estimate for progress accounting.
func (e *Expander) RepsAt(id int) (int, error) {
	if id < 0 || id >= e.Len() {
		return 0, fmt.Errorf("scenario: sweep point %d out of range [0, %d)", id, e.Len())
	}
	n := e.sw.Base.Replications.N
	rem := id
	for a := len(e.vals) - 1; a >= 0; a-- {
		v := e.vals[a][rem%len(e.vals[a])]
		rem /= len(e.vals[a])
		if e.sw.Axes[a].Field == "replications.n" {
			if f, ok := toFloatValue(v); ok && f == float64(int(f)) {
				n = int(f)
			}
		}
	}
	return n, nil
}

// PointAt materializes point id: the base spec with the id's row-major
// axis values applied, fully validated. Each call builds a fresh Spec,
// so callers may mutate or discard points independently.
func (e *Expander) PointAt(id int) (*Point, error) {
	if id < 0 || id >= e.Len() {
		return nil, fmt.Errorf("scenario: sweep point %d out of range [0, %d)", id, e.Len())
	}
	spec, err := cloneSpec(&e.sw.Base)
	if err != nil {
		return nil, err
	}
	coords := make([]string, len(e.vals))
	// Decode the row-major id: first axis slowest.
	rem := id
	for a := len(e.vals) - 1; a >= 0; a-- {
		v := e.vals[a][rem%len(e.vals[a])]
		rem /= len(e.vals[a])
		if err := setSpecField(spec, e.sw.Axes[a].Field, v); err != nil {
			return nil, err
		}
		coords[a] = formatAxisValue(v)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: sweep point %d (%s): %w", id, strings.Join(coords, ","), err)
	}
	return &Point{ID: id, Coords: coords, Spec: spec}, nil
}

// Expand validates the sweep and materializes the cartesian product of
// its axes, first axis slowest. Every point's Spec passes the same
// validation a hand-written spec would. For large grids prefer
// Expander, which resolves points one at a time.
func (sw *Sweep) Expand() ([]Point, error) {
	e, err := sw.Expander()
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, e.Len())
	for id := 0; id < e.Len(); id++ {
		p, err := e.PointAt(id)
		if err != nil {
			return nil, err
		}
		points = append(points, *p)
	}
	return points, nil
}

// cloneSpec deep-copies a Spec through its JSON form.
func cloneSpec(s *Spec) (*Spec, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// formatAxisValue renders an axis value as a coordinate string (the
// CSV cell), using the shortest exact float form.
func formatAxisValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	}
	return fmt.Sprintf("%v", v)
}

// --- field setters ---

func toFloatValue(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}

func setFloatField(dst *float64, field string, v any) error {
	f, ok := toFloatValue(v)
	if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("scenario: axis %q: value %v is not a finite number", field, v)
	}
	*dst = f
	return nil
}

func setIntField(dst *int, field string, v any) error {
	f, ok := toFloatValue(v)
	if !ok || f != math.Trunc(f) || math.Abs(f) > 1e15 {
		return fmt.Errorf("scenario: axis %q: value %v is not an integer", field, v)
	}
	*dst = int(f)
	return nil
}

func setUintField(dst *uint64, field string, v any) error {
	f, ok := toFloatValue(v)
	if !ok || f != math.Trunc(f) || f < 0 || f > 1e15 {
		return fmt.Errorf("scenario: axis %q: value %v is not a non-negative integer", field, v)
	}
	*dst = uint64(f)
	return nil
}

func setStringField(dst *string, field string, v any) error {
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("scenario: axis %q: value %v is not a string", field, v)
	}
	*dst = s
	return nil
}

// setSpecField applies one axis value to its field path on a Spec.
func setSpecField(s *Spec, field string, v any) error {
	switch field {
	case "packets":
		return setIntField(&s.Packets, field, v)
	case "seed":
		return setUintField(&s.Seed, field, v)
	case "signalPeriod":
		return setFloatField(&s.SignalPeriod, field, v)
	case "leaveLatency":
		return setFloatField(&s.LeaveLatency, field, v)
	case "replications.n":
		return setIntField(&s.Replications.N, field, v)
	}
	if rest, ok := strings.CutPrefix(field, "topology."); ok {
		return setTopologyField(&s.Topology, rest, field, v)
	}
	if rest, ok := strings.CutPrefix(field, "churn."); ok {
		if s.Churn == nil {
			s.Churn = &ChurnSpec{}
		}
		switch rest {
		case "interval":
			return setFloatField(&s.Churn.Interval, field, v)
		case "downtime":
			return setFloatField(&s.Churn.Downtime, field, v)
		case "horizon":
			return setFloatField(&s.Churn.Horizon, field, v)
		}
		return fmt.Errorf("scenario: unknown sweep axis field %q", field)
	}
	if rest, ok := strings.CutPrefix(field, "defaultLink."); ok {
		if s.DefaultLink == nil {
			return fmt.Errorf("scenario: axis %q needs base.defaultLink to be set", field)
		}
		return setLinkField(s.DefaultLink, rest, field, v)
	}
	if strings.HasPrefix(field, "links[") {
		idx, rest, err := parseIndexedField(field, "links")
		if err != nil {
			return err
		}
		for i := range s.Links {
			if s.Links[i].Link == idx {
				return setLinkField(&s.Links[i].LinkSpec, rest, field, v)
			}
		}
		return fmt.Errorf("scenario: axis %q: base has no override for link %d (add one to base.links)", field, idx)
	}
	if rest, ok := strings.CutPrefix(field, "sessions."); ok {
		if len(s.Sessions) == 0 {
			s.Sessions = []SessionSpec{{}}
		}
		for i := range s.Sessions {
			if err := setSessionField(&s.Sessions[i], rest, field, v); err != nil {
				return err
			}
		}
		return nil
	}
	if strings.HasPrefix(field, "sessions[") {
		idx, rest, err := parseIndexedField(field, "sessions")
		if err != nil {
			return err
		}
		if idx < 0 || idx >= len(s.Sessions) {
			return fmt.Errorf("scenario: axis %q: base has %d session slots", field, len(s.Sessions))
		}
		return setSessionField(&s.Sessions[idx], rest, field, v)
	}
	return fmt.Errorf("scenario: unknown sweep axis field %q", field)
}

// parseIndexedField splits "name[3].rest" into (3, "rest").
func parseIndexedField(field, name string) (int, string, error) {
	body := field[len(name)+1:]
	j := strings.IndexByte(body, ']')
	if j < 0 || j+1 >= len(body) || body[j+1] != '.' {
		return 0, "", fmt.Errorf("scenario: malformed axis field %q (want %s[index].field)", field, name)
	}
	idx, err := strconv.Atoi(body[:j])
	if err != nil || idx < 0 {
		return 0, "", fmt.Errorf("scenario: malformed axis field %q: bad index %q", field, body[:j])
	}
	return idx, body[j+2:], nil
}

func setTopologyField(t *TopologySpec, rest, field string, v any) error {
	switch rest {
	case "receivers":
		return setIntField(&t.Receivers, field, v)
	case "sessions":
		return setIntField(&t.Sessions, field, v)
	case "nodes":
		return setIntField(&t.Nodes, field, v)
	case "depth":
		return setIntField(&t.Depth, field, v)
	case "k":
		return setIntField(&t.K, field, v)
	case "attach":
		return setIntField(&t.Attach, field, v)
	case "maxReceivers":
		return setIntField(&t.MaxReceivers, field, v)
	case "extraLinks":
		return setIntField(&t.ExtraLinks, field, v)
	case "seed":
		return setUintField(&t.Seed, field, v)
	case "sharedCapacity":
		return setFloatField(&t.SharedCapacity, field, v)
	case "capMin":
		return setFloatField(&t.CapMin, field, v)
	case "capMax":
		return setFloatField(&t.CapMax, field, v)
	case "hostCap":
		return setFloatField(&t.HostCap, field, v)
	case "edgeAggCap":
		return setFloatField(&t.EdgeAggCap, field, v)
	case "aggCoreCap":
		return setFloatField(&t.AggCoreCap, field, v)
	case "kappaMax":
		return setFloatField(&t.KappaMax, field, v)
	case "singleRateProb":
		return setFloatField(&t.SingleRateProb, field, v)
	case "kappaProb":
		return setFloatField(&t.KappaProb, field, v)
	}
	return fmt.Errorf("scenario: unknown sweep axis field %q", field)
}

func setLinkField(l *LinkSpec, rest, field string, v any) error {
	switch rest {
	case "loss":
		return setFloatField(&l.Loss, field, v)
	case "capacity":
		return setFloatField(&l.Capacity, field, v)
	case "background":
		return setFloatField(&l.Background, field, v)
	case "delay":
		return setFloatField(&l.Delay, field, v)
	case "buffer":
		return setIntField(&l.Buffer, field, v)
	}
	return fmt.Errorf("scenario: unknown sweep axis field %q", field)
}

func setSessionField(ss *SessionSpec, rest, field string, v any) error {
	switch rest {
	case "protocol":
		return setStringField(&ss.Protocol, field, v)
	case "type":
		return setStringField(&ss.Type, field, v)
	case "layers":
		return setIntField(&ss.Layers, field, v)
	case "maxRate":
		return setFloatField(&ss.MaxRate, field, v)
	case "redundancy":
		return setFloatField(&ss.Redundancy, field, v)
	}
	return fmt.Errorf("scenario: unknown sweep axis field %q", field)
}

// DecodeSweep reads and validates a Sweep from JSON.
func DecodeSweep(r io.Reader) (*Sweep, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sw Sweep
	if err := dec.Decode(&sw); err != nil {
		return nil, fmt.Errorf("scenario: decode sweep: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	return &sw, nil
}

// Encode writes the Sweep's canonical JSON form (two-space indented,
// trailing newline), the same stability contract as Spec.Encode.
func (sw *Sweep) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// LoadSweepFile reads and validates a Sweep from a JSON file. Parse
// and validation errors name the offending file; JSON errors that
// carry a byte offset are reported as path:line:col.
func LoadSweepFile(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sw, err := DecodeSweep(bytes.NewReader(data))
	if err != nil {
		return nil, locateError(path, data, err)
	}
	return sw, nil
}
