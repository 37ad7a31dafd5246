// Command mmfair computes the max-min fair allocation of a network
// described in JSON and reports per-receiver rates, bottleneck causes,
// link utilization, and the four fairness properties of the paper.
//
// Usage:
//
//	mmfair network.json
//	mmfair -example > network.json   # print a starter file (Figure 2)
//	cat network.json | mmfair -
//	mmfair -spec scenario.json       # audit a scenario.Spec's benchmark network
//
// JSON schema:
//
//	{
//	  "links": [5, 2, 3, 6],                  // capacities; index = link id
//	  "sessions": [
//	    {"type": "single",                     // "single" | "multi"
//	     "maxRate": 100,                       // omit for unbounded
//	     "redundancy": 1,                      // >= 1; applied on shared links
//	     "paths": [[0,3],[1],[2]]}             // one link set per receiver
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mlfair/internal/fairness"
	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/redundancy"
	"mlfair/internal/scenario"
	"mlfair/internal/trace"
)

type sessionSpec struct {
	Type       string  `json:"type"`
	MaxRate    float64 `json:"maxRate"`
	Redundancy float64 `json:"redundancy"`
	Paths      [][]int `json:"paths"`
	// Weights optionally assigns per-receiver weights for weighted
	// (TCP-style) max-min fairness; omit for the paper's unweighted
	// definition. If any session specifies weights, unspecified
	// receivers default to weight 1.
	Weights []float64 `json:"weights"`
}

type networkSpec struct {
	Links    []float64     `json:"links"`
	Sessions []sessionSpec `json:"sessions"`
}

const exampleJSON = `{
  "links": [5, 2, 3, 6],
  "sessions": [
    {"type": "single", "maxRate": 100, "paths": [[0, 3], [1], [2]]},
    {"type": "multi", "maxRate": 100, "paths": [[0, 3]]}
  ]
}
`

func main() {
	example := flag.Bool("example", false, "print an example network file (the paper's Figure 2) and exit")
	dot := flag.Bool("dot", false, "emit the network (with allocation annotations) as Graphviz DOT instead of tables")
	spec := flag.String("spec", "", "report on the analytic benchmark network compiled from a scenario.Spec JSON file (docs/SCENARIOS.md)")
	flag.Parse()
	if *example {
		fmt.Print(exampleJSON)
		return
	}
	if *spec != "" {
		if err := runSpec(os.Stdout, *spec, *dot); err != nil {
			fmt.Fprintln(os.Stderr, "mmfair:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mmfair [-dot] <network.json | -> | mmfair -spec scenario.json")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *dot); err != nil {
		fmt.Fprintln(os.Stderr, "mmfair:", err)
		os.Exit(1)
	}
}

// runSpec compiles a declarative scenario.Spec and reports on its
// analytic benchmark network — the same network the scenario layer's
// "maxmin", "fairness" and "gap" stages audit against, so mmfair's
// bottleneck-cause and utilization tables apply to any scenario file.
func runSpec(w io.Writer, path string, dot bool) error {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	if dot {
		res, err := maxmin.Allocate(c.Benchmark)
		if err != nil {
			return err
		}
		return netmodel.WriteDOT(w, c.Benchmark, res.Alloc)
	}
	return Report(w, c.Benchmark)
}

func run(w io.Writer, path string, dot bool) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	net, weights, err := ParseWeighted(data)
	if err != nil {
		return err
	}
	if dot {
		res, err := maxmin.AllocateWeighted(net, weights)
		if err != nil {
			return err
		}
		return netmodel.WriteDOT(w, net, res.Alloc)
	}
	return ReportWeighted(w, net, weights)
}

// Parse builds a network from the JSON description.
func Parse(data []byte) (*netmodel.Network, error) {
	net, _, err := ParseWeighted(data)
	return net, err
}

// ParseWeighted builds a network plus optional receiver weights from the
// JSON description. weights is nil when no session specifies any.
func ParseWeighted(data []byte) (*netmodel.Network, maxmin.Weights, error) {
	var spec networkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("parsing network: %w", err)
	}
	if len(spec.Links) == 0 {
		return nil, nil, fmt.Errorf("network has no links")
	}
	b := netmodel.NewBuilder()
	for _, c := range spec.Links {
		if c < 0 {
			return nil, nil, fmt.Errorf("negative link capacity %v", c)
		}
		b.AddLink(c)
	}
	anyWeights := false
	var weights maxmin.Weights
	for i, s := range spec.Sessions {
		var t netmodel.SessionType
		switch s.Type {
		case "single":
			t = netmodel.SingleRate
		case "multi", "":
			t = netmodel.MultiRate
		default:
			return nil, nil, fmt.Errorf("session %d: unknown type %q (want single|multi)", i+1, s.Type)
		}
		maxRate := s.MaxRate
		if maxRate == 0 {
			maxRate = netmodel.NoRateCap
		}
		if len(s.Paths) == 0 {
			return nil, nil, fmt.Errorf("session %d has no receivers", i+1)
		}
		id := b.AddSession(t, maxRate, len(s.Paths))
		if s.Redundancy > 1 {
			b.SetLinkRate(id, netmodel.SharedScaledMax(s.Redundancy))
		} else if s.Redundancy != 0 && s.Redundancy < 1 {
			return nil, nil, fmt.Errorf("session %d: redundancy %v < 1", i+1, s.Redundancy)
		}
		w := make([]float64, len(s.Paths))
		for k := range w {
			w[k] = 1
		}
		if s.Weights != nil {
			if len(s.Weights) != len(s.Paths) {
				return nil, nil, fmt.Errorf("session %d: %d weights for %d receivers", i+1, len(s.Weights), len(s.Paths))
			}
			copy(w, s.Weights)
			anyWeights = true
		}
		weights = append(weights, w)
		for k, p := range s.Paths {
			if len(p) == 0 {
				return nil, nil, fmt.Errorf("session %d receiver %d has an empty path", i+1, k+1)
			}
			for _, j := range p {
				if j < 0 || j >= len(spec.Links) {
					return nil, nil, fmt.Errorf("session %d receiver %d: link %d out of range", i+1, k+1, j)
				}
			}
			b.SetPath(id, k, p...)
		}
	}
	net, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	if !anyWeights {
		weights = nil
	}
	return net, weights, nil
}

// Report allocates and prints the full report.
func Report(w io.Writer, net *netmodel.Network) error {
	return ReportWeighted(w, net, nil)
}

// ReportWeighted is Report under optional receiver weights.
func ReportWeighted(w io.Writer, net *netmodel.Network, weights maxmin.Weights) error {
	res, err := maxmin.AllocateWeighted(net, weights)
	if err != nil {
		return err
	}
	a := res.Alloc

	rt := trace.NewTable("Max-min fair receiver rates", "receiver", "type", "rate", "bound by")
	for _, id := range net.ReceiverIDs() {
		c := res.Causes[id.Session][id.Receiver]
		why := c.Kind.String()
		if c.Kind != maxmin.CauseMaxRate {
			why = fmt.Sprintf("%s l%d", c.Kind, c.Link+1)
		}
		rt.AddRow(id.String(), net.Session(id.Session).Type.String(),
			trace.Float(a.RateOf(id)), why)
	}
	if _, err := rt.WriteTo(w); err != nil {
		return err
	}

	lt := trace.NewTable("Link utilization", "link", "capacity", "u_j", "fully utilized", "session redundancies")
	for j := 0; j < net.NumLinks(); j++ {
		reds := ""
		for i := 0; i < net.NumSessions(); i++ {
			if r, ok := redundancy.OfAllocation(a, i, j); ok {
				if reds != "" {
					reds += " "
				}
				reds += fmt.Sprintf("S%d:%s", i+1, trace.Float(r))
			}
		}
		lt.AddRow(fmt.Sprintf("l%d", j+1), trace.Float(net.Capacity(j)),
			trace.Float(a.LinkRate(j)), fmt.Sprintf("%v", a.FullyUtilized(j)), reds)
	}
	if _, err := lt.WriteTo(w); err != nil {
		return err
	}

	rep := fairness.Check(a)
	fmt.Fprintf(w, "fairness: %s\n", rep.Summary())
	for _, v := range rep.SamePathViolations {
		fmt.Fprintf(w, "  same-path violation: %s\n", v)
	}
	for _, id := range rep.FullyUtilizedReceiverViolations {
		fmt.Fprintf(w, "  fully-utilized-receiver violation: %s\n", id)
	}
	for _, id := range rep.PerReceiverLinkViolations {
		fmt.Fprintf(w, "  per-receiver-link violation: %s\n", id)
	}
	for _, i := range rep.PerSessionLinkViolations {
		fmt.Fprintf(w, "  per-session-link violation: S%d\n", i+1)
	}
	return nil
}
