// Command protosim runs the layered multicast congestion-control
// simulator on the paper's modified-star topology (Figure 7b) and
// reports the session's shared-link redundancy.
//
// Usage:
//
//	protosim -protocol coordinated -receivers 100 -shared 0.0001 -ind 0.04
//	protosim -protocol all -trials 30 -packets 100000   # paper fidelity
//	protosim -spec scenario.json                        # declarative spec run
//	protosim -sweep sweep.json                          # declarative sweep run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlfair/internal/cliutil"
	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
	"mlfair/internal/trace"
)

func main() {
	var (
		proto   = flag.String("protocol", "all", "coordinated | uncoordinated | deterministic | all")
		layers  = flag.Int("layers", 8, "number of layers")
		shared  = flag.Float64("shared", 0.0001, "shared-link Bernoulli loss rate")
		ind     = flag.Float64("ind", 0.04, "independent (fanout) loss rate")
		latency = flag.Float64("leave-latency", 0, "leave-processing latency in time units (Section 5 extension)")
		drop    = flag.String("drop", "uniform", "drop policy: uniform | priority (Section 5 extension)")
	)
	f := cliutil.RegisterSim(flag.CommandLine, cliutil.SimDefaults{
		Receivers: 100, Packets: 100000, Trials: 30, Seed: 1999,
	})
	ob := cliutil.RegisterObservability(flag.CommandLine, "protosim")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "protosim:", err)
		os.Exit(1)
	}
	if err := ob.Start(); err != nil {
		fail(err)
	}
	ran, err := f.RunObserved(os.Stdout, ob)
	if !ran {
		ob.Manifest().SetSeed(f.Seed)
		err = run(os.Stdout, options{
			proto: *proto, receivers: f.Receivers, layers: *layers,
			shared: *shared, ind: *ind, packets: f.Packets, trials: f.Trials,
			seed: f.Seed, latency: *latency, drop: *drop,
		})
	}
	if serr := ob.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		fail(err)
	}
}

func parseKinds(s string) ([]protocol.Kind, error) {
	switch s {
	case "coordinated":
		return []protocol.Kind{protocol.Coordinated}, nil
	case "uncoordinated":
		return []protocol.Kind{protocol.Uncoordinated}, nil
	case "deterministic":
		return []protocol.Kind{protocol.Deterministic}, nil
	case "all":
		return protocol.Kinds(), nil
	}
	return nil, fmt.Errorf("unknown protocol %q", s)
}

// options carries protosim's run parameters.
type options struct {
	proto           string
	receivers       int
	layers          int
	shared, ind     float64
	packets, trials int
	seed            uint64
	latency         float64
	drop            string
}

// parseDrop canonicalizes the -drop flag: uniform (the paper's
// Bernoulli model, also the default) or priority (netsim.PriorityDrop).
func parseDrop(s string) (string, error) {
	switch s {
	case "uniform", "":
		return "uniform", nil
	case "priority":
		return "priority", nil
	}
	return "", fmt.Errorf("unknown drop policy %q", s)
}

func run(w io.Writer, o options) error {
	kinds, err := parseKinds(o.proto)
	if err != nil {
		return err
	}
	drop, err := parseDrop(o.drop)
	if err != nil {
		return err
	}
	if o.trials < 1 {
		return fmt.Errorf("trials = %d", o.trials)
	}
	t := trace.NewTable(
		fmt.Sprintf("Shared-link redundancy: %d receivers, %d layers, shared loss %g, independent loss %g, latency %g, %s drop",
			o.receivers, o.layers, o.shared, o.ind, o.latency, drop),
		"protocol", "redundancy", "ci95", "mean level", "link rate")
	for _, k := range kinds {
		cfg, err := netsim.Star(o.receivers, o.shared, o.ind,
			netsim.SessionConfig{Protocol: k, Layers: o.layers}, o.packets, o.seed)
		if err != nil {
			return err
		}
		if drop == "priority" {
			netsim.PriorityDrop(cfg.Links, o.layers)
		}
		cfg.LeaveLatency = o.latency
		// Trial i runs at seed+i; the diagnostics columns come from the
		// first trial, at the base seed.
		reds := make([]float64, o.trials)
		var first *netsim.Result
		for i := range reds {
			cfg.Seed = o.seed + uint64(i)
			r, err := netsim.Run(cfg)
			if err != nil {
				return err
			}
			reds[i] = r.LinkRedundancy(0, 0)
			if i == 0 {
				first = r
			}
		}
		s := stats.Summarize(reds)
		t.AddRow(k.String(), trace.Float(s.Mean), trace.Float(s.CI95),
			trace.Float(first.MeanLevels[0]), trace.Float(sharedLinkRate(first)))
	}
	_, err = t.WriteTo(w)
	return err
}

// sharedLinkRate is the session's packet rate across the star's shared
// link (link 0).
func sharedLinkRate(r *netsim.Result) float64 {
	for _, ls := range r.Links {
		if ls.Link == 0 {
			return ls.Rate
		}
	}
	return 0
}
