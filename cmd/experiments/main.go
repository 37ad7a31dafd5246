// Command experiments regenerates every table and figure of the paper's
// evaluation (README's "Reproducing the paper" lists what each part covers).
//
// Usage:
//
//	experiments -fig all -quick     # everything, reduced simulation sizes
//	experiments -fig 8a             # one panel at full paper fidelity
//	experiments -fig 1,2,3,4,s3     # the analytic examples
//
// Figures: 1 2 3 4 s3 5 6 markov 8a 8b all
//
// With -spec, runs a declarative scenario.Spec JSON file through the
// scenario layer instead (see docs/SCENARIOS.md); with -sweep, runs a
// declarative scenario.Sweep parameter study and emits its CSV/JSON
// result table (see docs/SWEEPS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mlfair/internal/cliutil"
	"mlfair/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return 1
}

func realMain() int {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: 1 2 3 4 s3 5 6 markov 8a 8b all ext-latency ext-priority ext-weighted ext-converge ext-tree ext-churn ext")
	quick := flag.Bool("quick", false, "reduced simulation sizes for Figure 8 (40 receivers, 20k packets, 5 trials)")
	d := cliutil.RegisterDeclarative(flag.CommandLine)
	ob := cliutil.RegisterObservability(flag.CommandLine, "experiments")
	flag.Parse()

	if err := ob.Start(); err != nil {
		return fail(err)
	}
	ran, err := d.RunObserved(os.Stdout, ob)
	if !ran {
		err = run(os.Stdout, *fig, *quick)
	}
	if serr := ob.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func extOptions(quick bool) experiments.ExtensionOptions {
	o := experiments.DefaultExtensionOptions()
	if quick {
		o.Receivers, o.Packets, o.Trials = 20, 10000, 3
	}
	return o
}

func run(w io.Writer, figs string, quick bool) error {
	o := experiments.PaperFigure8Options()
	if quick {
		o = experiments.QuickFigure8Options()
	}
	drivers := map[string]func(io.Writer) error{
		"1":      experiments.Figure1,
		"2":      experiments.Figure2,
		"3":      experiments.Figure3,
		"4":      experiments.Figure4,
		"s3":     experiments.Section3Example,
		"5":      experiments.Figure5,
		"6":      experiments.Figure6,
		"markov": experiments.MarkovAnalysis,
		"8a":     func(w io.Writer) error { return experiments.Figure8(w, 0.0001, o) },
		"8b":     func(w io.Writer) error { return experiments.Figure8(w, 0.05, o) },
		"ext-latency": func(w io.Writer) error {
			return experiments.LeaveLatency(w, extOptions(quick))
		},
		"ext-priority": func(w io.Writer) error {
			return experiments.PriorityDrop(w, extOptions(quick))
		},
		"ext-weighted": experiments.WeightedFairness,
		"ext-converge": func(w io.Writer) error {
			return experiments.Convergence(w, extOptions(quick))
		},
		"ext-tree": func(w io.Writer) error {
			return experiments.TreeRedundancy(w, extOptions(quick))
		},
		"ext-churn": func(w io.Writer) error {
			return experiments.Churn(w, 424242)
		},
	}
	drivers["ext"] = func(w io.Writer) error {
		for _, name := range []string{"ext-weighted", "ext-latency", "ext-priority", "ext-converge", "ext-tree", "ext-churn"} {
			if err := drivers[name](w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	if figs == "all" {
		if err := experiments.RunAll(w, quick); err != nil {
			return err
		}
		return drivers["ext"](w)
	}
	for _, f := range strings.Split(figs, ",") {
		f = strings.TrimSpace(f)
		d, ok := drivers[f]
		if !ok {
			return fmt.Errorf("unknown figure %q (want 1 2 3 4 s3 5 6 markov 8a 8b all)", f)
		}
		if err := d(w); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
