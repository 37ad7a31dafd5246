// Command netsim drives the general-topology event-driven simulator
// (internal/netsim) through its scenario suite — the paper's modified
// star, binary loss trees, multi-session capacity-coupled meshes,
// membership churn, droptail bottlenecks with background cross-traffic,
// the end-to-end max-min fairness audit, the Figure-8 and leave-latency
// sweeps, the large-topology scenarios (random scale-free graphs and
// k-ary fat-tree fabrics), and the planetary-scale single run
// (session-sharded, memory-planned, up to 10^7 receivers) — or through
// declarative files: a
// scenario.Spec (-spec; docs/SCENARIOS.md) or a scenario.Sweep
// parameter study emitting a CSV/JSON result table (-sweep;
// docs/SWEEPS.md).
//
// Usage:
//
//	netsim -scenario all -quick
//	netsim -scenario star -receivers 100 -packets 100000 -trials 30
//	netsim -scenario scalefree,fattree -packets 200000 -trials 30
//	netsim -scenario audit
//	netsim -scenario convergence
//	netsim -spec testdata/scalefree.json
//	netsim -spec testdata/timeseries.json -timeseries
//	netsim -sweep testdata/sweeps/fig8.json
//	netsim -sweep testdata/sweeps/convergence.json
//	netsim -sweep testdata/sweeps/background.json -format json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mlfair/internal/cliutil"
	"mlfair/internal/experiments"
	scen "mlfair/internal/scenario"
)

func main() {
	os.Exit(realMain())
}

// fail is the binary's single error exit path: every failure reports
// through here with the same prefix.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "netsim:", err)
	return 1
}

func realMain() int {
	scenarioFlag := flag.String("scenario", "all",
		"star | fig8 | tree | mesh | churn | background | leavelatency | audit | convergence | scalefree | fattree | planetary | all (comma-separated)")
	timeseries := flag.Bool("timeseries", false,
		"with -spec: emit the time-resolved fairness CSV (windowed rates and levels joined against the epoch fair-rate timeline) instead of the text report; the spec needs a probe block")
	f := cliutil.RegisterSim(flag.CommandLine, cliutil.SimDefaults{
		Receivers: 50, Packets: 50000, Trials: 8, Seed: 777, Quick: true,
	})
	ob := cliutil.RegisterObservability(flag.CommandLine, "netsim")
	flag.Parse()
	if err := ob.Start(); err != nil {
		return fail(err)
	}
	err := dispatch(f, ob, *scenarioFlag, *timeseries)
	if serr := ob.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// dispatch routes the parsed flags to the -timeseries, declarative, or
// scenario-driver path.
func dispatch(f *cliutil.SimFlags, ob *cliutil.Observability, scenarios string, timeseries bool) error {
	if timeseries {
		return runTimeseries(os.Stdout, f.Declarative, ob)
	}
	if ran, err := f.RunObserved(os.Stdout, ob); ran {
		return err
	}
	f.ApplyQuick(10, 10000, 3)
	ob.Manifest().SetSeed(f.Seed)
	o := experiments.NetsimOptions{
		Receivers: f.Receivers, Packets: f.Packets, Trials: f.Trials,
		Workers: f.Workers, Seed: f.Seed, Observe: ob.Observe(),
	}
	return run(os.Stdout, scenarios, o)
}

var scenarios = []struct {
	name   string
	driver func(io.Writer, experiments.NetsimOptions) error
}{
	{"star", experiments.NetsimStar},
	{"fig8", experiments.NetsimFigure8},
	{"tree", experiments.NetsimTree},
	{"mesh", experiments.NetsimMesh},
	{"churn", experiments.NetsimChurn},
	{"background", experiments.NetsimBackground},
	{"leavelatency", experiments.NetsimLeaveLatency},
	{"audit", experiments.NetsimAudit},
	{"convergence", experiments.NetsimConvergence},
	{"scalefree", experiments.NetsimScaleFree},
	{"fattree", experiments.NetsimFatTree},
	{"planetary", experiments.NetsimPlanetary},
}

// runTimeseries is the -timeseries path: load the spec (with any
// -workers budget), make sure the timeseries stage is selected, run,
// and emit the long-format CSV.
func runTimeseries(w io.Writer, d *cliutil.Declarative, ob *cliutil.Observability) error {
	if d.Spec == "" {
		return fmt.Errorf("-timeseries needs -spec (a scenario file with a probe block)")
	}
	if d.Sweep != "" {
		return fmt.Errorf("-timeseries applies to -spec runs, not -sweep")
	}
	spec, err := d.LoadSpec()
	if err != nil {
		return err
	}
	if !slices.Contains(spec.Metrics, scen.MetricTimeseries) {
		spec.Metrics = append(spec.Metrics, scen.MetricTimeseries)
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	ob.NoteSpec(d.Spec)
	res, err := scen.RunObserved(spec, ob.Observe())
	if err != nil {
		return err
	}
	return res.WriteTimeseriesCSV(w)
}

func run(w io.Writer, names string, o experiments.NetsimOptions) error {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if n == "all" {
			for _, s := range scenarios {
				want[s.name] = true
			}
			continue
		}
		found := false
		for _, s := range scenarios {
			if s.name == n {
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(scenarios))
			for i, s := range scenarios {
				known[i] = s.name
			}
			return fmt.Errorf("unknown scenario %q (have %s, all)", n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	if len(want) == 0 {
		return fmt.Errorf("no scenario selected")
	}
	for _, s := range scenarios {
		if !want[s.name] {
			continue
		}
		if err := s.driver(w, o); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
