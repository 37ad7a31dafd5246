package scenario

import (
	"fmt"
	"io"

	"mlfair/internal/fairness"
	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/stats"
	"mlfair/internal/trace"
)

// Result is one scenario run: replication-aggregated simulation metrics
// (when Replications.N > 0) next to the analytic max-min benchmark and
// the fairness-property audits of both sides.
type Result struct {
	Spec     *Spec
	Compiled *Compiled
	// Simulated reports whether the simulation stages ran.
	Simulated bool
	// Goodput is the mean receiver goodput across all receivers
	// ("goodput" stage).
	Goodput stats.Summary
	// RootRedundancy / MaxLinkRedundancy are the "redundancy" stage:
	// mean per-session root redundancy and the maximum Definition 3
	// redundancy over all (link, session) pairs.
	RootRedundancy    stats.Summary
	MaxLinkRedundancy stats.Summary
	// Rates[i][k] summarizes receiver r_{i,k}'s goodput across
	// replications; MeanRates is the means alone (the simulated
	// allocation the audits run on).
	Rates     [][]stats.Summary
	MeanRates [][]float64
	// FairRates[i][k] is the max-min benchmark ("maxmin" stage),
	// computed on the Compiled.Benchmark network.
	FairRates [][]float64
	// Gap[i][k] = achieved mean / fair rate ("gap" stage; 0 when the
	// fair rate is 0).
	Gap [][]float64
	// Timeline is the epoch-incremental max-min fair-rate timeline over
	// the membership schedule ("timeseries"/"convergence" stages).
	Timeline []maxmin.TimelineEpoch
	// TimeSeries joins the probe's replication-mean windows against the
	// timeline ("timeseries" stage).
	TimeSeries *TimeSeries
	// Convergence summarizes the per-replication convergence scalars
	// ("convergence" stage).
	Convergence *ConvergenceReport
	// BenchmarkFairness audits the four Section 2.1 properties on the
	// benchmark allocation (a sanity check: the paper's Theorem 1 says
	// all four hold when every session is multi-rate).
	BenchmarkFairness *fairness.Report
	// SimulatedFairness audits the same four properties on the
	// simulated mean-rate allocation — the paper's "do the protocols
	// come close to max-min fairness" question as a verdict.
	SimulatedFairness *fairness.Report
}

// ConvergenceReport is the "convergence" stage output: the
// per-replication convergence scalars (each already averaged over
// receivers) summarized across replications.
type ConvergenceReport struct {
	// Epsilon is the relative fair-rate band the scalars are defined
	// against.
	Epsilon float64
	// TimeToFair is the earliest time after which every probe window
	// stays within ε of the epoch fair rate (run duration = censored,
	// never converged).
	TimeToFair stats.Summary
	// FracTimeFair is the duration-weighted fraction of the run inside
	// the ε band.
	FracTimeFair stats.Summary
	// Oscillation is the post-convergence peak-to-peak windowed-rate
	// amplitude over the mean fair rate.
	Oscillation stats.Summary
}

// Run compiles and executes a Spec.
func Run(spec *Spec) (*Result, error) {
	return RunObserved(spec, nil)
}

// RunObserved is Run with an optional observability attachment: the
// scenario reports as a one-point sweep (see Observe). A nil ob is
// exactly Run — results are bit-identical either way.
func RunObserved(spec *Spec, ob *Observe) (*Result, error) {
	c, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return RunCompiledObserved(c, ob)
}

// RunCompiled executes an already-compiled scenario: a streaming
// replication pass (bounded memory, replication-order determinism —
// aggregates are bit-identical for any worker count) followed by the
// analytic stages.
func RunCompiled(c *Compiled) (*Result, error) {
	return RunCompiledObserved(c, nil)
}

// RunCompiledObserved is RunCompiled with an optional observability
// attachment.
func RunCompiledObserved(c *Compiled, ob *Observe) (*Result, error) {
	s := c.Spec
	sel := s.metricSet()
	res := &Result{Spec: s, Compiled: c}
	needRates := sel[MetricRates] || sel[MetricGap] || sel[MetricFairness]
	needTime := sel[MetricTimeseries] || sel[MetricConvergence]

	if needTime {
		if !c.Simulable {
			return nil, fmt.Errorf("scenario: topology %q is not simulable", s.Topology.Kind)
		}
		epochs, err := FairTimeline(c)
		if err != nil {
			return nil, fmt.Errorf("scenario: fair-rate timeline: %w", err)
		}
		res.Timeline = epochs
	}

	if s.Replications.N > 0 {
		if !c.Simulable {
			return nil, fmt.Errorf("scenario: topology %q is not simulable", s.Topology.Kind)
		}
		res.Simulated = true
		net := c.Net
		var goodAcc, rootAcc, maxAcc stats.Accumulator
		var timeToFairAcc, fracFairAcc, oscAcc stats.Accumulator
		var tsAcc timeSeriesAcc
		var convEval *convergenceEval
		if sel[MetricConvergence] {
			convEval = &convergenceEval{epochs: res.Timeline, eps: s.convergenceEpsilon()}
		}
		rateAccs := make([][]stats.Accumulator, net.NumSessions())
		for i := range rateAccs {
			rateAccs[i] = make([]stats.Accumulator, net.Session(i).NumReceivers())
		}
		goodput, rootRed, maxRed := sweepMetrics["goodput"], sweepMetrics["root_redundancy"], sweepMetrics["max_link_redundancy"]
		cfg := c.Cfg
		if ob != nil && ob.Stats != nil {
			cfg.Stats = ob.Stats
		}
		tr := newTracker(ob, 1, s.Replications.N, 1)
		tr.PointStart(0)
		err := netsim.StreamReplications(cfg, s.Replications.N, s.Replications.Workers,
			func(_ int, r *netsim.Result) error {
				if needTime && r.Probe == nil {
					return fmt.Errorf("scenario: timeseries/convergence stages ran without probe output")
				}
				if sel[MetricGoodput] {
					goodAcc.Add(goodput(r))
				}
				if sel[MetricRedundancy] {
					rootAcc.Add(rootRed(r))
					maxAcc.Add(maxRed(r))
				}
				if needRates {
					for i := range r.ReceiverRates {
						for k, v := range r.ReceiverRates[i] {
							rateAccs[i][k].Add(v)
						}
					}
				}
				if sel[MetricTimeseries] {
					if err := tsAcc.add(r); err != nil {
						return err
					}
				}
				if convEval != nil {
					if err := convEval.checkComplete(r.Probe); err != nil {
						return err
					}
					cs := convEval.scalars(r.Probe)
					timeToFairAcc.Add(cs.TimeToFair)
					fracFairAcc.Add(cs.FracTimeFair)
					oscAcc.Add(cs.Oscillation)
				}
				tr.Cell(r.Events)
				return nil
			})
		tr.PointEnd(0)
		tr.Finish()
		if err != nil {
			return nil, err
		}
		sum := func(a *stats.Accumulator) stats.Summary {
			return stats.Summary{Mean: a.Mean(), CI95: a.CI95(), N: a.N(), StdEv: a.StdDev()}
		}
		res.Goodput = sum(&goodAcc)
		res.RootRedundancy = sum(&rootAcc)
		res.MaxLinkRedundancy = sum(&maxAcc)
		if sel[MetricTimeseries] {
			res.TimeSeries = tsAcc.finish(res.Timeline)
		}
		if convEval != nil {
			res.Convergence = &ConvergenceReport{
				Epsilon:      convEval.eps,
				TimeToFair:   sum(&timeToFairAcc),
				FracTimeFair: sum(&fracFairAcc),
				Oscillation:  sum(&oscAcc),
			}
		}
		if needRates {
			res.Rates = make([][]stats.Summary, len(rateAccs))
			res.MeanRates = make([][]float64, len(rateAccs))
			for i := range rateAccs {
				res.Rates[i] = make([]stats.Summary, len(rateAccs[i]))
				res.MeanRates[i] = make([]float64, len(rateAccs[i]))
				for k := range rateAccs[i] {
					res.Rates[i][k] = sum(&rateAccs[i][k])
					res.MeanRates[i][k] = rateAccs[i][k].Mean()
				}
			}
		}
	}

	if sel[MetricMaxMin] || sel[MetricGap] || sel[MetricFairness] {
		fair, err := maxmin.Allocate(c.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("scenario: max-min benchmark: %w", err)
		}
		res.FairRates = make([][]float64, c.Benchmark.NumSessions())
		for i := range res.FairRates {
			res.FairRates[i] = append([]float64(nil), fair.Alloc.SessionRates(i)...)
		}
		if sel[MetricFairness] {
			res.BenchmarkFairness = fairness.Check(fair.Alloc)
		}
	}
	if res.Simulated && res.MeanRates != nil {
		if sel[MetricFairness] {
			simAlloc, err := netmodel.AllocationFromRates(c.Benchmark, res.MeanRates)
			if err != nil {
				return nil, fmt.Errorf("scenario: simulated allocation: %w", err)
			}
			res.SimulatedFairness = fairness.Check(simAlloc)
		}
		if sel[MetricGap] && res.FairRates != nil {
			res.Gap = make([][]float64, len(res.MeanRates))
			for i := range res.MeanRates {
				res.Gap[i] = make([]float64, len(res.MeanRates[i]))
				for k := range res.MeanRates[i] {
					if f := res.FairRates[i][k]; f > 0 {
						res.Gap[i][k] = res.MeanRates[i][k] / f
					}
				}
			}
		}
	}
	return res, nil
}

// Title resolves the report title: the Spec's Name, or one synthesized
// from the compiled topology.
func (r *Result) Title() string {
	if r.Spec.Name != "" {
		return r.Spec.Name
	}
	net := r.Compiled.Net
	return fmt.Sprintf("scenario %s: %d nodes, %d links, %d sessions, %d receivers",
		r.Spec.Topology.Kind, net.Graph().NumNodes(), net.NumLinks(),
		net.NumSessions(), net.NumReceivers())
}

// WriteReport renders the selected stages as trace tables and verdict
// lines. With the default "goodput"+"redundancy" selection the output
// is exactly one summary table (the byte format the large-topology
// golden pins).
func (r *Result) WriteReport(w io.Writer) error {
	sel := r.Spec.metricSet()
	titled := false
	if r.Simulated && (sel[MetricGoodput] || sel[MetricRedundancy]) {
		t := trace.NewTable(r.Title(), "metric", "mean", "ci95")
		titled = true
		if sel[MetricGoodput] {
			t.AddRow("receiver goodput", trace.Float(r.Goodput.Mean), trace.Float(r.Goodput.CI95))
		}
		if sel[MetricRedundancy] {
			t.AddRow("session root redundancy", trace.Float(r.RootRedundancy.Mean), trace.Float(r.RootRedundancy.CI95))
			t.AddRow("max link redundancy", trace.Float(r.MaxLinkRedundancy.Mean), trace.Float(r.MaxLinkRedundancy.CI95))
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	if !titled {
		if _, err := fmt.Fprintf(w, "## %s\n", r.Title()); err != nil {
			return err
		}
	}
	if r.Simulated && sel[MetricRates] {
		t := trace.NewTable("", "receiver", "mean rate", "ci95")
		for i := range r.Rates {
			for k := range r.Rates[i] {
				t.AddRow(fmt.Sprintf("r%d,%d", i+1, k+1),
					trace.Float(r.Rates[i][k].Mean), trace.Float(r.Rates[i][k].CI95))
			}
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	if r.FairRates != nil && (sel[MetricMaxMin] || sel[MetricGap]) {
		headers := []string{"receiver", "max-min fair rate"}
		if r.Simulated {
			headers = append(headers, "achieved mean", "fairness gap")
		}
		t := trace.NewTable("", headers...)
		for i := range r.FairRates {
			for k := range r.FairRates[i] {
				row := []string{fmt.Sprintf("r%d,%d", i+1, k+1), trace.Float(r.FairRates[i][k])}
				if r.Simulated {
					achieved, gap := "-", "-"
					if r.MeanRates != nil {
						achieved = trace.Float(r.MeanRates[i][k])
					}
					if r.Gap != nil {
						gap = trace.Float(r.Gap[i][k])
					}
					row = append(row, achieved, gap)
				}
				t.AddRow(row...)
			}
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	if sel[MetricConvergence] && r.Convergence != nil {
		cv := r.Convergence
		t := trace.NewTable(
			fmt.Sprintf("convergence vs max-min fair (ε = %s, %d epoch(s))", trace.Float(cv.Epsilon), len(r.Timeline)),
			"metric", "mean", "ci95")
		t.AddRow("time to fair", trace.Float(cv.TimeToFair.Mean), trace.Float(cv.TimeToFair.CI95))
		t.AddRow("fraction of time fair", trace.Float(cv.FracTimeFair.Mean), trace.Float(cv.FracTimeFair.CI95))
		t.AddRow("oscillation amplitude", trace.Float(cv.Oscillation.Mean), trace.Float(cv.Oscillation.CI95))
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	if sel[MetricTimeseries] && r.TimeSeries != nil {
		if _, err := fmt.Fprintf(w, "time series: %d windows x %d replications over %d fair-rate epoch(s)\n",
			len(r.TimeSeries.Times), r.TimeSeries.Reps, len(r.Timeline)); err != nil {
			return err
		}
	}
	if sel[MetricFairness] {
		if r.BenchmarkFairness != nil {
			if _, err := fmt.Fprintf(w, "max-min benchmark properties: %s\n", r.BenchmarkFairness.Summary()); err != nil {
				return err
			}
		}
		if r.SimulatedFairness != nil {
			if _, err := fmt.Fprintf(w, "simulated-rate properties:    %s\n", r.SimulatedFairness.Summary()); err != nil {
				return err
			}
		}
	}
	return nil
}
