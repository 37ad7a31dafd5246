package scenario

import (
	"reflect"
	"strings"
	"testing"

	"mlfair/internal/maxmin"
	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
)

// timeSpec is a capacity-coupled star with probe windows — the shape
// the timeseries/convergence stages target.
func timeSpec(metrics ...string) *Spec {
	return &Spec{
		Topology: TopologySpec{
			Kind:             "star",
			SharedCapacity:   24,
			FanoutCapacities: []float64{2, 8, 32, 64},
		},
		Sessions:     []SessionSpec{{Protocol: "Coordinated", Layers: 8}},
		DefaultLink:  &LinkSpec{Kind: "capacity"},
		Packets:      8000,
		Seed:         11,
		Probe:        &ProbeSpec{PacketWindow: 400},
		Replications: ReplicationSpec{N: 3, Workers: 2},
		Metrics:      metrics,
	}
}

// TestTimeseriesStage: the joined time series exists, its windows tile
// the run, fair rates come from the (single) epoch, and gaps are
// rate/fair.
func TestTimeseriesStage(t *testing.T) {
	res, err := Run(timeSpec(MetricTimeseries))
	if err != nil {
		t.Fatal(err)
	}
	ts := res.TimeSeries
	if ts == nil {
		t.Fatal("no time series")
	}
	if len(res.Timeline) != 1 {
		t.Fatalf("churn-free run has %d epochs, want 1", len(res.Timeline))
	}
	if ts.Reps != 3 {
		t.Fatalf("time series averaged %d replications, want 3", ts.Reps)
	}
	if len(ts.Times) < 5 {
		t.Fatalf("only %d windows", len(ts.Times))
	}
	for s := 1; s < len(ts.Times); s++ {
		if ts.Starts[s] != ts.Times[s-1] {
			t.Fatalf("window %d not contiguous", s)
		}
	}
	for i := range ts.Rate {
		for k := range ts.Rate[i] {
			for s := range ts.Times {
				if ts.Fair[i][k][s] != res.Timeline[0].Rates[i][k] {
					t.Fatalf("fair rate at window %d differs from the epoch allocation", s)
				}
				f := ts.Fair[i][k][s]
				if f > 0 {
					want := ts.Rate[i][k][s] / f
					if ts.Gap[i][k][s] != want {
						t.Fatalf("gap at window %d: %v, want %v", s, ts.Gap[i][k][s], want)
					}
				}
			}
		}
	}
}

// TestConvergenceStage: the scalar report is present and sane.
func TestConvergenceStage(t *testing.T) {
	res, err := Run(timeSpec(MetricConvergence))
	if err != nil {
		t.Fatal(err)
	}
	cv := res.Convergence
	if cv == nil {
		t.Fatal("no convergence report")
	}
	if cv.Epsilon != DefaultConvergenceEpsilon {
		t.Fatalf("epsilon %v, want default %v", cv.Epsilon, DefaultConvergenceEpsilon)
	}
	if cv.FracTimeFair.Mean < 0 || cv.FracTimeFair.Mean > 1 {
		t.Fatalf("fraction of time fair %v outside [0,1]", cv.FracTimeFair.Mean)
	}
	if cv.TimeToFair.Mean < 0 {
		t.Fatalf("negative time to fair %v", cv.TimeToFair.Mean)
	}
	if cv.Oscillation.Mean < 0 {
		t.Fatalf("negative oscillation %v", cv.Oscillation.Mean)
	}
	if cv.TimeToFair.N != 3 {
		t.Fatalf("convergence summarized %d replications, want 3", cv.TimeToFair.N)
	}
}

// TestTimeseriesChurnEpochs: churn events open fair-rate epochs and the
// joined fair column switches with them.
func TestTimeseriesChurnEpochs(t *testing.T) {
	spec := timeSpec(MetricTimeseries, MetricConvergence)
	spec.Churn = &ChurnSpec{Events: []ChurnEvent{
		{Time: 30, Session: 0, Receiver: 3, Join: false},
		{Time: 60, Session: 0, Receiver: 3, Join: true},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 3 {
		t.Fatalf("%d epochs, want 3", len(res.Timeline))
	}
	if r := res.Timeline[1].Rates[0][3]; r != 0 {
		t.Fatalf("departed receiver has fair rate %v in epoch 1", r)
	}
	ts := res.TimeSeries
	sawZero := false
	for s := range ts.Times {
		if ts.Times[s] > 30 && ts.Times[s] <= 60 && ts.Fair[0][3][s] == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("fair-rate column never reflected the churn departure")
	}
	if res.Convergence == nil {
		t.Fatal("convergence stage missing")
	}
}

// TestMembershipEventsLeaveShift: slow leaves release benchmark
// bandwidth at leave time + latency, and a rejoin inside the linger
// window voids the removal.
func TestMembershipEventsLeaveShift(t *testing.T) {
	churn := []netsim.ChurnEvent{
		{Time: 10, Session: 0, Receiver: 1, Join: false},
		{Time: 40, Session: 0, Receiver: 2, Join: false},
		{Time: 44, Session: 0, Receiver: 2, Join: true},
	}
	// Latency 0: events map through unshifted.
	got := membershipEvents(churn, 0)
	if len(got) != 3 || got[0].Time != 10 || got[1].Time != 40 || !got[2].Join {
		t.Fatalf("latency-0 mapping wrong: %+v", got)
	}
	// Latency 8: the first leave fires at 18; the second is voided by
	// the rejoin at 44 <= 48, and the rejoin itself stays (a no-op join).
	got = membershipEvents(churn, 8)
	if len(got) != 2 {
		t.Fatalf("latency-8 mapping has %d events, want 2: %+v", len(got), got)
	}
	if got[0].Time != 18 || got[0].Join || got[0].Receiver != 1 {
		t.Fatalf("shifted leave wrong: %+v", got[0])
	}
	if !got[1].Join || got[1].Time != 44 {
		t.Fatalf("surviving rejoin wrong: %+v", got[1])
	}
}

// TestTimeseriesWorkerInvariance: the joined time series is
// bit-identical for any worker count (the runner's replication-order
// contract extended to the windowed path).
func TestTimeseriesWorkerInvariance(t *testing.T) {
	one := timeSpec(MetricTimeseries, MetricConvergence)
	one.Replications.Workers = 1
	many := timeSpec(MetricTimeseries, MetricConvergence)
	many.Replications.Workers = 4
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.TimeSeries, r2.TimeSeries) {
		t.Fatal("time series depends on worker count")
	}
	if !reflect.DeepEqual(r1.Convergence, r2.Convergence) {
		t.Fatal("convergence report depends on worker count")
	}
}

// TestTimeseriesCSV: the -timeseries CSV has the documented header and
// one row per (window, receiver).
func TestTimeseriesCSV(t *testing.T) {
	res, err := Run(timeSpec(MetricTimeseries))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteTimeseriesCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[0] != "time,window_start,session,receiver,rate_mean,level_mean,fair_rate,gap" {
		t.Fatalf("header %q", lines[0])
	}
	want := len(res.TimeSeries.Times)*4 + 1
	if len(lines) != want {
		t.Fatalf("%d rows, want %d", len(lines), want)
	}
	// No time series selected -> error.
	plain, err := Run(timeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteTimeseriesCSV(&b); err == nil {
		t.Fatal("CSV written without a time series")
	}
}

// TestProbeSpecValidation: malformed probe/convergence blocks and
// stage selections are rejected at validation time.
func TestProbeSpecValidation(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Probe = &ProbeSpec{} },
		func(s *Spec) { s.Probe = &ProbeSpec{Window: 2, PacketWindow: 5} },
		func(s *Spec) { s.Probe = &ProbeSpec{Window: -1} },
		func(s *Spec) { s.Probe = &ProbeSpec{PacketWindow: -2} },
		func(s *Spec) { s.Probe = &ProbeSpec{Window: 1, MaxSamples: -1} },
		func(s *Spec) { s.Probe = nil; s.Metrics = []string{MetricTimeseries} },
		func(s *Spec) { s.Probe = nil; s.Metrics = []string{MetricConvergence} },
		func(s *Spec) { s.Replications.N = 0; s.Packets = 0; s.Metrics = []string{MetricConvergence} },
		func(s *Spec) { s.Convergence = &ConvergenceSpec{Epsilon: 1.5} },
		func(s *Spec) { s.Convergence = &ConvergenceSpec{Epsilon: -0.1} },
	}
	for x, mutate := range cases {
		s := timeSpec(MetricTimeseries)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", x)
		}
	}
}

// TestConvergenceRejectsRingOverflow: a probe ring that dropped its
// oldest windows would silently erase the unfair transient, so the
// convergence stage must fail loudly; the timeseries stage still runs
// and surfaces the drop count.
func TestConvergenceRejectsRingOverflow(t *testing.T) {
	spec := timeSpec(MetricConvergence)
	spec.Probe.MaxSamples = 4
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("overflowed convergence run not rejected: %v", err)
	}
	tsOnly := timeSpec(MetricTimeseries)
	tsOnly.Probe.MaxSamples = 4
	res, err := Run(tsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeSeries.Dropped == 0 {
		t.Fatal("timeseries did not surface the ring overflow")
	}
}

// TestConvergenceSkipsZeroWidthWindows: packetWindow 1 on a
// multi-layer session produces several same-instant (zero-width)
// windows per tick; they define no rate and must not count as ε
// violations. On a lossless star the one positive-width window per
// tick carries exactly one packet at the base-layer rate, so with
// fair pinned to that rate the receiver converges as soon as joins
// settle — far before the run end.
func TestConvergenceSkipsZeroWidthWindows(t *testing.T) {
	cfg, err := netsim.Star(2, 0, 0,
		netsim.SessionConfig{Protocol: protocol.Deterministic, Layers: 4}, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = &netsim.ProbeConfig{PacketWindow: 1, MaxSamples: 1 << 14}
	res, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Probe
	zero := 0
	for s := 0; s < p.NumSamples(); s++ {
		if p.Times[s] <= p.Starts[s] {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("expected zero-width windows with packetWindow 1")
	}
	// Base layer (the first packet of each tick) fires at the finest
	// tick rate: layer M-1 of the 4-layer scheme runs at rate 4.
	eval := &convergenceEval{
		epochs: []maxmin.TimelineEpoch{{Time: 0, Rates: [][]float64{{4, 4}}}},
		eps:    0.5,
	}
	cs := eval.scalars(p)
	if cs.TimeToFair >= res.Duration/2 {
		t.Fatalf("time to fair %v censored toward run end %v — zero-width windows counted as violations",
			cs.TimeToFair, res.Duration)
	}
	if cs.FracTimeFair < 0.5 {
		t.Fatalf("fraction of time fair %v implausibly low", cs.FracTimeFair)
	}
}

// TestSweepConvergenceOutputs: convergence columns flow through the
// sweep scheduler into the store, and a probe-less base is rejected.
func TestSweepConvergenceOutputs(t *testing.T) {
	sw := &Sweep{
		Base: *timeSpec(),
		Axes: []Axis{{Field: "sessions.protocol", Values: []any{"Coordinated", "Deterministic"}}},
		Outputs: []string{
			"goodput", "time_to_fair", "frac_time_fair", "oscillation",
		},
	}
	res, err := RunSweepObserved(sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Sim.Points() {
		for _, m := range []string{"time_to_fair", "frac_time_fair", "oscillation"} {
			c, err := res.Sim.Cell(id, m)
			if err != nil {
				t.Fatal(err)
			}
			if c.N != sw.Base.Replications.N {
				t.Fatalf("point %d %s has %d observations, want %d", id, m, c.N, sw.Base.Replications.N)
			}
		}
		frac, err := res.Sim.Cell(id, "frac_time_fair")
		if err != nil {
			t.Fatal(err)
		}
		if frac.Mean < 0 || frac.Mean > 1 {
			t.Fatalf("point %d frac_time_fair %v outside [0,1]", id, frac.Mean)
		}
	}
	noProbe := *sw
	noProbe.Base.Probe = nil
	if err := noProbe.Validate(); err == nil {
		t.Fatal("probe-less convergence sweep accepted")
	}
	bad := *sw
	bad.Outputs = []string{"zigzag"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown output accepted")
	}
}
