// Package experiments contains one driver per figure and table of the
// paper's evaluation. Each driver regenerates its artifact as a text
// table (via the trace package) and returns the underlying data, so the
// same code backs `cmd/experiments`, the benchmark suite, and
// EXPERIMENTS.md.
//
// Absolute numbers from the protocol simulations depend on our
// reconstructed substrate (see DESIGN.md); the drivers exist to verify
// the paper's *shapes*: who wins, by what factor, and where the
// crossovers fall.
package experiments

import (
	"fmt"
	"io"

	"mlfair/internal/fairness"
	"mlfair/internal/layering"
	"mlfair/internal/markov"
	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/redundancy"
	"mlfair/internal/stats"
	"mlfair/internal/topology"
	"mlfair/internal/trace"
)

// allocReport prints a network's max-min fair allocation, session link
// rates on named links, and the four-property fairness report.
func allocReport(w io.Writer, title string, n *topology.Named, linkOrder []string) error {
	res, err := maxmin.Allocate(n.Network)
	if err != nil {
		return err
	}
	a := res.Alloc
	fmt.Fprintf(w, "## %s\n", title)
	fmt.Fprintf(w, "allocation: %s\n", a)

	t := trace.NewTable("", append([]string{"link", "capacity", "u_j", "full"},
		sessionHeaders(n.Network)...)...)
	for _, label := range linkOrder {
		j := n.LinkIndex(label)
		cells := []string{label, trace.Float(n.Network.Capacity(j)), trace.Float(a.LinkRate(j)),
			fmt.Sprintf("%v", a.FullyUtilized(j))}
		for i := 0; i < n.Network.NumSessions(); i++ {
			cells = append(cells, trace.Float(a.SessionLinkRate(i, j)))
		}
		t.AddRow(cells...)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	rep := fairness.Check(a)
	fmt.Fprintf(w, "properties: %s\n\n", rep.Summary())
	return nil
}

func sessionHeaders(net *netmodel.Network) []string {
	h := make([]string, net.NumSessions())
	for i := range h {
		h[i] = fmt.Sprintf("u_%d,j", i+1)
	}
	return h
}

// Figure1 regenerates the Figure 1 walk-through: the multi-rate max-min
// fair allocation and its link annotations, with all four properties
// holding.
func Figure1(w io.Writer) error {
	return allocReport(w, "Figure 1: sample multi-rate network", topology.Figure1(),
		[]string{"l1", "l2", "l3", "l4"})
}

// Figure2 regenerates the Section 2.3 comparison: the single-rate
// max-min fair allocation failing three properties, then the multi-rate
// replacement satisfying all four.
func Figure2(w io.Writer) error {
	if err := allocReport(w, "Figure 2: S1 single-rate (three properties fail)",
		topology.Figure2(netmodel.SingleRate), []string{"l1", "l2", "l3", "l4"}); err != nil {
		return err
	}
	return allocReport(w, "Figure 2': S1 replaced by an identical multi-rate session (Theorem 1)",
		topology.Figure2(netmodel.MultiRate), []string{"l1", "l2", "l3", "l4"})
}

// Figure3 regenerates the receiver-removal examples: rates before and
// after removing r3,2, shifting in opposite directions in (a) and (b).
func Figure3(w io.Writer) error {
	for _, c := range []struct {
		name string
		net  *topology.Named
	}{{"Figure 3(a): removal decreases r3,1, increases r1,1", topology.Figure3a()},
		{"Figure 3(b): removal increases r3,1, decreases r1,1", topology.Figure3b()}} {
		before, err := maxmin.Allocate(c.net.Network)
		if err != nil {
			return err
		}
		afterNet, err := c.net.Network.RemoveReceiver(netmodel.ReceiverID{Session: 2, Receiver: 1})
		if err != nil {
			return err
		}
		after, err := maxmin.Allocate(afterNet)
		if err != nil {
			return err
		}
		t := trace.NewTable(c.name, "receiver", "before", "after")
		t.AddRow("r1,1", trace.Float(before.Alloc.Rate(0, 0)), trace.Float(after.Alloc.Rate(0, 0)))
		t.AddRow("r2,1", trace.Float(before.Alloc.Rate(1, 0)), trace.Float(after.Alloc.Rate(1, 0)))
		t.AddRow("r3,1", trace.Float(before.Alloc.Rate(2, 0)), trace.Float(after.Alloc.Rate(2, 0)))
		t.AddRow("r3,2", trace.Float(before.Alloc.Rate(2, 1)), "-")
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure4 regenerates the redundancy example: a multi-rate session with
// redundancy 2 on the shared link breaks the session-perspective
// properties.
func Figure4(w io.Writer) error {
	n := topology.Figure4(2)
	if err := allocReport(w, "Figure 4: redundancy 2 on the shared link l4",
		n, []string{"l4", "l1", "l2", "l3"}); err != nil {
		return err
	}
	res, err := maxmin.Allocate(n.Network)
	if err != nil {
		return err
	}
	r, _ := redundancy.OfAllocation(res.Alloc, 0, n.LinkIndex("l4"))
	fmt.Fprintf(w, "measured Definition-3 redundancy of S1 on l4: %s\n\n", trace.Float(r))
	return nil
}

// Section3Example regenerates the fixed-layer nonexistence example: the
// seven feasible allocations and the absence of a max-min fair one.
func Section3Example(w io.Writer) error {
	const c = 6.0
	net := topology.SingleLink(c).Network
	schemes := []layering.Scheme{layering.Uniform(3, c/3), layering.Uniform(2, c/2)}
	feasible, err := layering.FixedLayerAllocations(net, schemes)
	if err != nil {
		return err
	}
	t := trace.NewTable(
		"Section 3 example: fixed layers (c/3 ×3 vs c/2 ×2) on one link of capacity c=6",
		"a1", "a2", "max-min fair?")
	for _, a := range feasible {
		t.AddRow(trace.Float(a.Rate(0, 0)), trace.Float(a.Rate(1, 0)),
			fmt.Sprintf("%v", layering.IsMaxMinOver(a, feasible)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	_, exists, err := layering.FindMaxMinFixed(net, schemes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "max-min fair allocation exists: %v (paper: none exists)\n\n", exists)
	return nil
}

// Figure5 regenerates the single-layer random-join redundancy curves:
// redundancy versus the number of receivers sharing the link, for the
// paper's five rate configurations (layer rate Λ = 1).
func Figure5(w io.Writer) error {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	configs := []struct {
		name  string
		rates func(n int) []float64
	}{
		{"All 0.1", uniformRates(0.1)},
		{"All 0.5", uniformRates(0.5)},
		{"1st .5 rest .1", firstRest(0.5, 0.1)},
		{"All 0.9", uniformRates(0.9)},
		{"1st .9 rest .1", firstRest(0.9, 0.1)},
	}
	series := make([]trace.Series, len(configs))
	for ci, cfg := range configs {
		ys := make([]float64, len(xs))
		for xi, x := range xs {
			ys[xi] = redundancy.SingleLayer(cfg.rates(int(x)), 1)
		}
		series[ci] = trace.Series{Name: cfg.name, Y: ys}
	}
	return trace.WriteSeries(w, "Figure 5: redundancy of a single layer with random joins",
		"receivers", xs, series)
}

func uniformRates(z float64) func(int) []float64 {
	return func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = z
		}
		return v
	}
}

func firstRest(first, rest float64) func(int) []float64 {
	return func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rest
		}
		v[0] = first
		return v
	}
}

// Figure6 regenerates the normalized constrained fair rate versus
// redundancy v, for the paper's multi-rate session fractions m/n.
func Figure6(w io.Writer) error {
	var xs []float64
	for v := 1.0; v <= 10.0001; v += 0.5 {
		xs = append(xs, v)
	}
	betas := []float64{0.01, 0.05, 0.1, 1}
	series := make([]trace.Series, len(betas))
	for bi, beta := range betas {
		ys := make([]float64, len(xs))
		for xi, v := range xs {
			ys[xi] = redundancy.NormalizedFairRate(beta, v)
		}
		series[bi] = trace.Series{Name: fmt.Sprintf("m/n=%g", beta), Y: ys}
	}
	return trace.WriteSeries(w, "Figure 6: impact of redundancy on fair rates (normalized by c/n)",
		"redundancy", xs, series)
}

// Figure8Options sizes the protocol simulation sweep. The paper's
// configuration is 8 layers, 100 receivers, 100,000 packets and 30
// trials per point; Quick shrinks it for fast regression runs.
type Figure8Options struct {
	Receivers int
	Packets   int
	Trials    int
	Seed      uint64
}

// PaperFigure8Options returns the full-fidelity configuration.
func PaperFigure8Options() Figure8Options {
	return Figure8Options{Receivers: 100, Packets: 100000, Trials: 30, Seed: 1999}
}

// QuickFigure8Options returns a reduced configuration for smoke runs.
func QuickFigure8Options() Figure8Options {
	return Figure8Options{Receivers: 40, Packets: 20000, Trials: 5, Seed: 1999}
}

// Figure8Point runs one sweep point and returns the mean redundancy and
// its 95% confidence half-width.
func Figure8Point(kind protocol.Kind, sharedLoss, indLoss float64, o Figure8Options) (stats.Summary, error) {
	cfg, err := netsim.Star(o.Receivers, sharedLoss, indLoss,
		netsim.SessionConfig{Protocol: kind, Layers: 8}, o.Packets, o.Seed)
	if err != nil {
		return stats.Summary{}, err
	}
	reds, err := starRedundancies(cfg, o.Trials)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(reds), nil
}

// starRedundancies runs a netsim.Star config trials times, at seeds
// cfg.Seed, cfg.Seed+1, ..., and returns each run's Definition 3
// redundancy on the shared link.
func starRedundancies(cfg netsim.Config, trials int) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials = %d", trials)
	}
	reds := make([]float64, trials)
	base := cfg.Seed
	for i := range reds {
		cfg.Seed = base + uint64(i)
		r, err := netsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		reds[i] = r.LinkRedundancy(0, 0)
	}
	return reds, nil
}

// Figure8 regenerates one panel of Figure 8: session redundancy on the
// shared link versus independent (fanout) loss, for the three protocols,
// at the given shared-link loss rate (the paper plots 0.0001 and 0.05).
func Figure8(w io.Writer, sharedLoss float64, o Figure8Options) error {
	xs := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1}
	kinds := protocol.Kinds()
	series := make([]trace.Series, len(kinds))
	for ki, k := range kinds {
		ys := make([]float64, len(xs))
		for xi, x := range xs {
			s, err := Figure8Point(k, sharedLoss, x, o)
			if err != nil {
				return err
			}
			ys[xi] = s.Mean
		}
		series[ki] = trace.Series{Name: k.String(), Y: ys}
	}
	title := fmt.Sprintf("Figure 8 (shared loss %g): redundancy vs independent loss — %d receivers, 8 layers, %d packets × %d trials",
		sharedLoss, o.Receivers, o.Packets, o.Trials)
	return trace.WriteSeries(w, title, "ind. loss", xs, series)
}

// MarkovAnalysis regenerates the Section 4 analytical finding on the
// two-receiver star (Figure 7a): sweeping the split of a fixed
// independent-loss budget between the receivers, redundancy peaks when
// the receivers' loss rates are equal.
func MarkovAnalysis(w io.Writer) error {
	const budget = 0.1
	splits := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	kinds := protocol.Kinds()
	series := make([]trace.Series, len(kinds))
	for ki, k := range kinds {
		layers := 4
		if k == protocol.Deterministic {
			layers = 3
		}
		ys := make([]float64, len(splits))
		for si, s := range splits {
			m, err := markov.BuildStar(k, markov.StarParams{
				Layers: layers, SharedLoss: 0.001,
				Loss1: budget * s, Loss2: budget * (1 - s),
			})
			if err != nil {
				return err
			}
			ms, err := m.Solve()
			if err != nil {
				return err
			}
			ys[si] = ms.Redundancy
		}
		series[ki] = trace.Series{Name: k.String(), Y: ys}
	}
	return trace.WriteSeries(w,
		"Markov analysis (Fig 7a): redundancy vs split of a 0.1 loss budget (0.5 = equal loss)",
		"share at r1", splits, series)
}

// RunAll regenerates every artifact. quick selects the reduced Figure 8
// configuration.
func RunAll(w io.Writer, quick bool) error {
	steps := []func(io.Writer) error{
		Figure1, Figure2, Figure3, Figure4, Section3Example, Figure5, Figure6, MarkovAnalysis,
	}
	for _, f := range steps {
		if err := f(w); err != nil {
			return err
		}
	}
	o := PaperFigure8Options()
	if quick {
		o = QuickFigure8Options()
	}
	for _, shared := range []float64{0.0001, 0.05} {
		if err := Figure8(w, shared, o); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
