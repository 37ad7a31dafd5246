package experiments

import (
	"fmt"
	"io"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
	"mlfair/internal/trace"
)

// The drivers in this file cover the paper's Section 5 ("related / future
// work") directions that this library implements beyond the published
// evaluation: leave latency, priority dropping, and weighted (TCP-style)
// max-min fairness. `experiments -fig ext` runs them; they are not
// figures of the paper.

// ExtensionOptions sizes the extension simulations.
type ExtensionOptions struct {
	Receivers int
	Packets   int
	Trials    int
	Seed      uint64
}

// DefaultExtensionOptions returns a configuration that resolves the
// effects clearly in a few seconds.
func DefaultExtensionOptions() ExtensionOptions {
	return ExtensionOptions{Receivers: 50, Packets: 50000, Trials: 8, Seed: 555}
}

// LeaveLatency sweeps IGMP-style leave-processing latency and reports
// its inflation of shared-link redundancy, quantifying the paper's
// prediction that "long leave latencies will also increase redundancy".
func LeaveLatency(w io.Writer, o ExtensionOptions) error {
	latencies := []float64{0, 0.5, 1, 2, 4, 8, 16}
	kinds := protocol.Kinds()
	series := make([]trace.Series, len(kinds))
	for ki, k := range kinds {
		ys := make([]float64, len(latencies))
		cfg, err := netsim.Star(o.Receivers, 0.0001, 0.04,
			netsim.SessionConfig{Protocol: k, Layers: 8}, o.Packets, o.Seed)
		if err != nil {
			return err
		}
		for li, lat := range latencies {
			cfg.LeaveLatency = lat
			reds, err := starRedundancies(cfg, o.Trials)
			if err != nil {
				return err
			}
			ys[li] = stats.Mean(reds)
		}
		series[ki] = trace.Series{Name: k.String(), Y: ys}
	}
	return trace.WriteSeries(w,
		fmt.Sprintf("Extension: redundancy vs leave latency (ind. loss 0.04, %d receivers)", o.Receivers),
		"latency", latencies, series)
}

// PriorityDrop compares uniform and priority dropping at equal mean loss
// rates, answering the paper's open question of whether priority
// dropping "might aid in reducing redundancy by increasing coordination
// among receivers".
func PriorityDrop(w io.Writer, o ExtensionOptions) error {
	losses := []float64{0.02, 0.04, 0.08}
	t := trace.NewTable(
		fmt.Sprintf("Extension: uniform vs priority dropping (%d receivers, shared loss 0.0001)", o.Receivers),
		"ind. loss", "protocol", "uniform", "priority", "change")
	for _, loss := range losses {
		for _, k := range protocol.Kinds() {
			point := func(priority bool) (float64, error) {
				cfg, err := netsim.Star(o.Receivers, 0.0001, loss,
					netsim.SessionConfig{Protocol: k, Layers: 8}, o.Packets, o.Seed)
				if err != nil {
					return 0, err
				}
				if priority {
					netsim.PriorityDrop(cfg.Links, 8)
				}
				reds, err := starRedundancies(cfg, o.Trials)
				if err != nil {
					return 0, err
				}
				return stats.Mean(reds), nil
			}
			uni, err := point(false)
			if err != nil {
				return err
			}
			pri, err := point(true)
			if err != nil {
				return err
			}
			t.AddRow(trace.Float(loss), k.String(), trace.Float(uni), trace.Float(pri),
				fmt.Sprintf("%+.0f%%", (pri/uni-1)*100))
		}
	}
	_, err := t.WriteTo(w)
	return err
}

// WeightedFairness demonstrates the Section 5 TCP-fairness extension:
// three same-path sessions weighted by inverse RTT split a bottleneck in
// proportion to their weights, and a multicast session's usage follows
// its fastest weighted receiver, whose layers the slower-weighted one
// receives at no further cost to the bottleneck.
func WeightedFairness(w io.Writer) error {
	b := netmodel.NewBuilder()
	bottleneck := b.AddLink(12)
	tail := b.AddLink(100)
	// Three unicast "TCP-like" sessions with RTTs 200ms, 100ms, 66ms.
	rtts := []float64{0.2, 0.1, 1.0 / 15}
	for range rtts {
		s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
		b.SetPath(s, 0, bottleneck)
	}
	// One multicast session with a near and a far receiver.
	m := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(m, 0, bottleneck)
	b.SetPath(m, 1, bottleneck, tail)
	net, err := b.Build()
	if err != nil {
		return err
	}
	weights := maxmin.Weights{{1 / rtts[0]}, {1 / rtts[1]}, {1 / rtts[2]}, {10, 5}}
	res, err := maxmin.AllocateWeighted(net, weights)
	if err != nil {
		return err
	}
	t := trace.NewTable("Extension: weighted (TCP-style) max-min fairness on a 12-unit bottleneck",
		"receiver", "weight (1/RTT)", "rate", "rate/weight")
	for _, id := range net.ReceiverIDs() {
		wgt := weights[id.Session][id.Receiver]
		rate := res.Alloc.RateOf(id)
		t.AddRow(id.String(), trace.Float(wgt), trace.Float(rate), trace.Float(rate/wgt))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "equal rate/weight across receivers the bottleneck stops = weighted max-min fair;")
	fmt.Fprintln(w, "r4,2 rides r4,1's layers across it, which costs the bottleneck nothing more")
	fmt.Fprintln(w)
	return nil
}
