package experiments

import (
	"fmt"
	"io"

	"mlfair/internal/maxmin"
	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/trace"
)

// Convergence closes the loop between the paper's theory (Section 2) and
// protocols (Section 4): on a capacity-constrained star where loss
// emerges from congestion rather than being configured, it compares each
// receiver's achieved long-term average rate against the fluid
// multi-rate max-min fair allocation of the same topology. The paper
// argues the protocols come "close" to the max-min fair rates; the table
// quantifies how close, per protocol.
func Convergence(w io.Writer, o ExtensionOptions) error {
	const shared = 24
	fanout := [][]float64{{2, 8, 64}, {64}}
	achieved := map[protocol.Kind]*netsim.Result{}
	var fair *maxmin.Result
	for _, k := range protocol.Kinds() {
		cfg, err := netsim.CapacityStar(shared, fanout,
			netsim.SessionConfig{Protocol: k, Layers: 8}, o.Packets*8, o.Seed)
		if err != nil {
			return err
		}
		if fair == nil {
			if fair, err = maxmin.Allocate(cfg.Network); err != nil {
				return err
			}
		}
		if achieved[k], err = netsim.Run(cfg); err != nil {
			return err
		}
	}

	t := trace.NewTable(
		fmt.Sprintf("Convergence to max-min fairness under closed-loop congestion (shared capacity %g)", float64(shared)),
		"receiver", "fair rate", "Coordinated", "Uncoordinated", "Deterministic")
	for si := range fanout {
		for k := range fanout[si] {
			want := fair.Alloc.Rate(si, k)
			row := []string{fmt.Sprintf("r%d,%d", si+1, k+1), trace.Float(want)}
			for _, kind := range protocol.Kinds() {
				got := achieved[kind].ReceiverRates[si][k]
				row = append(row, fmt.Sprintf("%s (%.0f%%)", trace.Float(got), got/want*100))
			}
			t.AddRow(row...)
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "percentages are achieved/fair; layered sawtooth dynamics keep")
	fmt.Fprintln(w, "protocols below but tracking their max-min fair rates")
	fmt.Fprintln(w)
	return nil
}
