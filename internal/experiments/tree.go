package experiments

import (
	"fmt"
	"io"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/scenario"
	"mlfair/internal/stats"
	"mlfair/internal/trace"
)

// TreeRedundancy measures Definition 3 on every level of a binary
// distribution tree: per-link redundancy versus depth, for the three
// protocols. Links near the root serve more receivers and accumulate
// more uncoordination — the protocol-dynamics analogue of Figure 5's
// receiver-count effect, and the generalization of Figure 8 from the
// star's single shared link to a whole tree.
func TreeRedundancy(w io.Writer, o ExtensionOptions) error {
	const depth = 4
	const linkLoss = 0.02
	kinds := protocol.Kinds()
	series := make([]trace.Series, len(kinds))
	xs := make([]float64, depth)
	for d := 0; d < depth; d++ {
		xs[d] = float64(d + 1)
	}
	for ki, k := range kinds {
		c, err := scenario.Compile(binaryTreeSpec(depth, linkLoss, k, o.Packets*2))
		if err != nil {
			return err
		}
		byDepth := make([]stats.Accumulator, depth+1)
		for trial := 0; trial < o.Trials; trial++ {
			cfg := c.Cfg
			cfg.Seed = o.Seed + uint64(trial)
			res, err := netsim.Run(cfg)
			if err != nil {
				return err
			}
			for _, ls := range res.Links {
				byDepth[binaryTreeDepth(ls.Link)].Add(ls.Redundancy)
			}
		}
		ys := make([]float64, depth)
		for d := 1; d <= depth; d++ {
			ys[d-1] = byDepth[d].Mean()
		}
		series[ki] = trace.Series{Name: k.String(), Y: ys}
	}
	if err := trace.WriteSeries(w,
		fmt.Sprintf("Extension: per-link redundancy vs tree depth (binary tree, depth %d, link loss %g)",
			depth, linkLoss),
		"depth", xs, series); err != nil {
		return err
	}
	fmt.Fprintln(w, "depth 1 = root link (16 downstream receivers), depth 4 = leaf links (1)")
	fmt.Fprintln(w)
	return nil
}

// binaryTreeSpec is the loss tree of TreeRedundancy and NetsimTree: a
// complete binary tree of the given depth, receivers at the leaves, one
// session of the given protocol over 8 layers, and Bernoulli loss on
// every link.
func binaryTreeSpec(depth int, linkLoss float64, k protocol.Kind, packets int) *scenario.Spec {
	return &scenario.Spec{
		Topology:    scenario.TopologySpec{Kind: "binarytree", Depth: depth},
		Sessions:    []scenario.SessionSpec{{Protocol: k.String(), Layers: 8}},
		DefaultLink: &scenario.LinkSpec{Kind: "bernoulli", Loss: linkLoss},
		Packets:     packets,
	}
}

// binaryTreeDepth is the depth of the node a binarytree link leads
// into: link i enters node i+1, and node n's parent is (n-1)/2.
func binaryTreeDepth(link int) int {
	d := 0
	for nd := link + 1; nd != 0; nd = (nd - 1) / 2 {
		d++
	}
	return d
}
