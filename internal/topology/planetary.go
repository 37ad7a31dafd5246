package topology

import (
	"fmt"
	"math/rand/v2"

	"mlfair/internal/netmodel"
)

// PlanetaryOptions parameterizes Planetary: the intra-run-scale
// workload of a planet-wide CDN-style deployment —
// several link-disjoint regional backbones, each a scale-free core tree
// with point-of-presence (PoP) fan-out, and a large fixed receiver
// population parked at every PoP. Receiver counts reach 10^7 while
// links and sessions stay in the 10^4-10^5 range, which is exactly the
// regime the engine's memory plan is written for.
type PlanetaryOptions struct {
	// Regions is the number of link-disjoint regional backbones (>= 1).
	// Each region carries one session rooted at its core; because
	// regions share no link, they are independent shard groups for
	// netsim's session-sharded execution.
	Regions int
	// CoreNodes is each region's backbone size (>= 2). The core grows as
	// a Barabási–Albert preferential-attachment tree, so hub routers
	// with power-law degrees emerge naturally (the Sreenivasan et al.
	// bottleneck regime) and every sender-to-PoP path is unique.
	CoreNodes int
	// PoPs is the number of access points per region (>= 1); each
	// attaches to a core router chosen preferentially by current degree,
	// concentrating access fan-in on the hubs.
	PoPs int
	// ReceiversPerPoP is the receiver population parked at each PoP
	// (>= 1). Receivers at one PoP share its access link and data-path
	// (the paths alias one slice), so per-receiver cost stays flat.
	ReceiversPerPoP int
	// CoreCap and AccessCap are the core and access link capacities
	// (> 0), in packets per time unit.
	CoreCap, AccessCap float64
}

// PlanetaryOptions1M is the 1,048,576-receiver preset: 8 regions x
// 2048 PoPs x 64 receivers on 128-router cores.
func PlanetaryOptions1M() PlanetaryOptions {
	return PlanetaryOptions{
		Regions: 8, CoreNodes: 128, PoPs: 2048, ReceiversPerPoP: 64,
		CoreCap: 4096, AccessCap: 64,
	}
}

// PlanetaryOptions10M is the 10,485,760-receiver preset: 8 regions x
// 20480 PoPs x 64 receivers on 128-router cores.
func PlanetaryOptions10M() PlanetaryOptions {
	return PlanetaryOptions{
		Regions: 8, CoreNodes: 128, PoPs: 20480, ReceiversPerPoP: 64,
		CoreCap: 4096, AccessCap: 64,
	}
}

func (o PlanetaryOptions) validate() error {
	if o.Regions < 1 {
		return fmt.Errorf("topology: planetary needs >= 1 region, have %d", o.Regions)
	}
	if o.CoreNodes < 2 {
		return fmt.Errorf("topology: planetary core needs >= 2 nodes, have %d", o.CoreNodes)
	}
	if o.PoPs < 1 || o.ReceiversPerPoP < 1 {
		return fmt.Errorf("topology: planetary needs PoPs and receivers")
	}
	if !(o.CoreCap > 0) || !(o.AccessCap > 0) {
		return fmt.Errorf("topology: planetary capacities must be positive")
	}
	return nil
}

// NumReceivers returns the total receiver count the options produce.
func (o PlanetaryOptions) NumReceivers() int {
	return o.Regions * o.PoPs * o.ReceiversPerPoP
}

// PlanetaryCutFrontier returns the access links — [firstAccess,
// numLinks) in Planetary's layered link order — as an explicit subtree
// cut frontier for netsim.Config.CutLinks. Cutting every access link
// partitions each region's tree into its per-PoP receiver subtrees
// below the thin scale-free core, each walked on its own RNG stream;
// the committed planetary goldens are recorded under this frontier.
func PlanetaryCutFrontier(firstAccess, numLinks int) []int {
	cut := make([]int, 0, numLinks-firstAccess)
	for j := firstAccess; j < numLinks; j++ {
		cut = append(cut, j)
	}
	return cut
}

// Planetary builds the planetary-scale network: per region, a
// preferential-attachment core tree rooted at the region's first
// router, PoPs attached to degree-preferential core routers, and
// ReceiversPerPoP receivers hosted at every PoP, all served by one
// session per region sent from the core root. Paths are constructed
// directly from the trees (no routing pass), and all receivers of a PoP
// alias one path slice, so generation is linear in PoPs, not receivers.
//
// Link order is layered: every core link of every region first, then
// every access link. The returned firstAccess is the boundary — links
// j < firstAccess are core, the rest access — so callers can give the
// two classes different netsim.LinkSpec models without touching
// per-link state. Determinism follows the rng seed.
func Planetary(rng *rand.Rand, o PlanetaryOptions) (*netmodel.Network, int, error) {
	if err := o.validate(); err != nil {
		return nil, 0, err
	}
	nodesPerRegion := o.CoreNodes + o.PoPs
	g := netmodel.NewGraph(o.Regions * nodesPerRegion)
	// Pass 1: all core links, region by region. endpoints repeats each
	// core router once per incident link, so uniform sampling is
	// degree-preferential attachment; corePath[r][c] is the link path
	// from the region root to core router c.
	endpoints := make([][]int, o.Regions)
	corePath := make([][][]int, o.Regions)
	for r := 0; r < o.Regions; r++ {
		base := r * nodesPerRegion
		endpoints[r] = append(make([]int, 0, o.CoreNodes+o.PoPs), 0)
		corePath[r] = make([][]int, o.CoreNodes)
		corePath[r][0] = []int{}
		for c := 1; c < o.CoreNodes; c++ {
			tgt := endpoints[r][rng.IntN(len(endpoints[r]))]
			j := g.AddLink(base+c, base+tgt, o.CoreCap)
			endpoints[r] = append(endpoints[r], c, tgt)
			corePath[r][c] = append(append(make([]int, 0, len(corePath[r][tgt])+1), corePath[r][tgt]...), j)
		}
	}
	firstAccess := g.NumLinks()
	// Pass 2: access links and sessions. Each PoP's access attachment
	// also feeds the endpoints list (core side only), so later PoPs
	// preferentially pile onto already-popular hubs.
	sessions := make([]*netmodel.Session, o.Regions)
	paths := make([][][]int, o.Regions)
	for r := 0; r < o.Regions; r++ {
		base := r * nodesPerRegion
		nR := o.PoPs * o.ReceiversPerPoP
		receivers := make([]int, nR)
		rpaths := make([][]int, nR)
		for pp := 0; pp < o.PoPs; pp++ {
			tgt := endpoints[r][rng.IntN(len(endpoints[r]))]
			pop := base + o.CoreNodes + pp
			j := g.AddLink(pop, base+tgt, o.AccessCap)
			endpoints[r] = append(endpoints[r], tgt)
			popPath := append(append(make([]int, 0, len(corePath[r][tgt])+1), corePath[r][tgt]...), j)
			for x := 0; x < o.ReceiversPerPoP; x++ {
				k := pp*o.ReceiversPerPoP + x
				receivers[k] = pop
				rpaths[k] = popPath
			}
		}
		sessions[r] = &netmodel.Session{
			Sender: base, Receivers: receivers,
			Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap,
		}
		paths[r] = rpaths
	}
	net, err := netmodel.NewNetwork(g, sessions, paths)
	if err != nil {
		return nil, 0, err
	}
	return net, firstAccess, nil
}
