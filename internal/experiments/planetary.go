package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
	"mlfair/internal/topology"
)

// planetaryOptions derives the planetary topology sizing from the
// requested receiver count: the region/core/receivers-per-PoP shape is
// fixed at the 1M preset's and only the PoP count scales, so
// -receivers 1048576 reproduces topology.PlanetaryOptions1M exactly and
// -receivers 10485760 reproduces PlanetaryOptions10M.
func planetaryOptions(receivers int) topology.PlanetaryOptions {
	o := topology.PlanetaryOptions1M()
	pops := receivers / (o.Regions * o.ReceiversPerPoP)
	if pops < 1 {
		pops = 1
	}
	o.PoPs = pops
	return o
}

// NetsimPlanetary is the planetary-scale single-run scenario (ROADMAP
// item 2 at intra-run scale): one run over Regions link-disjoint
// regional backbones — capacity-coupled preferential-attachment cores
// with PoP fan-out and up to 10^7 receivers — executed with
// session-sharded event loops (Config.Shards) and a memory plan logged
// up front. Because regions share no link, every region is its own
// shard group; the Result is invariant in the shard count, so the
// summary CSV is deterministic in (receivers, packets, trials, seed)
// regardless of the host's core count.
func NetsimPlanetary(w io.Writer, o NetsimOptions) error {
	if err := o.Validate(); err != nil {
		return err
	}
	po := planetaryOptions(o.Receivers)
	rng := rand.New(rand.NewPCG(o.Seed, o.Seed^0x9e3779b97f4a7c15))
	net, firstAccess, err := topology.Planetary(rng, po)
	if err != nil {
		return err
	}
	// Core links ride the capacity model (they are where sessions would
	// couple if regions shared links); access links are perfect — the
	// 64 receivers behind each PoP already share fate on the core path.
	links := make([]netsim.LinkSpec, net.NumLinks())
	for j := 0; j < firstAccess; j++ {
		links[j] = netsim.LinkSpec{Kind: netsim.Capacity}
	}
	kinds := protocol.Kinds()
	sess := make([]netsim.SessionConfig, net.NumSessions())
	for i := range sess {
		sess[i] = netsim.SessionConfig{Protocol: kinds[i%len(kinds)], Layers: 8}
	}
	cfg := o.engineConfig(netsim.Config{
		Network:  net,
		Links:    links,
		Sessions: sess,
		Packets:  o.Packets,
		Seed:     o.Seed,
		Shards:   runtime.NumCPU(),
		// The access links are the cut frontier the committed goldens
		// were recorded under: each PoP is a subtree walked on its own
		// RNG stream. Results stay invariant in the shard count, so
		// the golden output is machine-independent.
		CutLinks: topology.PlanetaryCutFrontier(firstAccess, net.NumLinks()),
	})
	plan, err := netsim.PlanMemory(cfg)
	if err != nil {
		return err
	}
	if o.Observe != nil {
		o.Observe.Manifest.SetDecomposition(plan.Groups, plan.Subtrees, plan.CutFrontier)
	}
	fmt.Fprintf(w, "netsim planetary: %d regions x %d PoPs x %d receivers = %d receivers, %d links, %d packets, %d trials\n",
		po.Regions, po.PoPs, po.ReceiversPerPoP, po.NumReceivers(), net.NumLinks(), o.Packets, o.Trials)
	fmt.Fprintf(w, "%s\n", plan)
	accMean := make([]stats.Accumulator, po.Regions)
	accBest := make([]stats.Accumulator, po.Regions)
	err = netsim.StreamReplications(cfg, o.Trials, o.Workers, func(_ int, r *netsim.Result) error {
		for i := 0; i < po.Regions; i++ {
			sum, best := 0.0, 0.0
			for _, v := range r.ReceiverRates[i] {
				sum += v
				if v > best {
					best = v
				}
			}
			accMean[i].Add(sum / float64(len(r.ReceiverRates[i])))
			accBest[i].Add(best)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "region,protocol,receivers,mean_rate,ci95,best_rate")
	for i := 0; i < po.Regions; i++ {
		fmt.Fprintf(w, "%d,%s,%d,%.6f,%.6f,%.6f\n",
			i, kinds[i%len(kinds)], po.PoPs*po.ReceiversPerPoP,
			accMean[i].Mean(), accMean[i].CI95(), accBest[i].Mean())
	}
	return nil
}
