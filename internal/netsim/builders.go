package netsim

import (
	"fmt"

	"mlfair/internal/layering"
	"mlfair/internal/netmodel"
	"mlfair/internal/routing"
)

// Star builds the paper's Figure 7(b) modified star as a netsim Config:
// a sender behind one shared Bernoulli link feeding n receivers through
// independent Bernoulli fanout links — the Section 4 topology of
// Figure 8 and of the Section 5 leave-latency and priority-drop
// extensions. The shared link is link 0; fanout link k is link k+1, so
// heterogeneous receivers are a matter of setting Links[1+k].Loss, and
// the session's shared-link redundancy is Result.LinkRedundancy(0, 0).
func Star(n int, sharedLoss, fanoutLoss float64, sc SessionConfig, packets int, seed uint64) (Config, error) {
	if n < 1 {
		return Config{}, fmt.Errorf("netsim: star needs at least one receiver")
	}
	g := netmodel.NewGraph(2 + n)
	const sender, hub = 0, 1
	g.AddLink(sender, hub, 1)
	receivers := make([]int, n)
	for k := 0; k < n; k++ {
		g.AddLink(hub, 2+k, 1)
		receivers[k] = 2 + k
	}
	s := &netmodel.Session{Sender: sender, Receivers: receivers, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	net, err := routing.BuildNetwork(g, []*netmodel.Session{s})
	if err != nil {
		return Config{}, err
	}
	specs := make([]LinkSpec, net.NumLinks())
	specs[0] = LinkSpec{Kind: Bernoulli, Loss: sharedLoss}
	for k := 0; k < n; k++ {
		specs[1+k] = LinkSpec{Kind: Bernoulli, Loss: fanoutLoss}
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{sc},
		Packets:  packets,
		Seed:     seed,
	}, nil
}

// CapacityStar builds the closed-loop modified star, where loss emerges
// from link capacities instead of being configured: every session's
// sender sits behind one shared link of capacity shared, and receiver k
// of session i behind its own fanout link of capacity fanout[i][k].
// Every link runs the Capacity (fluid droptail-limit) law, and every
// session runs sc. The shared link is link 0; the fanout links follow
// in session-major order. The same Network is the max-min benchmark:
// maxmin.Allocate(cfg.Network) gives the fluid fair rates the
// protocols are measured against.
func CapacityStar(shared float64, fanout [][]float64, sc SessionConfig, packets int, seed uint64) (Config, error) {
	if !(shared > 0) {
		return Config{}, fmt.Errorf("netsim: capacity star shared capacity %v", shared)
	}
	if len(fanout) == 0 {
		return Config{}, fmt.Errorf("netsim: capacity star needs at least one session")
	}
	nr := 0
	for i, caps := range fanout {
		if len(caps) == 0 {
			return Config{}, fmt.Errorf("netsim: capacity star session %d has no receivers", i)
		}
		for k, c := range caps {
			if !(c > 0) {
				return Config{}, fmt.Errorf("netsim: capacity star session %d receiver %d capacity %v", i, k, c)
			}
		}
		nr += len(caps)
	}
	g := netmodel.NewGraph(2 + nr)
	const sender, hub = 0, 1
	g.AddLink(sender, hub, shared)
	sessions := make([]*netmodel.Session, len(fanout))
	sessCfgs := make([]SessionConfig, len(fanout))
	node := 2
	for i, caps := range fanout {
		receivers := make([]int, len(caps))
		for k, c := range caps {
			g.AddLink(hub, node, c)
			receivers[k] = node
			node++
		}
		sessions[i] = &netmodel.Session{Sender: sender, Receivers: receivers, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
		sessCfgs[i] = sc
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Network:  net,
		Links:    CapacityLinks(net.NumLinks()),
		Sessions: sessCfgs,
		Packets:  packets,
		Seed:     seed,
	}, nil
}

// PriorityDrop switches every Bernoulli link in links from uniform to
// priority dropping (Bajaj, Breslau and Shenker, "Uniform versus
// Priority Dropping for Layered Video", which the paper cites when
// asking whether priority dropping might reduce redundancy by
// increasing receiver coordination): a layer-l packet is lost with
// probability Loss·(l+1)/E[layer+1], capped at 0.999, where the
// expectation weighs each of the layers by its traffic share in the
// exponential scheme. The traffic-weighted mean loss stays Loss, and
// base-layer packets are the safest, so receivers near the same level
// see losses on the same layers. layers < 1 leaves links unchanged
// (Run rejects such a session anyway).
func PriorityDrop(links []LinkSpec, layers int) {
	if layers < 1 {
		return
	}
	scheme := layering.Exponential(layers)
	num, den := 0.0, 0.0
	for x := 0; x < layers; x++ {
		num += float64(x+1) * scheme.LayerRate(x)
		den += scheme.LayerRate(x)
	}
	mean := num / den
	for j := range links {
		if links[j].Kind != Bernoulli {
			continue
		}
		table := make([]float64, layers)
		for l := range table {
			table[l] = min(links[j].Loss*(float64(l+1)/mean), 0.999)
		}
		links[j].LayerLoss = table
	}
}

// Mesh builds a multi-session "dumbbell mesh": ns sessions, each with
// its own sender and nr receivers, all crossing one shared backbone link
// of the given spec, with lossless sender access links and Bernoulli
// receiver access links of loss accessLoss:
//
//	sender_i --perfect-- left ==backbone== right --bernoulli-- r_{i,k}
//
// It returns the config and the backbone's link index (ns, after the ns
// sender access links).
func Mesh(ns, nr int, backbone LinkSpec, accessLoss float64, sc SessionConfig, packets int, seed uint64) (Config, int, error) {
	if ns < 1 || nr < 1 {
		return Config{}, 0, fmt.Errorf("netsim: mesh needs sessions and receivers")
	}
	// Nodes: senders 0..ns-1, left = ns, right = ns+1, receivers after.
	g := netmodel.NewGraph(ns + 2 + ns*nr)
	left, right := ns, ns+1
	for i := 0; i < ns; i++ {
		g.AddLink(i, left, 1)
	}
	bb := g.AddLink(left, right, backbone.effCapacity(1))
	sessions := make([]*netmodel.Session, ns)
	node := ns + 2
	for i := 0; i < ns; i++ {
		receivers := make([]int, nr)
		for k := 0; k < nr; k++ {
			g.AddLink(right, node, 1)
			receivers[k] = node
			node++
		}
		sessions[i] = &netmodel.Session{Sender: i, Receivers: receivers, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
	}
	net, err := routing.BuildNetwork(g, sessions)
	if err != nil {
		return Config{}, 0, err
	}
	specs := make([]LinkSpec, net.NumLinks())
	specs[bb] = backbone
	for j := bb + 1; j < net.NumLinks(); j++ {
		specs[j] = LinkSpec{Kind: Bernoulli, Loss: accessLoss}
	}
	sessCfgs := make([]SessionConfig, ns)
	for i := range sessCfgs {
		sessCfgs[i] = sc
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: sessCfgs,
		Packets:  packets,
		Seed:     seed,
	}, bb, nil
}

// UniformChurn synthesizes a periodic leave/rejoin schedule: every
// interval time units, the next receiver (round-robin across all
// sessions of the network) leaves and rejoins downtime later, until
// horizon, or until interval is too small to advance the round time.
// It exercises pruning and fresh-join dynamics.
func UniformChurn(net *netmodel.Network, interval, downtime, horizon float64) []ChurnEvent {
	ids := net.ReceiverIDs()
	if len(ids) == 0 || interval <= 0 || downtime <= 0 {
		return nil
	}
	var evs []ChurnEvent
	i := 0
	for t := interval; t < horizon; t += interval {
		id := ids[i%len(ids)]
		evs = append(evs, ChurnEvent{Time: t, Session: id.Session, Receiver: id.Receiver, Join: false})
		evs = append(evs, ChurnEvent{Time: t + downtime, Session: id.Session, Receiver: id.Receiver, Join: true})
		i++
		if t+interval == t {
			break
		}
	}
	return evs
}
