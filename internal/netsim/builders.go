package netsim

import (
	"fmt"

	"mlfair/internal/netmodel"
	"mlfair/internal/routing"
)

// Star builds the paper's Figure 7(b) modified star as a netsim Config:
// a sender behind one shared Bernoulli link feeding n receivers through
// independent Bernoulli fanout links — the sim facade's exact topology
// on the general engine. The shared link is link 0; fanout link k is
// link k+1.
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
