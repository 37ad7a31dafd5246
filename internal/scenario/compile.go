package scenario

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mlfair/internal/netmodel"
	"mlfair/internal/netsim"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// Compiled is a Spec resolved against real structures: the simulation
// network plus netsim config (when the topology is concrete), and the
// analytic benchmark network whose capacities are the links' effective
// constraints (spec capacity minus background cross-traffic for
// capacity/droptail links, the topology capacity otherwise) and whose
// sessions carry the Spec's Γ, κ and redundancy functions — the network
// the "maxmin", "fairness" and "gap" stages audit against.
type Compiled struct {
	Spec *Spec
	// Net is the simulation network (equal to Benchmark for paths).
	Net *netmodel.Network
	// Benchmark is the analytic-side network.
	Benchmark *netmodel.Network
	// Cfg is the ready netsim configuration; only valid when Simulable.
	Cfg netsim.Config
	// Simulable is false for the abstract paths topology.
	Simulable bool
}

// Topology-seed stream constants, per kind, kept stable so published
// spec files reproduce byte-identical topologies (the scale-free and
// fat-tree values predate this package: they are the experiment
// drivers' historical constants, which the largetopo golden pins).
const (
	seedScaleFree  = 0xd1b54a32d192ed03
	seedFatTree    = 0x9e6c63d0876a9a47
	seedBinaryTree = 0x94d049bb133111eb
	seedRandom     = 0xda942042e4dd58b5
)

func (s *Spec) topologySeed() uint64 {
	if s.Topology.Seed != 0 {
		return s.Topology.Seed
	}
	return s.Seed
}

func (s *Spec) topologyRNG(mix uint64) *rand.Rand {
	t := s.topologySeed()
	return rand.New(rand.NewPCG(t, t^mix))
}

// sessionSlot returns the cycled SessionSpec for network session i.
func (s *Spec) sessionSlot(i int) SessionSpec {
	if len(s.Sessions) == 0 {
		return SessionSpec{}
	}
	return s.Sessions[i%len(s.Sessions)]
}

func defInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func defFloat(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

// sessionGamma maps a SessionSpec's Γ/κ onto netmodel values.
func sessionGamma(ss SessionSpec) (netmodel.SessionType, float64) {
	t := netmodel.MultiRate
	if ss.Type == "single" {
		t = netmodel.SingleRate
	}
	kappa := netmodel.NoRateCap
	if ss.MaxRate > 0 {
		kappa = ss.MaxRate
	}
	return t, kappa
}

// buildTopology constructs the simulation network for a concrete kind,
// or the abstract network for paths.
func (s *Spec) buildTopology() (*netmodel.Network, bool, error) {
	t := &s.Topology
	switch t.Kind {
	case "star":
		fan := t.FanoutCapacities
		n := t.Receivers
		if len(fan) > 0 {
			n = len(fan)
		}
		if n < 1 {
			return nil, false, fmt.Errorf("scenario: star needs receivers or fanoutCapacities")
		}
		g := netmodel.NewGraph(2 + n)
		g.AddLink(0, 1, defFloat(t.SharedCapacity, 1))
		receivers := make([]int, n)
		for k := 0; k < n; k++ {
			c := 1.0
			if len(fan) > 0 {
				c = fan[k]
			}
			g.AddLink(1, 2+k, c)
			receivers[k] = 2 + k
		}
		ty, kappa := sessionGamma(s.sessionSlot(0))
		sess := &netmodel.Session{Sender: 0, Receivers: receivers, Type: ty, MaxRate: kappa}
		net, err := routing.BuildNetwork(g, []*netmodel.Session{sess})
		return net, true, err
	case "chain":
		caps := t.Capacities
		if len(caps) == 0 {
			return nil, false, fmt.Errorf("scenario: chain needs capacities")
		}
		g := netmodel.NewGraph(len(caps) + 1)
		receivers := make([]int, len(caps))
		for k, c := range caps {
			g.AddLink(k, k+1, c)
			receivers[k] = k + 1
		}
		ty, kappa := sessionGamma(s.sessionSlot(0))
		sess := &netmodel.Session{Sender: 0, Receivers: receivers, Type: ty, MaxRate: kappa}
		net, err := routing.BuildNetwork(g, []*netmodel.Session{sess})
		return net, true, err
	case "binarytree":
		if t.Depth < 1 {
			return nil, false, fmt.Errorf("scenario: binarytree needs depth >= 1")
		}
		rng := s.topologyRNG(seedBinaryTree)
		capMin := defFloat(t.CapMin, 1)
		capMax := defFloat(t.CapMax, capMin)
		numNodes := 1<<(t.Depth+1) - 1
		g := netmodel.NewGraph(numNodes)
		for child := 1; child < numNodes; child++ {
			g.AddLink((child-1)/2, child, capMin+(capMax-capMin)*rng.Float64())
		}
		receivers := make([]int, 0, 1<<t.Depth)
		for n := 1<<t.Depth - 1; n < numNodes; n++ {
			receivers = append(receivers, n)
		}
		ty, kappa := sessionGamma(s.sessionSlot(0))
		sess := &netmodel.Session{Sender: 0, Receivers: receivers, Type: ty, MaxRate: kappa}
		net, err := routing.BuildNetwork(g, []*netmodel.Session{sess})
		return net, true, err
	case "tree":
		n := len(t.Parent)
		if n < 2 {
			return nil, false, fmt.Errorf("scenario: tree needs a parent array of >= 2 nodes")
		}
		if len(t.Capacities) != 0 && len(t.Capacities) != n {
			return nil, false, fmt.Errorf("scenario: tree has %d capacities for %d nodes", len(t.Capacities), n)
		}
		if len(t.ReceiverNodes) == 0 {
			return nil, false, fmt.Errorf("scenario: tree needs receiverNodes")
		}
		for _, nd := range t.ReceiverNodes {
			if nd < 0 || nd >= n {
				return nil, false, fmt.Errorf("scenario: tree receiver node %d out of range [0, %d)", nd, n)
			}
		}
		g := netmodel.NewGraph(n)
		for i := 1; i < n; i++ {
			if t.Parent[i] < 0 || t.Parent[i] >= i {
				return nil, false, fmt.Errorf("scenario: tree node %d has parent %d (need topological order)", i, t.Parent[i])
			}
			c := 1.0
			if len(t.Capacities) == n {
				c = t.Capacities[i]
			}
			g.AddLink(t.Parent[i], i, c)
		}
		ty, kappa := sessionGamma(s.sessionSlot(0))
		sess := &netmodel.Session{Sender: 0, Receivers: append([]int{}, t.ReceiverNodes...), Type: ty, MaxRate: kappa}
		net, err := routing.BuildNetwork(g, []*netmodel.Session{sess})
		return net, true, err
	case "mesh":
		ns := defInt(t.Sessions, 1)
		nr := defInt(t.Receivers, 1)
		g := netmodel.NewGraph(ns + 2 + ns*nr)
		left, right := ns, ns+1
		for i := 0; i < ns; i++ {
			g.AddLink(i, left, 1)
		}
		g.AddLink(left, right, defFloat(t.SharedCapacity, 1))
		sessions := make([]*netmodel.Session, ns)
		node := ns + 2
		for i := 0; i < ns; i++ {
			receivers := make([]int, nr)
			for k := 0; k < nr; k++ {
				g.AddLink(right, node, 1)
				receivers[k] = node
				node++
			}
			ty, kappa := sessionGamma(s.sessionSlot(i))
			sessions[i] = &netmodel.Session{Sender: i, Receivers: receivers, Type: ty, MaxRate: kappa}
		}
		net, err := routing.BuildNetwork(g, sessions)
		return net, true, err
	case "scalefree":
		opts := topology.ScaleFreeOptions{
			Nodes:        defInt(t.Nodes, 150),
			Attach:       defInt(t.Attach, 2),
			Sessions:     defInt(t.Sessions, 24),
			MaxReceivers: defInt(t.MaxReceivers, 8),
			CapMin:       defFloat(t.CapMin, 4),
			CapMax:       defFloat(t.CapMax, 64),
		}
		net, err := topology.ScaleFree(s.topologyRNG(seedScaleFree), opts)
		return net, true, err
	case "fattree":
		opts := topology.FatTreeOptions{
			K:            defInt(t.K, 6),
			Sessions:     defInt(t.Sessions, 24),
			MaxReceivers: defInt(t.MaxReceivers, 8),
			HostCap:      defFloat(t.HostCap, 16),
			EdgeAggCap:   defFloat(t.EdgeAggCap, 16),
			AggCoreCap:   defFloat(t.AggCoreCap, 12),
		}
		net, err := topology.FatTree(s.topologyRNG(seedFatTree), opts)
		return net, true, err
	case "random":
		def := topology.DefaultRandomOptions()
		opts := topology.RandomOptions{
			Nodes:          defInt(t.Nodes, def.Nodes),
			ExtraLinks:     defInt(t.ExtraLinks, def.ExtraLinks),
			Sessions:       defInt(t.Sessions, def.Sessions),
			MaxReceivers:   defInt(t.MaxReceivers, def.MaxReceivers),
			CapMin:         defFloat(t.CapMin, def.CapMin),
			CapMax:         defFloat(t.CapMax, def.CapMax),
			SingleRateProb: t.SingleRateProb,
			KappaProb:      t.KappaProb,
			KappaMax:       defFloat(t.KappaMax, def.KappaMax),
		}
		// RandomNetwork panics on invalid options; turn the cases a spec
		// can reach into errors.
		if opts.Nodes < 2 || opts.Sessions < 1 || opts.MaxReceivers < 1 {
			return nil, false, fmt.Errorf("scenario: random topology needs nodes >= 2, sessions >= 1, maxReceivers >= 1 (have %d/%d/%d)",
				opts.Nodes, opts.Sessions, opts.MaxReceivers)
		}
		return topology.RandomNetwork(s.topologyRNG(seedRandom), opts), true, nil
	case "paths":
		if len(t.LinkCapacities) == 0 {
			return nil, false, fmt.Errorf("scenario: paths needs linkCapacities")
		}
		if len(s.Sessions) == 0 {
			return nil, false, fmt.Errorf("scenario: paths needs explicit sessions")
		}
		b := netmodel.NewBuilder()
		for _, c := range t.LinkCapacities {
			b.AddLink(c)
		}
		for i, ss := range s.Sessions {
			if len(ss.Paths) == 0 {
				return nil, false, fmt.Errorf("scenario: paths session %d has no paths", i)
			}
			ty, kappa := sessionGamma(ss)
			si := b.AddSession(ty, kappa, len(ss.Paths))
			for k, p := range ss.Paths {
				b.SetPath(si, k, p...)
			}
			if ss.Redundancy > 1 {
				b.SetLinkRate(si, netmodel.SharedScaledMax(ss.Redundancy))
			}
		}
		net, err := b.Build()
		return net, false, err
	}
	return nil, false, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
}

// linkSpec resolves the netsim link model of link j from DefaultLink
// and overrides (later overrides win).
func (s *Spec) linkSpec(j int) (netsim.LinkSpec, error) {
	spec := LinkSpec{Kind: "perfect"}
	if s.DefaultLink != nil {
		spec = *s.DefaultLink
	}
	for _, ov := range s.Links {
		if ov.Link == j {
			spec = ov.LinkSpec
		}
	}
	return spec.toNetsim(j)
}

func (l LinkSpec) toNetsim(j int) (netsim.LinkSpec, error) {
	out := netsim.LinkSpec{
		Loss:       l.Loss,
		LayerLoss:  l.LayerLoss,
		Capacity:   l.Capacity,
		Buffer:     l.Buffer,
		Delay:      l.Delay,
		Background: l.Background,
	}
	switch l.Kind {
	case "perfect", "":
		out.Kind = netsim.Perfect
	case "bernoulli":
		out.Kind = netsim.Bernoulli
	case "capacity":
		out.Kind = netsim.Capacity
	case "droptail":
		out.Kind = netsim.DropTail
	default:
		return out, fmt.Errorf("scenario: link %d: unknown link kind %q", j, l.Kind)
	}
	return out, nil
}

// Compile resolves the Spec into networks and a netsim configuration.
func Compile(s *Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, simulable, err := s.buildTopology()
	if err != nil {
		return nil, err
	}
	return compileBuilt(s, net, simulable)
}

// compileBuilt finishes compilation against an already-built topology —
// the seam the sweep compiler uses to share one generated network
// across every point whose topology inputs agree (the network is
// read-only to the engine, so sharing is safe across parallel points).
func compileBuilt(s *Spec, net *netmodel.Network, simulable bool) (*Compiled, error) {
	var err error
	c := &Compiled{Spec: s, Net: net, Simulable: simulable}
	for _, ov := range s.Links {
		if ov.Link < 0 || ov.Link >= net.NumLinks() {
			return nil, fmt.Errorf("scenario: link override %d out of range (topology has %d links)", ov.Link, net.NumLinks())
		}
	}
	if !simulable {
		c.Benchmark = net
		return c, nil
	}

	// netsim link models.
	specs := make([]netsim.LinkSpec, net.NumLinks())
	for j := range specs {
		if specs[j], err = s.linkSpec(j); err != nil {
			return nil, err
		}
	}
	// Session configs, cycled.
	sessCfgs := make([]netsim.SessionConfig, net.NumSessions())
	for i := range sessCfgs {
		ss := s.sessionSlot(i)
		kind, err := parseProtocol(ss.Protocol)
		if err != nil {
			return nil, err
		}
		sessCfgs[i] = netsim.SessionConfig{Protocol: kind, Layers: defInt(ss.Layers, 8)}
	}
	// Churn.
	var churn []netsim.ChurnEvent
	if s.Churn != nil {
		if s.Churn.Interval > 0 && s.Churn.Downtime > 0 && s.Churn.Horizon > 0 {
			churn = netsim.UniformChurn(net, s.Churn.Interval, s.Churn.Downtime, s.Churn.Horizon)
		}
		for _, ev := range s.Churn.Events {
			churn = append(churn, netsim.ChurnEvent{Time: ev.Time, Session: ev.Session, Receiver: ev.Receiver, Join: ev.Join})
		}
	}
	var probe *netsim.ProbeConfig
	if s.Probe != nil {
		probe = &netsim.ProbeConfig{
			Window:       s.Probe.Window,
			PacketWindow: s.Probe.PacketWindow,
			MaxSamples:   s.Probe.MaxSamples,
		}
	}
	c.Cfg = netsim.Config{
		Network:      net,
		Links:        specs,
		Sessions:     sessCfgs,
		Packets:      s.Packets,
		SignalPeriod: s.SignalPeriod,
		Churn:        churn,
		Probe:        probe,
		LeaveLatency: s.LeaveLatency,
		Seed:         s.Seed,
	}

	// Analytic benchmark: same graph and paths, effective capacities,
	// the Spec's Γ/κ/redundancy on the sessions.
	g := net.Graph()
	g2 := netmodel.NewGraph(g.NumNodes())
	for j := 0; j < g.NumLinks(); j++ {
		l := g.Link(j)
		cap_ := g.Capacity(j)
		switch specs[j].Kind {
		case netsim.Capacity, netsim.DropTail:
			if specs[j].Capacity > 0 {
				cap_ = specs[j].Capacity
			}
			cap_ = math.Max(cap_-specs[j].Background, 1e-9)
		}
		g2.AddLink(l.From, l.To, cap_)
	}
	sessions := make([]*netmodel.Session, net.NumSessions())
	paths := make([][][]int, net.NumSessions())
	for i := 0; i < net.NumSessions(); i++ {
		cp := *net.Session(i)
		ss := s.sessionSlot(i)
		// Only explicit settings override: the random generator assigns
		// its own Γ/κ mix, which empty spec fields must not wipe.
		if ss.Type != "" {
			cp.Type, _ = sessionGamma(ss)
		}
		if ss.MaxRate > 0 {
			cp.MaxRate = ss.MaxRate
		}
		if ss.Redundancy > 1 {
			cp.LinkRate = netmodel.SharedScaledMax(ss.Redundancy)
		}
		sessions[i] = &cp
		paths[i] = make([][]int, cp.NumReceivers())
		for k := range paths[i] {
			paths[i][k] = net.Path(i, k)
		}
	}
	c.Benchmark, err = netmodel.NewNetwork(g2, sessions, paths)
	if err != nil {
		return nil, fmt.Errorf("scenario: benchmark network: %w", err)
	}
	return c, nil
}
