package netsim

import (
	"math"
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// FuzzConfigValidation drives raw, unclamped values through Config
// validation and — when a config survives — a short run. The contract
// under fuzz: never panic; reject malformed configs (NaN/Inf floats,
// out-of-range layers, bad churn) with an error; on acceptance, spend
// the packet budget exactly and keep every invariant checkInvariants
// asserts.
//
// Run the stored corpus with the normal test suite, or explore with:
//
//	go test -fuzz FuzzConfigValidation ./internal/netsim
func FuzzConfigValidation(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(3), uint8(3), int16(8), uint8(1), 0.05, 10.0, uint16(2000), uint64(7), false)
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), int16(1), uint8(0), 0.0, 1.0, uint16(1), uint64(0), false)
	f.Add(uint8(30), uint8(3), uint8(6), uint8(4), int16(10), uint8(2), 0.5, 64.0, uint16(5000), uint64(99), true)
	f.Add(uint8(12), uint8(1), uint8(2), uint8(2), int16(33), uint8(3), math.NaN(), math.Inf(1), uint16(100), uint64(3), false)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int16(-1), uint8(9), -1.0, -5.0, uint16(0), uint64(1), true)
	f.Fuzz(func(t *testing.T, nodes, attach, sessions, maxRecv uint8, layers int16, kindSel uint8, loss, capacity float64, packets uint16, seed uint64, churn bool) {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcd))
		net, err := topology.ScaleFree(rng, topology.ScaleFreeOptions{
			Nodes: int(nodes), Attach: int(attach), Sessions: int(sessions),
			MaxReceivers: int(maxRecv), CapMin: 1, CapMax: 32,
		})
		if err != nil {
			return // generator rejected the shape; nothing to simulate
		}
		cfg := Config{
			Network:  net,
			Links:    make([]LinkSpec, net.NumLinks()),
			Sessions: make([]SessionConfig, net.NumSessions()),
			Packets:  int(packets),
			Seed:     seed,
		}
		for j := range cfg.Links {
			switch kindSel % 5 {
			case 0:
				cfg.Links[j] = LinkSpec{}
			case 1:
				cfg.Links[j] = LinkSpec{Kind: Bernoulli, Loss: loss}
			case 2:
				cfg.Links[j] = LinkSpec{Kind: Capacity, Capacity: capacity, Background: loss}
			case 3:
				cfg.Links[j] = LinkSpec{Kind: DropTail, Capacity: capacity, Buffer: int(attach), Delay: loss}
			case 4:
				cfg.Links[j] = LinkSpec{Kind: LinkKind(kindSel)} // possibly unknown kind
			}
		}
		for i := range cfg.Sessions {
			cfg.Sessions[i] = SessionConfig{
				Protocol: protocol.Kind(int(kindSel) % 3),
				Layers:   int(layers),
			}
		}
		if churn {
			cfg.Churn = UniformChurn(net, 2, 3, 40)
		}
		res, err := Run(cfg)
		if err != nil {
			return // rejected with a clean error: the accepted outcome
		}
		if res.PacketsSent != cfg.Packets {
			t.Fatalf("sent %d, budget %d", res.PacketsSent, cfg.Packets)
		}
		checkInvariants(t, cfg, res)
	})
}

// FuzzStarBuilder fuzzes the Star builder's parameter validation and a
// short run on acceptance: no panics on arbitrary sizes and loss rates,
// and on acceptance every invariant checkInvariants asserts. The seed
// also picks the protocol and a leave latency of 0 to 4, so a star of
// more than wideFanout receivers reaches the one-pass hub walk and the
// linger lists under every protocol.
//
// Run the stored corpus with the normal test suite, or explore with:
//
//	go test -run '^$' -fuzz FuzzStarBuilder ./internal/netsim
func FuzzStarBuilder(f *testing.F) {
	f.Add(int16(10), 0.001, 0.05, int16(6), uint16(2000), uint64(1))
	f.Add(int16(0), -1.0, 2.0, int16(0), uint16(0), uint64(0))
	f.Add(int16(300), math.NaN(), math.Inf(-1), int16(40), uint16(65535), uint64(42))
	f.Add(int16(40), 0.01, 0.04, int16(8), uint16(3000), uint64(7))
	f.Fuzz(func(t *testing.T, n int16, sharedLoss, fanoutLoss float64, layers int16, packets uint16, seed uint64) {
		sc := SessionConfig{Protocol: protocol.Kinds()[seed%3], Layers: int(layers)}
		cfg, err := Star(int(n), sharedLoss, fanoutLoss, sc, int(packets), seed)
		if err != nil {
			return
		}
		cfg.LeaveLatency = float64(seed / 3 % 5)
		res, err := Run(cfg)
		if err != nil {
			return
		}
		checkInvariants(t, cfg, res)
	})
}

// FuzzHandPaths fuzzes the engine's tree-assembly validation with
// hand-built (non-routed) data-paths: arbitrary path shapes must either
// be rejected ("do not form a tree") or simulate cleanly.
func FuzzHandPaths(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint16(500))
	f.Add(uint64(9), uint8(8), uint8(5), uint16(100))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, links uint8, packets uint16) {
		nn := 2 + int(nodes%12)
		nl := 1 + int(links%24)
		rng := rand.New(rand.NewPCG(seed, 17))
		g := netmodel.NewGraph(nn)
		for j := 0; j < nl; j++ {
			a, b := rng.IntN(nn), rng.IntN(nn)
			if a == b {
				continue
			}
			g.AddLink(a, b, 1+rng.Float64()*8)
		}
		if g.NumLinks() == 0 {
			return
		}
		// Random walks from a sender; they may or may not form a tree.
		sender := rng.IntN(nn)
		nr := 1 + rng.IntN(3)
		receivers := make([]int, 0, nr)
		paths := make([][]int, 0, nr)
		for r := 0; r < nr; r++ {
			cur := sender
			var p []int
			seen := map[int]bool{}
			for hop := 0; hop < 6; hop++ {
				inc := g.Incident(cur)
				if len(inc) == 0 {
					break
				}
				j := inc[rng.IntN(len(inc))]
				if seen[j] {
					break
				}
				seen[j] = true
				p = append(p, j)
				cur = g.Other(j, cur)
			}
			if cur == sender {
				return // receiver at sender with a cyclic walk; skip
			}
			receivers = append(receivers, cur)
			paths = append(paths, p)
		}
		s := &netmodel.Session{Sender: sender, Receivers: receivers, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
		net, err := netmodel.NewNetwork(g, []*netmodel.Session{s}, [][][]int{paths})
		if err != nil {
			return
		}
		cfg := Config{
			Network:  net,
			Sessions: []SessionConfig{{Protocol: protocol.Coordinated, Layers: 4}},
			Packets:  1 + int(packets%2000),
			Seed:     seed,
		}
		res, err := Run(cfg)
		if err != nil {
			return // non-tree paths rejected with a clean error
		}
		if res.PacketsSent != cfg.Packets {
			t.Fatalf("sent %d, budget %d", res.PacketsSent, cfg.Packets)
		}
		// Routed check must agree with the engine's acceptance.
		if err := routing.TreeCheck(net, 0); err != nil {
			t.Fatalf("engine accepted non-tree paths: %v", err)
		}
	})
}
