package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mlfair/internal/protocol"
	"mlfair/internal/topology"
)

// resultDigest is a SHA-256 over every Result field: floats by their
// bits, slices with their lengths, and the ProbeSeries through its
// accessors (every sample of every receiver and link).
func resultDigest(r *Result) string {
	h := sha256.New()
	d := digester{h: h}
	d.int(len(r.ReceiverRates))
	for i := range r.ReceiverRates {
		d.floats(r.ReceiverRates[i])
		d.int(len(r.ReceiverPackets[i]))
		for _, n := range r.ReceiverPackets[i] {
			d.int(n)
		}
		d.int(len(r.FinalLevels[i]))
		for _, lv := range r.FinalLevels[i] {
			d.int(lv)
		}
	}
	d.floats(r.MeanLevels)
	d.int(len(r.Links))
	for _, ls := range r.Links {
		d.int(ls.Link)
		d.int(ls.Session)
		d.int(ls.Crossed)
		d.float(ls.Rate)
		d.float(ls.Redundancy)
		d.int(ls.DownstreamReceivers)
		d.int(ls.Dropped)
		d.float(ls.FluidRate)
	}
	d.int(r.PacketsSent)
	d.float(r.Duration)
	d.int(int(r.Events))
	if p := r.Probe; p == nil {
		d.int(-1)
	} else {
		d.int(p.NumSamples())
		d.int(p.Dropped)
		d.floats(p.Times)
		d.floats(p.Starts)
		d.int(p.NumSessions())
		d.int(p.NumLinks())
		for s := 0; s < p.NumSamples(); s++ {
			for i := 0; i < p.NumSessions(); i++ {
				d.int(p.NumReceivers(i))
				for k := 0; k < p.NumReceivers(i); k++ {
					d.int(p.ReceiverDelivered(i, k, s))
					d.int(p.Level(i, k, s))
				}
			}
			for j := 0; j < p.NumLinks(); j++ {
				d.int(p.LinkCrossed(j, s))
				d.float(p.LinkUtilization(j, s))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(int64(v)))
	d.h.Write(d.buf[:])
}

func (d *digester) float(v float64) {
	binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
	d.h.Write(d.buf[:])
}

func (d *digester) floats(vs []float64) {
	d.int(len(vs))
	for _, v := range vs {
		d.float(v)
	}
}

// TestResultDigests pins the exact Results of the engine's execution
// modes — Shards 0, multi-group sharding with and without a time-window
// probe, and a single-session group at Shards 2 uncut and cut at the
// access links under every protocol, probed and unprobed — to digests
// recorded from the engine as it stood before its execution paths were
// merged. The invariance tests only compare Shards values with each
// other; these catch a change that moves every mode at once. A planetary
// tree cut at lossy (Bernoulli) access links and Capacity core links
// draws loss and capacity coins from the subtree streams, which the
// committed planetary goldens (cut at Perfect access links) never do.
//
// The planetary/auto cases set no CutLinks, so no tree is cut: their
// single-group runs at Shards 2 must give the digests of the same
// configs at Shards 0.
//
// The pop100 cases were recorded from the engine as it stood before
// delivery at multi-receiver nodes became output-sensitive (per-layer
// node counters, subscription bitmaps): nodes hosting 100 receivers,
// reached directly, through a DropTail queue, under churn, under a
// leave latency, and with a packet-window probe reading mid-run counts.
//
// The pop100/top and pop100/churn/Deterministic cases were recorded from
// the engine as it stood before countdowns at multi-receiver nodes became
// per-level settles: receivers that reach the top level and re-arm
// there, and Deterministic receivers that leave and rejoin.
func TestResultDigests(t *testing.T) {
	// resultDigest must see every field: a new one has to be added there.
	if n := reflect.TypeOf(Result{}).NumField(); n != 9 {
		t.Fatalf("Result has %d fields; extend resultDigest", n)
	}
	if n := reflect.TypeOf(LinkStats{}).NumField(); n != 8 {
		t.Fatalf("LinkStats has %d fields; extend resultDigest", n)
	}
	want := map[string]string{
		"disjoint/shards=0":                     "38b36571447c746f98dbc44baf926a621a9d6bcd14213bb0fcd4dbe6d7f119e6",
		"disjoint/shards=0/probed":              "c29b162b32d00f50d1bcb0ec77a89ec304162ed63deed90f39d3fdc3c6d79e20",
		"disjoint/shards=3":                     "e972c0f8f091ef8d0068d3d641fba4da9a35823d43061d7068e8be051c3a97b0",
		"disjoint/shards=3/probed":              "a5adc6a063ef6afe11116290e29876e43cc32ecf384617dbdf572215cf657287",
		"planetary/auto/Coordinated":            "e067ea744f625463c98ce01357c40ec746fdcc6305d1706af39553ccf8fb5bb2",
		"planetary/auto/Coordinated/probed":     "bc1cfefff6c556a8901f9e7262269b9446f49a1e20d645a632c49613f6a31a16",
		"planetary/auto/Uncoordinated":          "57ae34b81a7729ad7f22cb49f567321050bb28b9bd4fb86f82b65ecbbd22c47d",
		"planetary/auto/Uncoordinated/probed":   "944857ef763b8d6683f57cf4bcfbfaacf2b3fc2d51fe8c4d16c4bbeb38c1a85f",
		"planetary/auto/Deterministic":          "19d7ff695f70338449a79ec936bee5932349e2b6ed5e2d2207ec09051d2bf469",
		"planetary/auto/Deterministic/probed":   "35a15b3d27944cbe6b62a279089d764b93cf6ec19cd097df9fd97391bc1f7d16",
		"planetary/access/Coordinated":          "e067ea744f625463c98ce01357c40ec746fdcc6305d1706af39553ccf8fb5bb2",
		"planetary/access/Coordinated/probed":   "bc1cfefff6c556a8901f9e7262269b9446f49a1e20d645a632c49613f6a31a16",
		"planetary/access/Uncoordinated":        "595ae36a415da1e1ed8e4a21cbd817b1117cc8589d25ec5e37c8d6b96cedf12d",
		"planetary/access/Uncoordinated/probed": "6ab77c8e666a931572a2a41d938942e289ac8e43f2c8610e9576da113646793b",
		"planetary/access/Deterministic":        "19d7ff695f70338449a79ec936bee5932349e2b6ed5e2d2207ec09051d2bf469",
		"planetary/access/Deterministic/probed": "35a15b3d27944cbe6b62a279089d764b93cf6ec19cd097df9fd97391bc1f7d16",
		"scale-free/depth-2-cut":                "f0a86c5018d3906d556448fc5d3c3d59b73a098d07de58048c0ce39d8180f565",
		"pop100/Coordinated":                    "0afbaa2a515d11902bb11e07ae7f09fb48cd5ab0dee5e516c34d7ff5b3c5d212",
		"pop100/Uncoordinated":                  "6edd9ee529747d1b3182d21e3c59cd61b87ff831c4db8277a1fd3e6bb831bf90",
		"pop100/Deterministic":                  "e8d8b98b6a830a6ed44cb99d74f327ec85e36a11b9f2065929c177342b843179",
		"pop100/access/Uncoordinated":           "869788560b3940296dc83b27208c3bb2f94894c5b4ba0b6ab468f7b94f25f0c7",
		"pop100/droptail/Coordinated":           "bffd0ef710f2508bdaa32311b2be7b3688c7806ccc01e0aa228ae55e8b471fee",
		"pop100/droptail/Uncoordinated":         "e6b5c669eb9434776cd50f3708d91d34a4faf40956b526941e6875b55288fb20",
		"pop100/churn/Coordinated":              "6cc8fdb30cba9834a7fc65c85c483df4f7f70e04990e88e1b94df11accf0a625",
		"pop100/churn/Uncoordinated":            "f4ea4c8e35b2063521dcc30ba601e8ddf3b48d69306241cf190d2bc6b528c36a",
		"pop100/churn/Uncoordinated/packets":    "911b4e370901d7072d98aafcd4531969bf4ddbccff1df79575e149fdbd363c58",
		"pop100/linger/Uncoordinated":           "8245f8dd5dc52215e50275c038dc5cceed5debd9c025d1435637cdf9898795f0",
		"pop100/linger/Deterministic":           "464644d6ed34bcc9baf262f1869d3a7946a36c171c43591ad79f36bdb47a27ab",
		"pop100/top/Uncoordinated":              "f85927b24c1a7e3e4909a22e82b1ea805db07c3eb9dbd556b1a9fae22836cd1e",
		"pop100/top/Deterministic":              "cad71058a45132ca1d1951b5ebb3ac3c6aeb0c053ed978df6b01853f7bb96b9d",
		"pop100/churn/Deterministic":            "90e84370f40ef4fd4d092587ac85926ba4513dec1d5a6efbf9bb1fd2958ad753",
	}
	check := func(name string, cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Probe != nil && (res.Probe == nil || res.Probe.Dropped == 0) {
			t.Fatalf("%s: probe ring did not overflow (%+v); the digest would not cover Dropped", name, res.Probe)
		}
		if got := resultDigest(res); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
		delete(want, name)
		return res
	}

	for _, shards := range []int{0, 3} {
		for _, probe := range []*ProbeConfig{nil, {Window: 10, MaxSamples: 4}} {
			cfg := disjointCfg(t, 8, 15000, 5)
			cfg.Shards, cfg.Probe = shards, probe
			name := fmt.Sprintf("disjoint/shards=%d", shards)
			if probe != nil {
				name += "/probed"
			}
			check(name, cfg)
		}
	}
	planetary, firstAccess := planetaryOneCfg(t, 6000, 17)
	planetary.Shards = 2
	for _, frontier := range []string{"auto", "access"} {
		cut := planetary
		if frontier == "access" {
			cut.CutLinks = topology.PlanetaryCutFrontier(firstAccess, planetary.Network.NumLinks())
		}
		if p := partitionOf(t, cut); (p != nil) != (frontier == "access") {
			t.Fatalf("%s frontier: partition %v", frontier, p != nil)
		}
		for _, kind := range protocol.Kinds() {
			for _, probe := range []*ProbeConfig{nil, {Window: 4, MaxSamples: 8}} {
				cfg := cut
				cfg.Sessions = []SessionConfig{{Protocol: kind, Layers: 8}}
				cfg.Probe = probe
				name := "planetary/" + frontier + "/" + kind.String()
				if probe != nil {
					name += "/probed"
				}
				check(name, cfg)
			}
		}
	}
	sf := scaleFreeCfg(t, 4000, 19)
	sf.Shards = 2
	check("scale-free/depth-2-cut", sf)

	// Nodes hosting 100 receivers each: one node's receivers span two or
	// three 64-slot words of the pre-order receiver list, at an offset
	// that is never word-aligned.
	for _, kind := range protocol.Kinds() {
		check("pop100/"+kind.String(), pop100Cfg(t, kind, 23))
	}
	access := pop100Cfg(t, protocol.Uncoordinated, 29)
	access.Shards = 2
	access.CutLinks = topology.PlanetaryCutFrontier(pop100FirstAccess, access.Network.NumLinks())
	check("pop100/access/Uncoordinated", access)
	// DropTail access links with a delay: every delivery into a PoP
	// arrives through the event queue and enters the walk at the PoP.
	for _, kind := range []protocol.Kind{protocol.Coordinated, protocol.Uncoordinated} {
		cfg := pop100Cfg(t, kind, 31)
		for j := pop100FirstAccess; j < len(cfg.Links); j++ {
			cfg.Links[j] = LinkSpec{Kind: DropTail, Capacity: 40, Buffer: 8, Delay: 0.05}
		}
		check("pop100/droptail/"+kind.String(), cfg)
	}
	// Churn at multi-receiver nodes: receivers leave to level 0 and
	// rejoin at level 1 mid-run.
	for _, kind := range []protocol.Kind{protocol.Coordinated, protocol.Uncoordinated} {
		cfg := pop100Cfg(t, kind, 37)
		cfg.Churn = pop100Churn(cfg)
		check("pop100/churn/"+kind.String(), cfg)
	}
	probed := pop100Cfg(t, protocol.Uncoordinated, 41)
	probed.Churn = pop100Churn(probed)
	probed.Probe = &ProbeConfig{PacketWindow: 500, MaxSamples: 4}
	check("pop100/churn/Uncoordinated/packets", probed)
	for _, kind := range []protocol.Kind{protocol.Uncoordinated, protocol.Deterministic} {
		cfg := pop100Cfg(t, kind, 43)
		cfg.LeaveLatency = 2
		check("pop100/linger/"+kind.String(), cfg)
	}
	// Four layers: receivers reach the top level, where a settle reads
	// one bitmap alone, and re-arm there on every join.
	for _, kind := range []protocol.Kind{protocol.Uncoordinated, protocol.Deterministic} {
		cfg := pop100Cfg(t, kind, 47)
		cfg.Sessions[0].Layers = 4
		res := check("pop100/top/"+kind.String(), cfg)
		if !slices.Contains(res.FinalLevels[0], 4) {
			t.Errorf("pop100/top/%s: no receiver ends at level 4", kind)
		}
	}
	churned := pop100Cfg(t, protocol.Deterministic, 53)
	churned.Churn = pop100Churn(churned)
	check("pop100/churn/Deterministic", churned)
	if len(want) != 0 {
		t.Fatalf("digests never checked: %v", want)
	}
}

// pop100FirstAccess is the first access link of pop100Cfg's network:
// its 8 core routers are joined by 7 core links.
const pop100FirstAccess = 7

// pop100Cfg is one planetary region of 16 PoPs hosting 100 receivers
// each, with Capacity core links and lossy Bernoulli access links, so
// congestion lands above multi-receiver nodes.
func pop100Cfg(t *testing.T, kind protocol.Kind, seed uint64) Config {
	t.Helper()
	net, firstAccess, err := topology.Planetary(rand.New(rand.NewPCG(11, 11)), topology.PlanetaryOptions{
		Regions: 1, CoreNodes: 8, PoPs: 16, ReceiversPerPoP: 100,
		CoreCap: 96, AccessCap: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstAccess != pop100FirstAccess {
		t.Fatalf("firstAccess = %d, want %d", firstAccess, pop100FirstAccess)
	}
	specs := make([]LinkSpec, net.NumLinks())
	for j := range specs {
		if j < firstAccess {
			specs[j] = LinkSpec{Kind: Capacity, Capacity: 96}
		} else {
			specs[j] = LinkSpec{Kind: Bernoulli, Loss: 0.01}
		}
	}
	return Config{
		Network:  net,
		Links:    specs,
		Sessions: []SessionConfig{{Protocol: kind, Layers: 8}},
		Packets:  6000,
		Seed:     seed,
	}
}

// pop100Churn makes every 7th receiver leave at a staggered time, and
// two of every three of them rejoin later.
func pop100Churn(cfg Config) []ChurnEvent {
	var churn []ChurnEvent
	for k := 0; k < cfg.Network.Session(0).NumReceivers(); k += 7 {
		leave := 2 + float64(k%40)*0.25
		churn = append(churn, ChurnEvent{Time: leave, Receiver: k})
		if k%3 != 0 {
			churn = append(churn, ChurnEvent{Time: leave + 3, Receiver: k, Join: true})
		}
	}
	return churn
}
