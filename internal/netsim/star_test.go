package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
)

// The paper's Section 4 modified star (Star) and its Section 5
// extensions (LeaveLatency, PriorityDrop), and the closed-loop star
// (CapacityStar), checked for the behaviour the paper's figures rest
// on.

// star builds a Star of one session of the given protocol and depth.
func star(t *testing.T, n int, sharedLoss, fanoutLoss float64, kind protocol.Kind, layers, packets int, seed uint64) Config {
	t.Helper()
	cfg, err := Star(n, sharedLoss, fanoutLoss, SessionConfig{Protocol: kind, Layers: layers}, packets, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// meanStarRedundancy averages the shared-link redundancy of trials runs
// at seeds cfg.Seed, cfg.Seed+1, ... — the replication plan of the
// Figure 8 experiments.
func meanStarRedundancy(t *testing.T, cfg Config, trials int) float64 {
	t.Helper()
	var acc stats.Accumulator
	base := cfg.Seed
	for i := 0; i < trials; i++ {
		cfg.Seed = base + uint64(i)
		acc.Add(mustRun(t, cfg).LinkRedundancy(0, 0))
	}
	return acc.Mean()
}

// sharedCrossed is the session's crossing count on the shared link.
func sharedCrossed(r *Result) int {
	for _, ls := range r.Links {
		if ls.Link == 0 {
			return ls.Crossed
		}
	}
	return 0
}

// TestStarShape pins the layout Star documents: the shared link is link
// 0, fanout link k is link k+1, and receiver k's data-path is exactly
// those two links.
func TestStarShape(t *testing.T) {
	cfg := star(t, 3, 0.01, 0.2, protocol.Deterministic, 4, 100, 9)
	net := cfg.Network
	if net.NumLinks() != 4 || net.NumSessions() != 1 || len(cfg.Links) != 4 {
		t.Fatalf("star shape wrong: %d links, %d sessions", net.NumLinks(), net.NumSessions())
	}
	if !reflect.DeepEqual(cfg.Links[0], LinkSpec{Kind: Bernoulli, Loss: 0.01}) {
		t.Fatalf("shared link spec %+v", cfg.Links[0])
	}
	for k := 0; k < 3; k++ {
		if cfg.Links[1+k].Kind != Bernoulli || cfg.Links[1+k].Loss != 0.2 {
			t.Fatalf("fanout %d spec %+v", k, cfg.Links[1+k])
		}
		if p := net.Path(0, k); !reflect.DeepEqual(p, []int{0, 1 + k}) {
			t.Fatalf("receiver %d path %v, want [0 %d]", k, p, 1+k)
		}
	}
}

type starMutation struct {
	name string
	mut  func(c *Config)
}

// rejectsEach runs a valid two-receiver star, then checks that Run
// rejects each mutation of a private copy of it.
func rejectsEach(t *testing.T, muts []starMutation) {
	t.Helper()
	good := star(t, 2, 0, 0, protocol.Uncoordinated, 4, 100, 1)
	mustRun(t, good)
	for _, tc := range muts {
		c := good
		c.Links = append([]LinkSpec{}, good.Links...)
		c.Sessions = append([]SessionConfig{}, good.Sessions...)
		tc.mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestStarValidation: malformed stars are rejected, by Star itself or
// by Run.
func TestStarValidation(t *testing.T) {
	if _, err := Star(0, 0, 0, SessionConfig{Layers: 4}, 100, 1); err == nil {
		t.Fatal("receiverless star accepted")
	}
	rejectsEach(t, []starMutation{
		{"zero layers", func(c *Config) { c.Sessions[0].Layers = 0 }},
		{"zero packets", func(c *Config) { c.Packets = 0 }},
		{"shared loss 1", func(c *Config) { c.Links[0].Loss = 1 }},
		{"negative shared loss", func(c *Config) { c.Links[0].Loss = -0.1 }},
		{"fanout loss 1.5", func(c *Config) { c.Links[2].Loss = 1.5 }},
	})
}

// TestTinyLossAdmitsAll: a Bernoulli link whose 1-Loss rounds to 1
// drops nothing, so its runs equal the loss-free ones exactly, on the
// shared link and on the fan-out links, under every protocol.
func TestTinyLossAdmitsAll(t *testing.T) {
	for _, kind := range protocol.Kinds() {
		want := mustRun(t, star(t, 4, 0, 0, kind, 4, 2000, 1))
		for _, loss := range []float64{1e-17, 1e-20, 1e-300} {
			for where, cfg := range map[string]Config{
				"shared":  star(t, 4, loss, 0, kind, 4, 2000, 1),
				"fan-out": star(t, 4, 0, loss, kind, 4, 2000, 1),
			} {
				if got := mustRun(t, cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%v: loss %g on the %s links changed the run: shared link crossed %d, dropped %d",
						kind, loss, where, got.Links[0].Crossed, got.Links[0].Dropped)
				}
			}
		}
	}
}

// TestStarExtensionValidation: the extension knobs — leave latency,
// per-layer (priority) loss tables and the link kind — are validated
// too.
func TestStarExtensionValidation(t *testing.T) {
	rejectsEach(t, []starMutation{
		{"negative leave latency", func(c *Config) { c.LeaveLatency = -1 }},
		{"unknown link kind", func(c *Config) { c.Links[1].Kind = LinkKind(7) }},
		{"empty layer-loss table", func(c *Config) { c.Links[0].LayerLoss = []float64{} }},
		{"layer loss 1", func(c *Config) { c.Links[0].LayerLoss = []float64{0.1, 1} }},
		{"layer-loss table on a perfect link", func(c *Config) {
			c.Links[1] = LinkSpec{Kind: Perfect, LayerLoss: []float64{0.1}}
		}},
	})
}

// TestStarNoLossClimbsToTop: without loss, every protocol drives all
// receivers to the full layer stack and redundancy 1.
func TestStarNoLossClimbsToTop(t *testing.T) {
	for _, k := range protocol.Kinds() {
		res := mustRun(t, star(t, 10, 0, 0, k, 6, 60000, 1))
		// Cumulative top rate is 2^5 = 32 packets/unit; long-run receive
		// rate approaches it.
		for i, rate := range res.ReceiverRates[0] {
			if rate < 25 {
				t.Errorf("%v receiver %d rate = %v, want near 32", k, i, rate)
			}
		}
		if red := res.LinkRedundancy(0, 0); red > 1.3 {
			t.Errorf("%v lossless redundancy = %v, want near 1", k, red)
		}
		if res.MeanLevels[0] < 5 {
			t.Errorf("%v mean level = %v, want near 6", k, res.MeanLevels[0])
		}
	}
}

// TestStarDeterminism: equal seeds give identical results; different
// seeds differ.
func TestStarDeterminism(t *testing.T) {
	cfg := star(t, 20, 0.001, 0.02, protocol.Uncoordinated, 8, 20000, 7)
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different results")
	}
	cfg.Seed = 8
	if c := mustRun(t, cfg); a.LinkRedundancy(0, 0) == c.LinkRedundancy(0, 0) {
		t.Fatal("different seeds produced identical redundancy (suspicious)")
	}
}

// TestStarHighLossKeepsLevelsLow: heavy independent loss pins receivers
// near the base layer.
func TestStarHighLossKeepsLevelsLow(t *testing.T) {
	res := mustRun(t, star(t, 10, 0, 0.5, protocol.Deterministic, 8, 30000, 3))
	if res.MeanLevels[0] > 2.5 {
		t.Fatalf("mean level = %v under 50%% loss", res.MeanLevels[0])
	}
}

// TestStarSharedLossOnlyKeepsCorrelatedProtocolsEfficient: with loss
// only on the shared link, Deterministic and Coordinated receivers see
// identical events and stay synchronized: redundancy stays near 1.
func TestStarSharedLossOnlyKeepsCorrelatedProtocolsEfficient(t *testing.T) {
	for _, k := range []protocol.Kind{protocol.Deterministic, protocol.Coordinated} {
		res := mustRun(t, star(t, 50, 0.05, 0, k, 8, 50000, 11))
		if red := res.LinkRedundancy(0, 0); red > 1.4 {
			t.Errorf("%v shared-only redundancy = %v, want near 1", k, red)
		}
	}
}

// TestStarIndependentLossCreatesRedundancy: uncorrelated loss
// desynchronizes receivers; the uncoordinated protocols pay redundancy
// well above 1.
func TestStarIndependentLossCreatesRedundancy(t *testing.T) {
	res := mustRun(t, star(t, 50, 0.0001, 0.05, protocol.Uncoordinated, 8, 100000, 13))
	if red := res.LinkRedundancy(0, 0); red < 1.5 {
		t.Fatalf("Uncoordinated redundancy = %v, want well above 1", red)
	}
}

// TestStarCoordinationReducesRedundancy is the paper's headline Figure
// 8 comparison at one operating point: Coordinated beats Uncoordinated
// and stays below the paper's 2.5 bound. (Deterministic tracks
// Coordinated closely in the idealized zero-delay model because
// same-level receivers count identical packet streams.)
func TestStarCoordinationReducesRedundancy(t *testing.T) {
	point := func(k protocol.Kind) float64 {
		return meanStarRedundancy(t, star(t, 50, 0.0001, 0.04, k, 8, 50000, 17), 5)
	}
	co, un := point(protocol.Coordinated), point(protocol.Uncoordinated)
	if !(co < un) {
		t.Errorf("Coordinated (%v) should beat Uncoordinated (%v)", co, un)
	}
	// Paper: sender coordination keeps redundancy below 2.5.
	if co > 2.5 {
		t.Errorf("Coordinated redundancy = %v, paper bound 2.5", co)
	}
}

// TestStarCorrelatedLossAmplifiesCoordinationBenefit: Figure 8(b)'s
// setting — with high shared (fully correlated) loss and no independent
// loss, coordination-friendly protocols stay near 1 while Uncoordinated
// pays heavily ("coordinated joins reduce redundancy most significantly
// when the correlation in loss among receivers is high").
func TestStarCorrelatedLossAmplifiesCoordinationBenefit(t *testing.T) {
	point := func(k protocol.Kind) float64 {
		return meanStarRedundancy(t, star(t, 50, 0.05, 0, k, 8, 50000, 43), 5)
	}
	co, un := point(protocol.Coordinated), point(protocol.Uncoordinated)
	if co > 1.3 {
		t.Errorf("Coordinated redundancy under pure shared loss = %v, want near 1", co)
	}
	if un < 1.8*co {
		t.Errorf("Uncoordinated (%v) should pay far more than Coordinated (%v) under correlated loss", un, co)
	}
}

// TestStarHeterogeneousLosses: per-receiver fanout losses are honored —
// the lossier receiver ends with a lower rate.
func TestStarHeterogeneousLosses(t *testing.T) {
	cfg := star(t, 2, 0, 0, protocol.Deterministic, 8, 60000, 19)
	cfg.Links[1].Loss, cfg.Links[2].Loss = 0.001, 0.2
	res := mustRun(t, cfg)
	if r := res.ReceiverRates[0]; !(r[0] > 2*r[1]) {
		t.Fatalf("rates = %v, want clean receiver much faster", r)
	}
}

// TestStarAccounting: basic accounting on the shared link.
func TestStarAccounting(t *testing.T) {
	res := mustRun(t, star(t, 8, 0.01, 0.03, protocol.Uncoordinated, 6, 20000, 23))
	if res.PacketsSent != 20000 {
		t.Fatalf("sent = %d", res.PacketsSent)
	}
	if sharedCrossed(res) > res.PacketsSent {
		t.Fatal("crossed > sent")
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	if red := res.LinkRedundancy(0, 0); red < 1-0.05 {
		t.Fatalf("redundancy = %v < 1", red)
	}
	linkRate := float64(sharedCrossed(res)) / res.Duration
	for _, rate := range res.ReceiverRates[0] {
		if rate < 0 || rate > linkRate+1e-9 {
			t.Fatalf("receiver rate %v outside [0, link rate %v]", rate, linkRate)
		}
	}
}

// TestStarSingleReceiverEfficient: one receiver can produce no
// redundancy beyond loss inflation.
func TestStarSingleReceiverEfficient(t *testing.T) {
	res := mustRun(t, star(t, 1, 0, 0.02, protocol.Deterministic, 8, 50000, 29))
	if red := res.LinkRedundancy(0, 0); math.Abs(red-1) > 0.1 {
		t.Fatalf("single-receiver redundancy = %v, want ~1 (loss inflation only)", red)
	}
}

// TestStarMeanLevelBounds: the time-average level lies in [1, M].
func TestStarMeanLevelBounds(t *testing.T) {
	res := mustRun(t, star(t, 10, 0, 0.08, protocol.Coordinated, 5, 20000, 37))
	if lv := res.MeanLevels[0]; lv < 1 || lv > 5 {
		t.Fatalf("mean level = %v outside [1,5]", lv)
	}
}

// TestStarSingleLayerSession: Layers=1 degenerates gracefully — everyone
// stays at the base layer, no joins, redundancy ~1/(1-loss).
func TestStarSingleLayerSession(t *testing.T) {
	for _, k := range protocol.Kinds() {
		res := mustRun(t, star(t, 5, 0.02, 0.05, k, 1, 20000, 3))
		if res.MeanLevels[0] != 1 {
			t.Errorf("%v: mean level %v, want exactly 1", k, res.MeanLevels[0])
		}
		want := 1 / ((1 - 0.02) * (1 - 0.05))
		if red := res.LinkRedundancy(0, 0); math.Abs(red-want) > 0.05 {
			t.Errorf("%v: redundancy %v, want ~%v", k, red, want)
		}
	}
}

// TestStarTwoLayers: the minimal layered configuration still oscillates
// and measures sensibly.
func TestStarTwoLayers(t *testing.T) {
	res := mustRun(t, star(t, 10, 0, 0.1, protocol.Coordinated, 2, 20000, 5))
	if lv := res.MeanLevels[0]; lv <= 1 || lv >= 2 {
		t.Fatalf("mean level %v, want strictly between 1 and 2", lv)
	}
}

// TestStarSignalPeriodSlowsJoins: a Coordinated session with a much
// longer signal period climbs more slowly, ending at a lower mean level
// over a fixed horizon.
func TestStarSignalPeriodSlowsJoins(t *testing.T) {
	level := func(period float64) float64 {
		cfg := star(t, 5, 0, 0.03, protocol.Coordinated, 8, 20000, 7)
		cfg.SignalPeriod = period
		return mustRun(t, cfg).MeanLevels[0]
	}
	fast, slow := level(1), level(50)
	if !(slow < fast) {
		t.Fatalf("period 50 level %v not below period 1 level %v", slow, fast)
	}
}

// TestStarManyReceiversRedundancySaturates: Figure 8's "negligible
// changes beyond 100 receivers" — doubling the session from 100 to 200
// receivers moves redundancy by far less than the doubling itself.
// Averaged over seeds the shift is ~16% on this operating point (a
// single-seed 12% bound only held by seed luck), so the guard averages
// four seeds against a 20% ceiling.
func TestStarManyReceiversRedundancySaturates(t *testing.T) {
	point := func(n int) float64 {
		return meanStarRedundancy(t, star(t, n, 0.0001, 0.04, protocol.Uncoordinated, 8, 100000, 11), 4)
	}
	r100, r200 := point(100), point(200)
	if rel := math.Abs(r200-r100) / r100; rel > 0.2 {
		t.Fatalf("redundancy moved %v%% from 100 to 200 receivers (%v -> %v)",
			rel*100, r100, r200)
	}
}

// TestStarZeroLossExactAccounting: without any loss the crossed count
// equals the sent count once some receiver subscribes to the top layer,
// minus the climb transient.
func TestStarZeroLossExactAccounting(t *testing.T) {
	res := mustRun(t, star(t, 3, 0, 0, protocol.Deterministic, 4, 30000, 13))
	crossed := sharedCrossed(res)
	if crossed > res.PacketsSent {
		t.Fatal("crossed > sent")
	}
	// The climb to level 4 takes ~21 packets; everything after crosses.
	if res.PacketsSent-crossed > 100 {
		t.Fatalf("too many pruned packets without loss: sent %d crossed %d", res.PacketsSent, crossed)
	}
}

// TestLeaveLatencyZeroIsIdentity: LeaveLatency 0 is the paper's
// idealization, so setting it explicitly changes nothing.
func TestLeaveLatencyZeroIsIdentity(t *testing.T) {
	cfg := star(t, 20, 0, 0.04, protocol.Deterministic, 8, 30000, 9)
	base := mustRun(t, cfg)
	cfg.LeaveLatency = 0
	if again := mustRun(t, cfg); !reflect.DeepEqual(base, again) {
		t.Fatal("latency 0 changed the run")
	}
}

// TestLeaveLatencyMonotone: because receiver dynamics are identical at
// equal seeds, shared-link usage (and hence redundancy) is
// non-decreasing in the leave latency.
func TestLeaveLatencyMonotone(t *testing.T) {
	prev, prevRed := -1, 0.0
	for _, latency := range []float64{0, 1, 4, 16} {
		cfg := star(t, 20, 0, 0.05, protocol.Deterministic, 8, 40000, 15)
		cfg.LeaveLatency = latency
		res := mustRun(t, cfg)
		if sharedCrossed(res) < prev {
			t.Fatalf("crossed decreased with latency %v", latency)
		}
		if res.LinkRedundancy(0, 0) < prevRed {
			t.Fatalf("redundancy decreased with latency %v", latency)
		}
		prev, prevRed = sharedCrossed(res), res.LinkRedundancy(0, 0)
	}
}

// TestLeaveLatencyHurts: a substantial latency visibly inflates
// redundancy — the paper's Section 5 prediction ("long leave latencies
// will also increase redundancy").
func TestLeaveLatencyHurts(t *testing.T) {
	point := func(latency float64) float64 {
		cfg := star(t, 20, 0, 0.05, protocol.Coordinated, 8, 40000, 21)
		cfg.LeaveLatency = latency
		return meanStarRedundancy(t, cfg, 4)
	}
	if ideal, slow := point(0), point(16); slow < ideal*1.05 {
		t.Fatalf("latency-16 redundancy %v not above ideal %v", slow, ideal)
	}
}

// TestPriorityDropTable: the priority table rises with the layer, keeps
// the traffic-weighted mean loss of the exponential scheme, and touches
// only Bernoulli links.
func TestPriorityDropTable(t *testing.T) {
	const p, layers = 0.01, 8
	links := []LinkSpec{{Kind: Bernoulli, Loss: p}, {Kind: Capacity}, {}}
	PriorityDrop(links, layers)
	table := links[0].LayerLoss
	if len(table) != layers {
		t.Fatalf("table %v, want %d entries", table, layers)
	}
	num, den := 0.0, 0.0
	for l, q := range table {
		if l > 0 && q <= table[l-1] {
			t.Fatalf("table not increasing: %v", table)
		}
		rate := 1.0 // layer rates 1, 1, 2, 4, ...
		if l > 0 {
			rate = math.Ldexp(1, l-1)
		}
		num += q * rate
		den += rate
	}
	if mean := num / den; math.Abs(mean-p) > 1e-12 {
		t.Fatalf("traffic-weighted mean loss %v, want %v", mean, p)
	}
	if links[1].LayerLoss != nil || links[2].LayerLoss != nil {
		t.Fatal("priority table set on a non-Bernoulli link")
	}
	PriorityDrop(links[2:], 0) // no layers: nothing to do, no panic
}

// TestPriorityDropLossCap: on a very lossy link the scaled per-layer
// loss is capped below 1, and the cap leaves entries that are already
// valid probabilities exactly proportional to the link's loss.
func TestPriorityDropLossCap(t *testing.T) {
	const p, lossy, layers = 0.01, 0.9, 8
	links := []LinkSpec{{Kind: Bernoulli, Loss: p}, {Kind: Bernoulli, Loss: lossy}}
	PriorityDrop(links, layers)
	table, capped := links[0].LayerLoss, links[1].LayerLoss
	if len(capped) != layers {
		t.Fatalf("table %v, want %d entries", capped, layers)
	}
	sawCap := false
	for l, q := range capped {
		switch want := lossy * table[l] / p; {
		case want >= 0.999:
			sawCap = true
			if q != 0.999 {
				t.Fatalf("layer %d loss %v, want the cap 0.999: %v", l, q, capped)
			}
		case math.Abs(q-want) > 1e-12:
			t.Fatalf("layer %d loss %v, want %v (cap changed a valid probability)", l, q, want)
		}
	}
	if !sawCap {
		t.Fatalf("no layer reached the cap: %v", capped)
	}
}

// TestPriorityDropProtectsBaseLayer: priority dropping changes the
// outcome at equal configured loss and keeps the run plausible.
func TestPriorityDropProtectsBaseLayer(t *testing.T) {
	cfg := star(t, 20, 0, 0.08, protocol.Deterministic, 8, 40000, 27)
	uni := mustRun(t, cfg)
	PriorityDrop(cfg.Links, 8)
	pri := mustRun(t, cfg)
	if pri.LinkRedundancy(0, 0) < 0.9 || pri.MeanLevels[0] < 1 {
		t.Fatalf("implausible priority run: %+v", pri)
	}
	// The comparison itself is what experiments.PriorityDrop reports;
	// here priority dropping must only change the outcome.
	if pri.LinkRedundancy(0, 0) == uni.LinkRedundancy(0, 0) && sharedCrossed(pri) == sharedCrossed(uni) {
		t.Fatal("priority dropping had no effect")
	}
}

func capStar(t *testing.T, shared float64, fanout [][]float64, kind protocol.Kind, layers, packets int, seed uint64) Config {
	t.Helper()
	cfg, err := CapacityStar(shared, fanout, SessionConfig{Protocol: kind, Layers: layers}, packets, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// sharedUsage returns each session's fluid usage of the shared link
// (link 0) and the link's drop fraction.
func sharedUsage(r *Result) (usage []float64, lossRate float64) {
	usage = make([]float64, len(r.ReceiverRates))
	crossed, dropped := 0, 0
	for _, ls := range r.Links {
		if ls.Link == 0 {
			usage[ls.Session] = ls.FluidRate
			crossed += ls.Crossed
			dropped += ls.Dropped
		}
	}
	if crossed > 0 {
		lossRate = float64(dropped) / float64(crossed)
	}
	return usage, lossRate
}

// TestCapacityStarValidation: malformed closed-loop stars are rejected.
func TestCapacityStarValidation(t *testing.T) {
	sc := SessionConfig{Protocol: protocol.Deterministic, Layers: 4}
	good, err := CapacityStar(8, [][]float64{{4}}, sc, 100, 1)
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mustRun(t, good)
	for i, tc := range []struct {
		shared float64
		fanout [][]float64
		want   string
	}{
		{0, [][]float64{{4}}, "shared capacity"},
		{math.NaN(), [][]float64{{4}}, "shared capacity"},
		{8, nil, "at least one session"},
		{8, [][]float64{{}}, "no receivers"},
		{8, [][]float64{{0}}, "capacity 0"},
		{8, [][]float64{{4}, {-1}}, "session 1 receiver 0"},
	} {
		if _, err := CapacityStar(tc.shared, tc.fanout, sc, 100, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %v, want mention of %q", i, err, tc.want)
		}
	}
	for _, mut := range []func(c *Config){
		func(c *Config) { c.Packets = 0 },
		func(c *Config) { c.Sessions[0].Layers = 0 },
	} {
		c := good
		c.Sessions = append([]SessionConfig{}, good.Sessions...)
		mut(&c)
		if _, err := Run(c); err == nil {
			t.Error("bad run config accepted")
		}
	}
}

// TestCapacityStarFairRates: the star's Network is its own max-min
// benchmark, and the Appendix A allocator matches hand computation.
// Session 1's shared usage is the max of its receivers, session 2's its
// receiver: both rise to 5, where the shared link saturates (5+5=10),
// and the fanout caps freeze receivers 1 and 2 of session 1 early.
func TestCapacityStarFairRates(t *testing.T) {
	cfg := capStar(t, 10, [][]float64{{1, 2, 30}, {30}}, protocol.Deterministic, 8, 100, 1)
	res, err := maxmin.Allocate(cfg.Network)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 5}, {5}}
	for si := range want {
		for k := range want[si] {
			if got := res.Alloc.Rate(si, k); !netmodel.Eq(got, want[si][k]) {
				t.Fatalf("r%d,%d fair rate %v, want %v (%s)", si+1, k+1, got, want[si][k], res.Alloc)
			}
		}
	}
}

// TestCapacityStarSingleReceiverConvergesToCap: one receiver behind a
// fanout cap between subscription levels oscillates below the cap,
// achieving a substantial fraction of its fair rate.
func TestCapacityStarSingleReceiverConvergesToCap(t *testing.T) {
	for _, k := range protocol.Kinds() {
		res := mustRun(t, capStar(t, 1000, [][]float64{{5}}, k, 8, 200000, 5))
		rate := res.ReceiverRates[0][0]
		if rate > 5+0.5 {
			t.Errorf("%v: rate %v exceeds the capacity 5", k, rate)
		}
		if rate < 2 {
			t.Errorf("%v: rate %v too far below the fair rate 5", k, rate)
		}
	}
}

// TestCapacityStarInterSessionFairness: two identical sessions sharing
// a bottleneck settle at comparable shared-link usage — fairness
// emerges from the closed loop.
func TestCapacityStarInterSessionFairness(t *testing.T) {
	res := mustRun(t, capStar(t, 16, [][]float64{{100, 100}, {100, 100}}, protocol.Deterministic, 8, 400000, 11))
	usage, _ := sharedUsage(res)
	u1, u2 := usage[0], usage[1]
	if u1 <= 0 || u2 <= 0 {
		t.Fatalf("degenerate usages %v %v", u1, u2)
	}
	if ratio := u1 / u2; ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("inter-session usage ratio %v, want near 1", ratio)
	}
	if util := (u1 + u2) / 16; util > 1.5 {
		t.Fatalf("utilization %v far above capacity", util)
	}
}

// TestCapacityStarHeterogeneousReceiversRespectOwnCaps: receivers
// behind different fanout caps converge to distinct rates bounded by
// their caps — the multi-rate promise under closed-loop congestion.
func TestCapacityStarHeterogeneousReceiversRespectOwnCaps(t *testing.T) {
	caps := []float64{2, 8, 32}
	res := mustRun(t, capStar(t, 1000, [][]float64{caps}, protocol.Coordinated, 8, 400000, 13))
	r := res.ReceiverRates[0]
	if !(r[0] < r[1] && r[1] < r[2]) {
		t.Fatalf("rates not ordered by capacity: %v", r)
	}
	for k, c := range caps {
		if r[k] > c*1.1 {
			t.Fatalf("receiver %d rate %v above its cap %v", k, r[k], c)
		}
		if r[k] < c*0.25 {
			t.Fatalf("receiver %d rate %v too far below its cap %v", k, r[k], c)
		}
	}
}

// TestCapacityStarAchievedWithinFairEnvelope: every receiver's achieved
// rate stays below its fluid max-min fair rate (plus noise) — protocols
// are conservative, not over-claiming.
func TestCapacityStarAchievedWithinFairEnvelope(t *testing.T) {
	cfg := capStar(t, 12, [][]float64{{2, 100}, {100}}, protocol.Coordinated, 8, 400000, 17)
	fair, err := maxmin.Allocate(cfg.Network)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg)
	for si, rates := range res.ReceiverRates {
		for k, got := range rates {
			want := fair.Alloc.Rate(si, k)
			if got > want*1.25 {
				t.Errorf("receiver %d,%d achieved %v above fair %v", si, k, got, want)
			}
			if got < want*0.2 {
				t.Errorf("receiver %d,%d achieved %v far below fair %v", si, k, got, want)
			}
		}
	}
}

// TestCapacityStarDeterminism: equal seeds give identical results.
func TestCapacityStarDeterminism(t *testing.T) {
	cfg := capStar(t, 8, [][]float64{{3, 9}}, protocol.Uncoordinated, 6, 50000, 19)
	if a, b := mustRun(t, cfg), mustRun(t, cfg); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different results")
	}
}

// TestCapacityStarAmpleCapacityNoLoss: when capacity exceeds the full
// stack, no loss occurs and receivers top out.
func TestCapacityStarAmpleCapacityNoLoss(t *testing.T) {
	res := mustRun(t, capStar(t, 1000, [][]float64{{1000}}, protocol.Deterministic, 6, 100000, 23))
	if _, loss := sharedUsage(res); loss != 0 {
		t.Fatalf("loss %v with ample capacity", loss)
	}
	if res.ReceiverRates[0][0] < 30 {
		t.Fatalf("rate %v, want near 32", res.ReceiverRates[0][0])
	}
}

// TestCapacityStarFluidUsage: on an oversubscribed shared link, each
// session's fluid usage (LinkStats.FluidRate) is positive and bounded
// by its full-stack cumulative rate, and the link drops a proper
// fraction of what crosses it.
func TestCapacityStarFluidUsage(t *testing.T) {
	cfg := capStar(t, 16, [][]float64{{100, 100}, {100}}, protocol.Deterministic, 8, 100000, 43)
	cfg.Sessions[1].Layers = 6
	usage, loss := sharedUsage(mustRun(t, cfg))
	for i, u := range usage {
		top := math.Ldexp(1, cfg.Sessions[i].Layers-1)
		if u <= 0 || u > top {
			t.Fatalf("session %d usage %v outside (0, full-stack rate %v]", i, u, top)
		}
	}
	if loss <= 0 || loss >= 1 {
		t.Fatalf("implausible shared loss rate %v for an oversubscribed link", loss)
	}
}
