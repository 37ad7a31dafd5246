package markov

import (
	"math"
	"testing"

	"mlfair/internal/netsim"
	"mlfair/internal/protocol"
	"mlfair/internal/stats"
)

func solve(t *testing.T, kind protocol.Kind, prm StarParams) *Measures {
	t.Helper()
	m, err := BuildStar(kind, prm)
	if err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	ms, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return ms
}

func TestBuildStarValidation(t *testing.T) {
	if _, err := BuildStar(protocol.Uncoordinated, StarParams{Layers: 0}); err == nil {
		t.Fatal("zero layers accepted")
	}
	if _, err := BuildStar(protocol.Uncoordinated, StarParams{Layers: 3, SharedLoss: 1}); err == nil {
		t.Fatal("loss 1 accepted")
	}
	if _, err := BuildStar(protocol.Deterministic, StarParams{Layers: 6}); err == nil {
		t.Fatal("oversized Deterministic model accepted")
	}
	if _, err := BuildStar(protocol.Kind(9), StarParams{Layers: 3}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestLosslessTopsOut: without loss every protocol saturates at the top
// level with redundancy 1. (The Deterministic model uses 3 layers to
// keep its counter state space small; see StarParams.)
func TestLosslessTopsOut(t *testing.T) {
	for _, k := range protocol.Kinds() {
		layers := 4
		if k == protocol.Deterministic {
			layers = 3
		}
		ms := solve(t, k, StarParams{Layers: layers})
		if math.Abs(ms.MeanLevel1-float64(layers)) > 0.01 {
			t.Errorf("%v mean level = %v, want %d", k, ms.MeanLevel1, layers)
		}
		if math.Abs(ms.Redundancy-1) > 0.01 {
			t.Errorf("%v lossless redundancy = %v", k, ms.Redundancy)
		}
	}
}

// TestSymmetry: swapping the receivers' loss rates swaps their goodputs
// and preserves redundancy.
func TestSymmetry(t *testing.T) {
	for _, k := range protocol.Kinds() {
		layers := 3
		a := solve(t, k, StarParams{Layers: layers, SharedLoss: 0.01, Loss1: 0.02, Loss2: 0.08})
		b := solve(t, k, StarParams{Layers: layers, SharedLoss: 0.01, Loss1: 0.08, Loss2: 0.02})
		if math.Abs(a.Goodput1-b.Goodput2) > 1e-9 || math.Abs(a.Goodput2-b.Goodput1) > 1e-9 {
			t.Errorf("%v asymmetric under swap: %+v vs %+v", k, a, b)
		}
		if math.Abs(a.Redundancy-b.Redundancy) > 1e-9 {
			t.Errorf("%v redundancy changed under swap", k)
		}
	}
}

// TestLossierReceiverSlower: the receiver behind the lossier fanout link
// achieves lower goodput.
func TestLossierReceiverSlower(t *testing.T) {
	for _, k := range protocol.Kinds() {
		layers := 4
		if k == protocol.Deterministic {
			layers = 3
		}
		ms := solve(t, k, StarParams{Layers: layers, SharedLoss: 0.001, Loss1: 0.01, Loss2: 0.15})
		if !(ms.Goodput1 > ms.Goodput2) {
			t.Errorf("%v: goodputs %v <= %v", k, ms.Goodput1, ms.Goodput2)
		}
	}
}

// TestEqualLossMaximizesRedundancy reproduces the paper's analytical
// headline: holding the loss budget fixed, redundancy peaks when the two
// receivers' independent loss rates are equal.
func TestEqualLossMaximizesRedundancy(t *testing.T) {
	for _, k := range protocol.Kinds() {
		layers := 3
		if k == protocol.Deterministic {
			layers = 3
		}
		const mid = 0.05
		peak := solve(t, k, StarParams{Layers: layers, SharedLoss: 0.001, Loss1: mid, Loss2: mid})
		for _, delta := range []float64{0.02, 0.04} {
			asym := solve(t, k, StarParams{Layers: layers, SharedLoss: 0.001,
				Loss1: mid - delta, Loss2: mid + delta})
			if asym.Redundancy > peak.Redundancy+1e-6 {
				t.Errorf("%v: asymmetric (±%v) redundancy %v exceeds symmetric %v",
					k, delta, asym.Redundancy, peak.Redundancy)
			}
		}
	}
}

// TestUncoordinatedWorstAtEqualLoss: the uncoordinated protocol pays
// more redundancy than the coordinated one in the symmetric setting.
// With only two receivers the gap is small (it widens with session size,
// as Figure 8 shows at 100 receivers), so the operating point uses a
// deeper layer stack where it is clearly resolved.
func TestUncoordinatedWorstAtEqualLoss(t *testing.T) {
	prm := StarParams{Layers: 5, SharedLoss: 0.001, Loss1: 0.05, Loss2: 0.05}
	un := solve(t, protocol.Uncoordinated, prm)
	co := solve(t, protocol.Coordinated, prm)
	if !(un.Redundancy > co.Redundancy) {
		t.Fatalf("Uncoordinated %v should exceed Coordinated %v", un.Redundancy, co.Redundancy)
	}
}

// TestSharedLossOnlyNoRedundancyForCorrelated: pure shared loss keeps
// Deterministic and Coordinated receivers perfectly synchronized, so the
// only "redundancy" left is loss inflation: usage is counted before the
// loss while goodput is counted after, giving exactly 1/(1-p).
func TestSharedLossOnlyNoRedundancyForCorrelated(t *testing.T) {
	const p = 0.05
	for _, k := range []protocol.Kind{protocol.Deterministic, protocol.Coordinated} {
		ms := solve(t, k, StarParams{Layers: 3, SharedLoss: p})
		if math.Abs(ms.Redundancy-1/(1-p)) > 0.01 {
			t.Errorf("%v redundancy = %v under pure shared loss, want %v", k, ms.Redundancy, 1/(1-p))
		}
	}
}

// TestPowerSolverAgrees: both solvers give the same measures on a
// protocol chain.
func TestPowerSolverAgrees(t *testing.T) {
	m, err := BuildStar(protocol.Uncoordinated, StarParams{Layers: 4, SharedLoss: 0.01, Loss1: 0.03, Loss2: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	power, err := m.SolvePower(1e-13, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Redundancy-power.Redundancy) > 1e-4 {
		t.Fatalf("solvers disagree: %v vs %v", direct.Redundancy, power.Redundancy)
	}
}

// TestModelMatchesSimulator cross-validates the analytical chain against
// the packet-level simulator on the same two-receiver topology. The
// chain Poissonizes the periodic packet schedule, so agreement is
// approximate; 15% covers the modeling gap at these operating points.
func TestModelMatchesSimulator(t *testing.T) {
	for _, k := range []protocol.Kind{protocol.Uncoordinated, protocol.Deterministic} {
		prm := StarParams{Layers: 4, SharedLoss: 0.005, Loss1: 0.04, Loss2: 0.04}
		ms := solve(t, k, prm)
		var acc stats.Accumulator
		for seed := uint64(97); seed < 97+6; seed++ {
			cfg, err := netsim.Star(2, prm.SharedLoss, prm.Loss1,
				netsim.SessionConfig{Protocol: k, Layers: 4}, 200000, seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := netsim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(r.LinkRedundancy(0, 0))
		}
		simRed := acc.Mean()
		if rel := math.Abs(simRed-ms.Redundancy) / ms.Redundancy; rel > 0.15 {
			t.Errorf("%v: analysis %v vs sim %v (rel %v)", k, ms.Redundancy, simRed, rel)
		}
	}
}

func TestSignalLevels(t *testing.T) {
	// M=4: levels 1,2,3 with densities 1/2, 1/4, 1/4.
	ls := signalLevels(4)
	if len(ls) != 3 {
		t.Fatalf("levels = %v", ls)
	}
	want := []float64{0.5, 0.25, 0.25}
	total := 0.0
	for i, l := range ls {
		if l.level != i+1 || math.Abs(l.density-want[i]) > 1e-12 {
			t.Fatalf("signalLevels(4) = %v", ls)
		}
		total += l.density
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("densities sum to %v, want 1 per period", total)
	}
}

// TestRecvModelsMirrorProtocol: the enumerable state machines agree with
// protocol.Receiver trajectories under identical event sequences.
func TestRecvModelsMirrorProtocol(t *testing.T) {
	const m = 4
	type step struct {
		congest bool
		signal  int // 0 = none
	}
	// A deterministic event script covering joins, leaves and signals.
	script := make([]step, 0, 600)
	for i := 0; i < 600; i++ {
		s := step{}
		switch {
		case i%17 == 16:
			s.congest = true
		case i%5 == 4:
			s.signal = 1 + i%3
		}
		script = append(script, s)
	}
	run := func(kind protocol.Kind, rm recvModel) {
		r := protocol.NewReceiver(kind, m, nil)
		s := initialState(kind, rm)
		for i, st := range script {
			switch {
			case st.congest:
				r.OnCongestion()
				s = rm.congest(s)
			case st.signal > 0:
				r.OnSignal(st.signal)
				s = rm.signal(s, st.signal)
			default:
				r.OnReceive()
				outs := rm.receive(s)
				if len(outs) != 1 {
					// Probabilistic (Uncoordinated): skip trajectory check.
					return
				}
				s = outs[0].state
			}
			if r.Level() != rm.level(s) {
				t.Fatalf("%v diverged at step %d: receiver %d, model %d",
					kind, i, r.Level(), rm.level(s))
			}
		}
	}
	run(protocol.Deterministic, newDetermModel(m))
	run(protocol.Coordinated, coordModel{m: m})
}

func initialState(kind protocol.Kind, rm recvModel) int {
	switch kind {
	case protocol.Coordinated:
		return coordModel{}.enc(1, true)
	default:
		return 0 // level 1, count 0
	}
}
