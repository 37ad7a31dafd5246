package protocol

import (
	"math"
	"math/rand/v2"
	"testing"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(81, 82)) }

func TestJoinThreshold(t *testing.T) {
	want := []int{1, 4, 16, 64, 256}
	for i, w := range want {
		if got := JoinThreshold(i + 1); got != w {
			t.Errorf("JoinThreshold(%d) = %d, want %d", i+1, got, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("level 0 accepted")
		}
	}()
	JoinThreshold(0)
}

func TestKindString(t *testing.T) {
	if Uncoordinated.String() != "Uncoordinated" ||
		Deterministic.String() != "Deterministic" ||
		Coordinated.String() != "Coordinated" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds() wrong")
	}
}

func TestNewReceiverStartsAtBase(t *testing.T) {
	for _, k := range Kinds() {
		r := NewReceiver(k, 8, newRNG())
		if r.Level() != 1 {
			t.Errorf("%v starts at level %d", k, r.Level())
		}
		if r.Kind() != k {
			t.Errorf("Kind = %v", r.Kind())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 accepted")
		}
	}()
	NewReceiver(Deterministic, 0, newRNG())
}

func TestDeterministicClimb(t *testing.T) {
	r := NewReceiver(Deterministic, 4, newRNG())
	// Level 1 -> 2 after exactly 1 packet.
	r.OnReceive()
	if r.Level() != 2 {
		t.Fatalf("level = %d after 1 packet, want 2", r.Level())
	}
	// Level 2 -> 3 after exactly 4 more.
	for i := 0; i < 3; i++ {
		r.OnReceive()
		if r.Level() != 2 {
			t.Fatalf("joined early at packet %d", i+2)
		}
	}
	r.OnReceive()
	if r.Level() != 3 {
		t.Fatalf("level = %d, want 3", r.Level())
	}
	// Level 3 -> 4 after 16 more.
	for i := 0; i < 16; i++ {
		r.OnReceive()
	}
	if r.Level() != 4 {
		t.Fatalf("level = %d, want 4", r.Level())
	}
	// At the top, further packets keep it there.
	for i := 0; i < 100; i++ {
		r.OnReceive()
	}
	if r.Level() != 4 {
		t.Fatalf("level = %d, want 4 (capped)", r.Level())
	}
}

func TestCongestionLeavesOneLayer(t *testing.T) {
	for _, k := range Kinds() {
		r := NewReceiver(k, 8, newRNG())
		// Climb a bit first (signals for Coordinated).
		for i := 0; i < 100; i++ {
			r.OnSignal(8)
			r.OnReceive()
		}
		if r.Level() < 3 {
			t.Fatalf("%v failed to climb: level %d", k, r.Level())
		}
		before := r.Level()
		r.OnCongestion()
		if r.Level() != before-1 {
			t.Errorf("%v: level %d -> %d on congestion, want -1", k, before, r.Level())
		}
		// Never below base layer.
		for i := 0; i < 20; i++ {
			r.OnCongestion()
		}
		if r.Level() != 1 {
			t.Errorf("%v: level %d after flood of congestion, want 1", k, r.Level())
		}
	}
}

// TestDeterministicCounterResetOnCongestion: a congestion event restarts
// the clean-packet count.
func TestDeterministicCounterResetOnCongestion(t *testing.T) {
	r := NewReceiver(Deterministic, 4, newRNG())
	r.OnReceive() // threshold 1: -> level 2
	for i := 0; i < 4; i++ {
		r.OnReceive() // threshold 4 at level 2: -> level 3
	}
	if r.Level() != 3 {
		t.Fatalf("setup failed: level %d", r.Level())
	}
	// 15 clean packets, then congestion: must not join at 16 after.
	for i := 0; i < 15; i++ {
		r.OnReceive()
	}
	r.OnCongestion() // -> level 2, counter reset to 4
	if r.Level() != 2 {
		t.Fatalf("level %d", r.Level())
	}
	r.OnReceive()
	r.OnReceive()
	r.OnReceive()
	if r.Level() != 2 {
		t.Fatal("joined before fresh threshold")
	}
	r.OnReceive()
	if r.Level() != 3 {
		t.Fatal("did not join at fresh threshold")
	}
}

// TestUncoordinatedExpectedPackets: the mean number of packets between
// joining level v and v+1 is close to 2^(2(v-1)).
func TestUncoordinatedExpectedPackets(t *testing.T) {
	rng := newRNG()
	for _, level := range []int{2, 3} {
		want := float64(JoinThreshold(level))
		var total float64
		const trials = 3000
		for trial := 0; trial < trials; trial++ {
			r := NewReceiver(Uncoordinated, 8, rng)
			// Climb to the target level.
			for r.Level() < level {
				r.OnReceive()
			}
			count := 0
			for r.Level() == level {
				r.OnReceive()
				count++
			}
			total += float64(count)
		}
		got := total / trials
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("level %d: mean packets to join = %v, want ~%v", level, got, want)
		}
	}
}

func TestCoordinatedOnlyJoinsAtSignals(t *testing.T) {
	r := NewReceiver(Coordinated, 8, newRNG())
	for i := 0; i < 1000; i++ {
		r.OnReceive()
	}
	if r.Level() != 1 {
		t.Fatal("Coordinated joined without a signal")
	}
	r.OnSignal(1)
	if r.Level() != 2 {
		t.Fatalf("clean receiver ignored signal: level %d", r.Level())
	}
	// A signal below the current level is not an opportunity.
	r.OnSignal(1)
	if r.Level() != 2 {
		t.Fatal("joined on a too-low signal")
	}
	// A signal at the level works.
	r.OnSignal(2)
	if r.Level() != 3 {
		t.Fatalf("level %d, want 3", r.Level())
	}
}

func TestCoordinatedCleanWindow(t *testing.T) {
	r := NewReceiver(Coordinated, 8, newRNG())
	r.OnSignal(8) // -> 2, clean
	r.OnCongestion()
	if r.Level() != 1 {
		t.Fatalf("level %d", r.Level())
	}
	// Dirty: first opportunity only re-opens the window.
	r.OnSignal(8)
	if r.Level() != 1 {
		t.Fatal("dirty receiver joined")
	}
	// Clean again: next opportunity joins.
	r.OnSignal(8)
	if r.Level() != 2 {
		t.Fatal("clean receiver did not join")
	}
}

// TestCoordinatedReceiversStaySynchronized: receivers seeing identical
// events keep identical levels — the property that makes sender
// coordination suppress redundancy.
func TestCoordinatedReceiversStaySynchronized(t *testing.T) {
	rng := newRNG()
	a := NewReceiver(Coordinated, 8, rng)
	b := NewReceiver(Coordinated, 8, rng)
	for i := 0; i < 5000; i++ {
		switch rng.IntN(3) {
		case 0:
			a.OnReceive()
			b.OnReceive()
		case 1:
			if rng.IntN(10) == 0 {
				a.OnCongestion()
				b.OnCongestion()
			}
		case 2:
			lvl := 1 + rng.IntN(7)
			a.OnSignal(lvl)
			b.OnSignal(lvl)
		}
		if a.Level() != b.Level() {
			t.Fatalf("desynchronized at step %d: %d vs %d", i, a.Level(), b.Level())
		}
	}
}

// TestDeterministicReceiversStaySynchronized: same property for the
// Deterministic protocol under identical loss patterns (the paper's
// modeling assumption for shared loss).
func TestDeterministicReceiversStaySynchronized(t *testing.T) {
	rng := newRNG()
	a := NewReceiver(Deterministic, 8, rng)
	b := NewReceiver(Deterministic, 8, rng)
	for i := 0; i < 5000; i++ {
		if rng.IntN(20) == 0 {
			a.OnCongestion()
			b.OnCongestion()
		} else {
			a.OnReceive()
			b.OnReceive()
		}
		if a.Level() != b.Level() {
			t.Fatalf("desynchronized at step %d", i)
		}
	}
}

// TestUncoordinatedDesynchronizes: under identical inputs, two
// Uncoordinated receivers drift apart — the redundancy mechanism.
func TestUncoordinatedDesynchronizes(t *testing.T) {
	rng := newRNG()
	a := NewReceiver(Uncoordinated, 8, rng)
	b := NewReceiver(Uncoordinated, 8, rng)
	differed := false
	for i := 0; i < 2000; i++ {
		if rng.IntN(20) == 0 {
			a.OnCongestion()
			b.OnCongestion()
		} else {
			a.OnReceive()
			b.OnReceive()
		}
		if a.Level() != b.Level() {
			differed = true
			break
		}
	}
	if !differed {
		t.Fatal("Uncoordinated receivers never diverged under identical inputs")
	}
}

func TestGeometricSamplerEdge(t *testing.T) {
	rng := newRNG()
	// At level 1 the threshold is 1 (p=1): every countdown must be 1.
	for i := 0; i < 50; i++ {
		if n := SampleGeometric(rng, 1); n != 1 {
			t.Fatalf("SampleGeometric(1) = %d", n)
		}
	}
	// Mean of Geometric(1/4) is 4.
	var total float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		total += float64(SampleGeometric(rng, 0.25))
	}
	if mean := total / trials; math.Abs(mean-4) > 0.15 {
		t.Fatalf("Geometric(0.25) mean = %v, want ~4", mean)
	}
}

// TestSignalLevelRuler: the Coordinated signal schedule is the ruler
// sequence 1 + trailing zeros of n, capped at maxLevel; signals count
// from 1.
func TestSignalLevelRuler(t *testing.T) {
	want := []int{1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5}
	for i, w := range want {
		if got := SignalLevel(i+1, 7); got != w {
			t.Fatalf("SignalLevel(%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := SignalLevel(64, 3); got != 3 {
		t.Fatalf("cap failed: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("index 0 accepted")
		}
	}()
	SignalLevel(0, 3)
}
