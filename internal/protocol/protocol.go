// Package protocol implements the three layered congestion-control
// receiver state machines of Section 4 of Rubenstein/Kurose/Towsley
// (SIGCOMM '99), which differ only in how layer joins are coordinated:
//
//   - Uncoordinated: upon each successfully received packet, the receiver
//     joins an additional layer with a probability chosen so the expected
//     number of packets between join/leave events at level i is 2^(2(i-1)).
//   - Deterministic: the receiver joins after exactly 2^(2(i-1)) packets
//     received without a congestion event since its last join/leave event.
//   - Coordinated: the sender embeds join signals in the data stream on a
//     nested ("binary ruler") schedule; a signal at level s invites every
//     receiver joined up to some layer v <= s to join layer v+1, provided
//     the receiver has seen no congestion since its previous join
//     opportunity. The nesting reproduces the paper's rule that a signal
//     for level i implies one for every level j < i, and the schedule's
//     periods are chosen so the expected packets between events match the
//     other protocols (see SignalLevel).
//
// In every protocol a receiver reacts to a congestion event (a lost or
// marked packet) by leaving its highest joined layer, unless it is joined
// only to the base layer. Subscription levels are therefore always in
// [1, M] — prefixes of the layer stack — exactly the regime in which the
// union of receiver subscriptions on a shared link is the maximum level
// (netsim's shared-link redundancy accounting rests on this).
//
// The layer rates follow the paper's Section 4 choice: the aggregate rate
// of layers 1..i is 2^(i-1) (layering.Exponential).
package protocol

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Kind selects one of the paper's three join-coordination disciplines.
type Kind int

const (
	// Uncoordinated joins probabilistically on each received packet.
	Uncoordinated Kind = iota
	// Deterministic joins after a fixed count of clean received packets.
	Deterministic
	// Coordinated joins only at sender-issued signals.
	Coordinated
)

// String names the protocol as the paper's figures do.
func (k Kind) String() string {
	switch k {
	case Uncoordinated:
		return "Uncoordinated"
	case Deterministic:
		return "Deterministic"
	case Coordinated:
		return "Coordinated"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all protocols in the paper's plotting order.
func Kinds() []Kind { return []Kind{Coordinated, Uncoordinated, Deterministic} }

// JoinThreshold returns 2^(2(level-1)), the expected number of packets
// received between a join/leave event at the given subscription level and
// the join to the next layer (the paper's Section 4 parameter, following
// Vicisano et al.).
func JoinThreshold(level int) int {
	if level < 1 {
		panic("protocol: level must be >= 1")
	}
	return 1 << (2 * (level - 1))
}

// MaxLevel is the highest subscription level the join logic supports:
// JoinThreshold(MaxLevel) = 2^62 is the largest threshold an int64
// holds.
const MaxLevel = 32

// joinLog[lv-2] is log(1-p) for p = 1/JoinThreshold(lv), lv in
// [2, MaxLevel]: the denominator of every Uncoordinated join draw at
// level lv, taken once here rather than on every join. Level 1 (p = 1)
// draws nothing and has no entry.
var joinLog = func() (t [MaxLevel - 1]float64) {
	for lv := 2; lv <= MaxLevel; lv++ {
		t[lv-2] = log1m(1 / float64(JoinThreshold(lv)))
	}
	return t
}()

// log1m returns log(1-p) for p in (0, 1): math.Log(1-p) bit for bit,
// except where 1-p rounds to 1 (p <= 2^-54, join levels 28 and up).
// There math.Log(1-p) is 0, a draw would divide by it, and
// math.Log1p(-p) gives the small negative value instead.
func log1m(p float64) float64 {
	if q := 1 - p; q != 1 {
		return math.Log(q)
	}
	return math.Log1p(-p)
}

// maxCountdown caps a geometric draw at JoinThreshold(MaxLevel), the
// Deterministic countdown at the top level. A draw at level 32 passes
// 2^63 once u < e^-2, where converting it to an int would overflow; no
// run sends that many packets.
const maxCountdown = 1 << 62

// Receiver is one receiver's protocol state machine. It is driven by the
// simulator through OnReceive, OnCongestion and OnSignal and reports its
// current subscription level (1..M layers joined).
type Receiver struct {
	kind  Kind
	m     int // number of layers
	level int // layers currently joined, in [1, m]

	rng *rand.Rand
	// countdown: Deterministic — clean packets remaining until join;
	// Uncoordinated — geometrically sampled packets until join.
	countdown int
	// clean: Coordinated — no congestion since the last join opportunity
	// at this receiver's level.
	clean bool
}

// NewReceiver creates a receiver using kind over m layers, initially
// joined to the base layer only. rng drives the Uncoordinated protocol's
// sampling; the other protocols never consume randomness.
func NewReceiver(kind Kind, m int, rng *rand.Rand) *Receiver {
	if m < 1 || m > MaxLevel {
		panic(fmt.Sprintf("protocol: %d layers, want 1..%d", m, MaxLevel))
	}
	r := &Receiver{kind: kind, m: m, level: 1, rng: rng}
	r.resetEventState()
	return r
}

// Level returns the number of layers currently joined (1..M).
func (r *Receiver) Level() int { return r.level }

// Kind returns the receiver's protocol.
func (r *Receiver) Kind() Kind { return r.kind }

// resetEventState re-arms the join logic after any join/leave event.
func (r *Receiver) resetEventState() {
	switch r.kind {
	case Deterministic:
		r.countdown = JoinThreshold(r.level)
	case Uncoordinated:
		r.countdown = SampleJoin(r.rng, r.level)
	case Coordinated:
		r.clean = true
	}
}

// SampleGeometric draws from Geometric(p) on {1, 2, ...} by inversion —
// the number of independent p-trials up to and including the first
// success. SampleJoin is its per-level form for the Uncoordinated
// protocol's joins, and SampleGeometricInv its form for thinning a
// Bernoulli process (e.g. per-link loss) to one draw per success; the
// tests hold both to it draw for draw.
func SampleGeometric(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 1
	}
	return geometric(rng, log1m(p))
}

// SampleJoin draws an Uncoordinated receiver's join countdown at level
// lv in [1, MaxLevel]: the value SampleGeometric(rng,
// 1/float64(JoinThreshold(lv))) returns, from the same one uniform,
// with the level's log(1-p) read from a table. Level 1 (p = 1) returns
// 1 without drawing.
func SampleJoin(rng *rand.Rand, lv int) int {
	if lv == 1 {
		return 1
	}
	return geometric(rng, joinLog[lv-2])
}

// geometric draws Geometric(p) on {1, 2, ...} by inversion of one
// uniform, given logq = log(1-p) < 0. It divides by logq: multiplying
// by 1/logq would round some draws differently.
func geometric(rng *rand.Rand, logq float64) int {
	u := rng.Float64()
	// Guard against u == 0 (log(0) = -Inf).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	x := math.Log(u) / logq
	if x >= maxCountdown {
		return maxCountdown
	}
	n := int(x) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// SampleGeometricInv draws from the same Geometric(p) law as
// SampleGeometric, taking the precomputed constant invLog = 1/log(1-p)
// instead of p itself. It exists for batched thinning loops: a caller
// sampling many inter-success gaps against one fixed p hoists the two
// logarithms of the denominator out of the loop and pays one uniform
// draw plus one multiply per gap. The returned value is int64 because
// gaps scale as 1/p and overflow int32 for very small loss rates.
//
// invLog must come from p in (0, 1); the p >= 1 short-circuit of
// SampleGeometric is deliberately absent here (invLog would be -0 and
// the draw consumption would differ).
func SampleGeometricInv(rng *rand.Rand, invLog float64) int64 {
	u := rng.Float64()
	// Guard against u == 0 (log(0) = -Inf).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int64(math.Log(u)*invLog) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// OnCongestion reacts to a lost or congestion-marked packet: leave the
// highest joined layer (unless only the base layer is joined) and reset
// the join state.
func (r *Receiver) OnCongestion() {
	if r.level > 1 {
		r.level--
	}
	r.clean = false // a Coordinated receiver must wait for a clean window
	switch r.kind {
	case Deterministic:
		r.countdown = JoinThreshold(r.level)
	case Uncoordinated:
		r.countdown = SampleJoin(r.rng, r.level)
	}
}

// OnReceive reacts to a successfully received packet. Uncoordinated and
// Deterministic receivers may join an additional layer.
func (r *Receiver) OnReceive() {
	switch r.kind {
	case Deterministic, Uncoordinated:
		r.countdown--
		if r.countdown <= 0 {
			r.join()
		}
	case Coordinated:
		// Packet arrivals alone never trigger Coordinated joins.
	}
}

// OnSignal reacts to a sender join signal at the given level. Only
// Coordinated receivers respond: a receiver joined up to layer v joins
// layer v+1 iff v <= sigLevel and it has seen no congestion since its
// previous join opportunity. Signals at levels >= the receiver's level
// also open a fresh clean window.
func (r *Receiver) OnSignal(sigLevel int) {
	if r.kind != Coordinated || sigLevel < r.level {
		return
	}
	if r.clean {
		r.join()
		return
	}
	// Missed opportunity; the next window starts now.
	r.clean = true
}

// join adds one layer (bounded by M) and resets the join state.
func (r *Receiver) join() {
	if r.level < r.m {
		r.level++
	}
	r.resetEventState()
}
