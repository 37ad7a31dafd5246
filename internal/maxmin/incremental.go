package maxmin

import (
	"fmt"
	"math"
	"slices"

	"mlfair/internal/netmodel"
)

// Incremental is the package's progressive filler. It indexes a network
// once into flat arrays; each Fill then computes the max-min fair
// allocation of the current membership, which SetActive changes between
// fills (churn joins and leaves, slow-leave expiry, session arrivals and
// departures in dynamics.Replay). Allocate and its variants are the
// first Fill of a fresh Incremental.
//
//   - Every per-link crossing structure is a flat index array built
//     once, with per-(link, session) active-receiver counts maintained
//     in O(path length) per membership toggle.
//   - All filling scratch is reused across fills, so a fill allocates
//     nothing.
//   - After leave-only changes the water level warm-starts: link usage
//     at a common level is monotone in the receiver set (every v_i
//     dominates a monotone max), so before the previous fill's minimum
//     active rate no link can saturate, no κ can bind, and no cascade
//     can trigger — no receiver freezes strictly below that minimum,
//     and the fill may start there instead of at zero. (Individual
//     rates above the minimum can still drop after a leave — a
//     single-rate session whose bottleneck departs rises into links it
//     shares — which is why the warm start is pinned to the minimum.)
//
// Departed receivers have rate 0 and no cause, and no link carries
// them, so a fill equals the first fill of the network restricted to
// the active receivers — within tolerance, since a warm start sums the
// level differently; the incremental tests pin this property. Receivers
// freeze in index order within a round: a single-rate peer's cause
// names the link of its session's lowest-index receiver that froze.
type Incremental struct {
	net *netmodel.Network

	// Receiver flat indexing: rid = off[session] + receiver.
	off []int32
	nR  int

	// Membership and the current allocation.
	active []bool
	rates  []float64
	causes []Cause
	frozen []bool // rid froze in the last fill (causes[rid] is valid)
	rounds int

	// Per-link slots, one per (link, session crossing it), CSR over
	// links: slot s covers sessions slotSess[s] with receiver rids
	// slotRecv[slotRecvStart[s]:slotRecvStart[s+1]].
	slotStart     []int32
	slotSess      []int32
	slotRecvStart []int32
	slotRecv      []int32
	// slotActive counts the slot's receivers with active membership,
	// maintained incrementally by SetActive.
	slotActive []int32
	// recvSlots CSR: the slots containing rid (one per link on its
	// data-path) — the update set of a membership toggle.
	recvSlotStart []int32
	recvSlots     []int32

	// generic is true when some session carries a custom link-rate
	// function or the caller asks for bisection steps (AllocateGeneric,
	// AllocateWeighted).
	generic bool
	// weights holds w_{i,k} at rid for a weighted fill (AllocateWeighted
	// sets it); nil is the paper's unweighted fill. A rising receiver's
	// rate is w·level instead of level.
	weights []float64

	// Warm-start state.
	warmLevel float64 // valid when warmOK: previous fill's min active rate
	warmOK    bool    // no join since the last unweighted fill, and warmLevel is defined

	// Fill scratch, reused across epochs.
	slotFill  []int32   // slot's active-and-unfrozen receiver count
	actList   []int32   // rids still rising
	saturated []bool    // per link
	rateBuf   []float64 // EffectiveLinkRate argument buffer
	frozenIDs []int32   // rids a κ or a link froze this round
}

// NewIncremental indexes the network for epoch-incremental allocation.
// Every receiver starts active; call Fill to compute the initial
// allocation.
func NewIncremental(net *netmodel.Network) (*Incremental, error) {
	inc := &Incremental{net: net}
	ns := net.NumSessions()
	inc.off = make([]int32, ns+1)
	for i := 0; i < ns; i++ {
		inc.off[i+1] = inc.off[i] + int32(net.Session(i).NumReceivers())
	}
	inc.nR = int(inc.off[ns])
	inc.active = make([]bool, inc.nR)
	for r := range inc.active {
		inc.active[r] = true
	}
	inc.rates = make([]float64, inc.nR)
	inc.causes = make([]Cause, inc.nR)
	inc.frozen = make([]bool, inc.nR)

	nl := net.NumLinks()
	inc.slotStart = make([]int32, nl+1)
	for j := 0; j < nl; j++ {
		inc.slotStart[j+1] = inc.slotStart[j] + int32(len(net.OnLink(j)))
	}
	nSlots := int(inc.slotStart[nl])
	inc.slotSess = make([]int32, nSlots)
	inc.slotRecvStart = make([]int32, nSlots+1)
	inc.slotActive = make([]int32, nSlots)
	inc.slotFill = make([]int32, nSlots)
	recvCount := make([]int32, inc.nR)
	total := 0
	for j := 0; j < nl; j++ {
		for si, sr := range net.OnLink(j) {
			s := int(inc.slotStart[j]) + si
			inc.slotSess[s] = int32(sr.Session)
			c := sr.Len()
			inc.slotRecvStart[s+1] = inc.slotRecvStart[s] + int32(c)
			inc.slotActive[s] = int32(c)
			for k := range sr.All() {
				recvCount[inc.rid(sr.Session, k)]++
			}
			total += c
		}
	}
	inc.slotRecv = make([]int32, total)
	inc.recvSlotStart = make([]int32, inc.nR+1)
	for r := 0; r < inc.nR; r++ {
		inc.recvSlotStart[r+1] = inc.recvSlotStart[r] + recvCount[r]
	}
	inc.recvSlots = make([]int32, total)
	fill := slices.Clone(inc.recvSlotStart[:inc.nR])
	for j := 0; j < nl; j++ {
		for si, sr := range net.OnLink(j) {
			s := int(inc.slotStart[j]) + si
			x := inc.slotRecvStart[s]
			for k := range sr.All() {
				r := inc.rid(sr.Session, k)
				inc.slotRecv[x] = int32(r)
				inc.recvSlots[fill[r]] = int32(s)
				fill[r]++
				x++
			}
		}
	}
	for _, s := range net.Sessions() {
		if s.LinkRate != nil {
			inc.generic = true
		}
	}
	inc.saturated = make([]bool, nl)
	inc.actList = make([]int32, 0, inc.nR)
	inc.frozenIDs = make([]int32, 0, inc.nR)
	return inc, nil
}

func (inc *Incremental) rid(i, k int) int { return int(inc.off[i]) + k }

// Active reports receiver r_{i,k}'s current membership.
func (inc *Incremental) Active(i, k int) bool { return inc.active[inc.rid(i, k)] }

// SetActive toggles receiver r_{i,k}'s membership ahead of the next
// Fill. A departing receiver's rate drops to 0 immediately; a joining
// receiver's rate is 0 until Fill runs. O(data-path length).
func (inc *Incremental) SetActive(i, k int, active bool) {
	r := inc.rid(i, k)
	if inc.active[r] == active {
		return
	}
	inc.active[r] = active
	d := int32(-1)
	if active {
		d = 1
		inc.warmOK = false // a join can lower rates: no warm start
	}
	for _, s := range inc.recvSlots[inc.recvSlotStart[r]:inc.recvSlotStart[r+1]] {
		inc.slotActive[s] += d
	}
	inc.rates[r] = 0
	inc.frozen[r] = false
}

// Rate returns r_{i,k}'s rate in the last filled allocation (0 while
// departed).
func (inc *Incremental) Rate(i, k int) float64 { return inc.rates[inc.rid(i, k)] }

// RatesSnapshot copies the current allocation into a fresh per-session
// rate matrix.
func (inc *Incremental) RatesSnapshot() [][]float64 {
	out := make([][]float64, inc.net.NumSessions())
	for i := range out {
		n := inc.net.Session(i).NumReceivers()
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			out[i][k] = inc.rates[inc.rid(i, k)]
		}
	}
	return out
}

// Cause returns why r_{i,k} froze in the last fill; ok is false for
// departed receivers.
func (inc *Incremental) Cause(i, k int) (Cause, bool) {
	r := inc.rid(i, k)
	if !inc.frozen[r] {
		return Cause{}, false
	}
	return inc.causes[r], true
}

// Rounds returns the last fill's filling-iteration count.
func (inc *Incremental) Rounds() int { return inc.rounds }

// Fill recomputes the max-min fair allocation for the current
// membership. Allocation-free after construction.
func (inc *Incremental) Fill() error {
	// Reset fill state: every active receiver rises from the warm-start
	// level, everything else sits at 0.
	level := 0.0
	if inc.warmOK {
		level = inc.warmLevel
	}
	inc.actList = inc.actList[:0]
	copy(inc.slotFill, inc.slotActive)
	for r := 0; r < inc.nR; r++ {
		inc.frozen[r] = false
		if inc.active[r] {
			inc.rates[r] = level
			inc.actList = append(inc.actList, int32(r))
		} else {
			inc.rates[r] = 0
		}
	}
	round := 0
	for len(inc.actList) > 0 {
		t, err := inc.step(level)
		if err != nil {
			return err
		}
		level += t
		inc.setRising(level)
		removed := inc.freeze(round)
		if removed == 0 {
			return fmt.Errorf("maxmin: no progress at level %v after round %d (invalid link-rate function?)", level, round)
		}
		round++
	}
	inc.rounds = round
	// The next epoch may warm-start here if it only removes receivers.
	// The minimum rate is the fill level only when unweighted.
	inc.warmLevel = math.Inf(1)
	for r := 0; r < inc.nR; r++ {
		if inc.active[r] && inc.rates[r] < inc.warmLevel {
			inc.warmLevel = inc.rates[r]
		}
	}
	inc.warmOK = inc.weights == nil && !math.IsInf(inc.warmLevel, 1)
	return nil
}

// step returns the largest increment t of the level that keeps the
// allocation feasible (the sup of the paper's step 3).
func (inc *Incremental) step(level float64) (float64, error) {
	// κ bound: a rising rate w·(level+t) may not exceed its session's
	// κ, so t <= κ/w - level.
	t := math.Inf(1)
	if w := inc.weights; w == nil {
		for _, r := range inc.actList {
			if slack := inc.net.Session(inc.sessionOf(int(r))).MaxRate - level; slack < t {
				t = slack
			}
		}
	} else {
		for _, r := range inc.actList {
			if slack := inc.net.Session(inc.sessionOf(int(r))).MaxRate/w[r] - level; slack < t {
				t = slack
			}
		}
	}
	if t < 0 {
		t = 0
	}
	if !inc.generic {
		return inc.closedFormStep(level, t)
	}
	return inc.bisectStep(level, t)
}

// sessionOf recovers rid's session by binary search over the offsets.
func (inc *Incremental) sessionOf(r int) int {
	lo, hi := 0, len(inc.off)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if int(inc.off[mid]) <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// slotFrozenMax returns the highest settled rate among the slot's
// receivers (frozen receivers keep their freeze level; departed ones
// read 0).
func (inc *Incremental) slotFrozenMax(s int) float64 {
	m := 0.0
	for _, r := range inc.slotRecv[inc.slotRecvStart[s]:inc.slotRecvStart[s+1]] {
		if inc.slotRising(int(r)) {
			continue
		}
		if inc.rates[r] > m {
			m = inc.rates[r]
		}
	}
	return m
}

// slotRising reports whether rid is still rising in the current fill.
func (inc *Incremental) slotRising(r int) bool { return inc.active[r] && !inc.frozen[r] }

// closedFormStep implements the paper's step 3 exactly for v = max and
// unit weights: on each link the total rate rises with slope Σ_i
// δ_{i,j}(T), where δ is 1 if session i has a rising receiver there.
func (inc *Incremental) closedFormStep(level, t float64) (float64, error) {
	nl := inc.net.NumLinks()
	for j := 0; j < nl; j++ {
		slope := 0
		base := 0.0
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			if inc.slotFill[s] > 0 {
				slope++
				base += level
			} else {
				base += inc.slotFrozenMax(s)
			}
		}
		if slope == 0 {
			continue
		}
		tj := (inc.net.Capacity(j) - base) / float64(slope)
		if tj < 0 {
			tj = 0
		}
		if tj < t {
			t = tj
		}
	}
	if math.IsInf(t, 1) {
		return 0, ErrUnbounded
	}
	return t, nil
}

// bisectStep finds the sup increment by bisection against arbitrary
// monotone link-rate functions.
func (inc *Incremental) bisectStep(level, kappaBound float64) (float64, error) {
	// Since every v_i dominates max, a link crossed by a rising receiver
	// of weight w carries u_j >= w·(level+t), so t <= c_j/w - level.
	hi := kappaBound
	for j := 0; j < inc.net.NumLinks(); j++ {
		if w := inc.risingWeight(j); w > 0 {
			if b := inc.net.Capacity(j)/w - level; b < hi {
				hi = b
			}
		}
	}
	if math.IsInf(hi, 1) {
		return 0, ErrUnbounded
	}
	if hi <= 0 {
		return 0, nil
	}
	if inc.feasibleAt(level, hi) {
		return hi, nil
	}
	lo := 0.0
	for iter := 0; iter < 200 && hi-lo > 1e-13*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if inc.feasibleAt(level, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// risingWeight returns the largest weight among link j's rising
// receivers (1 when unweighted), or 0 when none rises there.
func (inc *Incremental) risingWeight(j int) float64 {
	w := 0.0
	for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
		if inc.slotFill[s] == 0 {
			continue
		}
		if inc.weights == nil {
			return 1
		}
		for _, r := range inc.slotRecv[inc.slotRecvStart[s]:inc.slotRecvStart[s+1]] {
			if inc.slotRising(int(r)) && inc.weights[r] > w {
				w = inc.weights[r]
			}
		}
	}
	return w
}

// feasibleAt reports whether raising the level by t keeps every link
// within capacity. It puts the rising receivers at level+t in place:
// Fill sets their rates again once the step is chosen.
func (inc *Incremental) feasibleAt(level, t float64) bool {
	inc.setRising(level + t)
	for j := 0; j < inc.net.NumLinks(); j++ {
		u := 0.0
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			u += inc.slotLinkRate(s)
		}
		if u > inc.net.Capacity(j)+1e-15 {
			return false
		}
	}
	return true
}

// setRising sets every rising receiver's rate to w·level (level when
// unweighted).
func (inc *Incremental) setRising(level float64) {
	if w := inc.weights; w == nil {
		for _, r := range inc.actList {
			inc.rates[r] = level
		}
	} else {
		for _, r := range inc.actList {
			inc.rates[r] = w[r] * level
		}
	}
}

// slotLinkRate is the slot session's link rate at the current rates of
// its active receivers. Departed receivers are not downstream of the
// link and are left out.
func (inc *Incremental) slotLinkRate(s int) float64 {
	inc.rateBuf = inc.rateBuf[:0]
	for _, r := range inc.slotRecv[inc.slotRecvStart[s]:inc.slotRecvStart[s+1]] {
		if inc.active[r] {
			inc.rateBuf = append(inc.rateBuf, inc.rates[r])
		}
	}
	return inc.net.Session(int(inc.slotSess[s])).EffectiveLinkRate(inc.rateBuf)
}

// freeze settles the receivers that can rise no further (steps 6 and
// 7: κ reached, a saturated link on the data-path, a single-rate peer
// frozen), recording causes, and returns how many froze. Rising rates
// hold this round's level.
func (inc *Incremental) freeze(round int) int {
	net := inc.net
	for j := 0; j < net.NumLinks(); j++ {
		u := 0.0
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			u += inc.slotLinkRate(s)
		}
		inc.saturated[j] = netmodel.Geq(u, net.Capacity(j))
	}
	inc.frozenIDs = inc.frozenIDs[:0]
	for _, r := range inc.actList {
		i := inc.sessionOf(int(r))
		k := int(r) - int(inc.off[i])
		if netmodel.Geq(inc.rates[r], net.Session(i).MaxRate) {
			inc.causes[r] = Cause{Kind: CauseMaxRate, Link: -1, Round: round}
			inc.frozenIDs = append(inc.frozenIDs, r)
			continue
		}
		for _, j := range net.Path(i, k) {
			if inc.saturated[j] && inc.limits(int(r), j) {
				inc.causes[r] = Cause{Kind: CauseLink, Link: j, Round: round}
				inc.frozenIDs = append(inc.frozenIDs, r)
				break
			}
		}
	}
	for _, r := range inc.frozenIDs {
		inc.settle(int(r))
	}
	n := len(inc.frozenIDs)
	// Single-rate cascade: a frozen receiver freezes its whole session.
	for _, r := range inc.frozenIDs {
		i := inc.sessionOf(int(r))
		if net.Session(i).Type != netmodel.SingleRate {
			continue
		}
		link := inc.causes[r].Link
		for k := 0; k < net.Session(i).NumReceivers(); k++ {
			if pr := inc.rid(i, k); inc.slotRising(pr) {
				inc.causes[pr] = Cause{Kind: CauseSessionPeer, Link: link, Round: round}
				inc.settle(pr)
				n++
			}
		}
	}
	out := inc.actList[:0]
	for _, r := range inc.actList {
		if !inc.frozen[r] {
			out = append(out, r)
		}
	}
	inc.actList = out
	return n
}

// limits reports whether saturated link j stops rising receiver r,
// that is, whether raising r's rate raises its session's usage of j.
// Unweighted, r holds its session's top rate on every link it crosses
// (frozen peers stopped at lower levels), so every saturated link stops
// it. Weighted, a receiver below its session's top rate on j is not
// charged there under v = max and keeps rising.
func (inc *Incremental) limits(r, j int) bool {
	if inc.weights == nil {
		return true
	}
	for _, s := range inc.recvSlots[inc.recvSlotStart[r]:inc.recvSlotStart[r+1]] {
		if s < inc.slotStart[j] || s >= inc.slotStart[j+1] {
			continue
		}
		u, old := inc.slotLinkRate(int(s)), inc.rates[r]
		inc.rates[r] = old + netmodel.Eps*(1+old)
		up := inc.slotLinkRate(int(s)) > u
		inc.rates[r] = old
		return up
	}
	return false
}

// settle marks rid frozen and takes it out of its slots' rising counts.
func (inc *Incremental) settle(r int) {
	inc.frozen[r] = true
	for _, s := range inc.recvSlots[inc.recvSlotStart[r]:inc.recvSlotStart[r+1]] {
		inc.slotFill[s]--
	}
}

// MembershipEvent toggles one receiver's membership at a point in
// time — the epoch currency of Timeline (churn joins and leaves, with
// slow-leave linger expiry modeled by shifting the leave time).
type MembershipEvent struct {
	Time     float64
	Session  int
	Receiver int
	Join     bool
}

// TimelineEpoch is the max-min fair allocation in effect from Time
// until the next epoch. Departed receivers carry rate 0.
type TimelineEpoch struct {
	Time   float64
	Rates  [][]float64
	Rounds int
}

// Timeline computes the fair allocation across a membership schedule
// with one epoch-incremental allocator: epoch 0 at time 0 has every
// receiver joined (events at time 0 fold into it), and each later
// distinct event time opens one epoch. Events are applied in time
// order (stable for ties). Redundant events (joining a joined
// receiver) are no-ops, matching the engine's churn semantics.
func Timeline(net *netmodel.Network, events []MembershipEvent) ([]TimelineEpoch, error) {
	for x, ev := range events {
		if ev.Time < 0 || math.IsNaN(ev.Time) {
			return nil, fmt.Errorf("maxmin: timeline event %d at time %v", x, ev.Time)
		}
		if ev.Session < 0 || ev.Session >= net.NumSessions() {
			return nil, fmt.Errorf("maxmin: timeline event %d session %d out of range", x, ev.Session)
		}
		if ev.Receiver < 0 || ev.Receiver >= net.Session(ev.Session).NumReceivers() {
			return nil, fmt.Errorf("maxmin: timeline event %d receiver %d out of range", x, ev.Receiver)
		}
	}
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b MembershipEvent) int {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		}
		return 0
	})
	inc, err := NewIncremental(net)
	if err != nil {
		return nil, err
	}
	var out []TimelineEpoch
	emit := func(at float64) error {
		if err := inc.Fill(); err != nil {
			return fmt.Errorf("maxmin: timeline epoch at t=%v: %w", at, err)
		}
		out = append(out, TimelineEpoch{Time: at, Rates: inc.RatesSnapshot(), Rounds: inc.Rounds()})
		return nil
	}
	x := 0
	for x < len(sorted) && sorted[x].Time == 0 {
		inc.SetActive(sorted[x].Session, sorted[x].Receiver, sorted[x].Join)
		x++
	}
	if err := emit(0); err != nil {
		return nil, err
	}
	for x < len(sorted) {
		at := sorted[x].Time
		for x < len(sorted) && sorted[x].Time == at {
			inc.SetActive(sorted[x].Session, sorted[x].Receiver, sorted[x].Join)
			x++
		}
		if err := emit(at); err != nil {
			return nil, err
		}
	}
	return out, nil
}
