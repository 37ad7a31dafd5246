package maxmin

import (
	"fmt"
	"math"
	"slices"

	"mlfair/internal/netmodel"
)

// Incremental maintains the max-min fair allocation of a network
// across membership epochs: receivers join and leave (churn, slow-leave
// expiry), and each Fill recomputes the fair allocation for the current
// membership by progressive filling — warm-started from the previous
// fill instead of rebuilt from scratch.
//
// Versus running Allocate on a rebuilt sub-network per epoch, the
// incremental allocator
//
//   - keeps every per-link crossing structure as flat index arrays built
//     once (the batch filler's maps are gone), with per-(link, session)
//     active-receiver counts maintained in O(path length) per membership
//     toggle rather than rescanned per epoch;
//   - reuses all filling scratch across epochs, so an epoch allocates
//     nothing; and
//   - warm-starts the water level after leave-only epochs: link usage
//     at a common level is monotone in the receiver set (every v_i
//     dominates a monotone max), so before the previous epoch's minimum
//     active rate no link can saturate, no κ can bind, and no cascade
//     can trigger — no receiver freezes strictly below that minimum,
//     and the fill may start there instead of at zero. (Individual
//     rates above the minimum can still drop after a leave — a
//     single-rate session whose bottleneck departs rises into links it
//     shares — which is why the warm start is pinned to the minimum.)
//
// Departed receivers have rate 0 and no cause. The fill itself follows
// Allocate exactly (progressive filling with the closed-form step when
// every session uses the efficient v = max, bisection otherwise), so
// epoch allocations equal the batch allocator's output on the
// active-receiver sub-network — the property the incremental-vs-batch
// test pins.
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
	// function, forcing bisection steps (exactly the batch filler's
	// criterion).
	generic bool

	// Warm-start state.
	warmLevel float64 // valid when warmOK: previous fill's min active rate
	warmOK    bool    // no join since the last fill, and lastMin is defined

	// Fill scratch, reused across epochs.
	slotFill  []int32   // slot's active-and-unfrozen receiver count
	actList   []int32   // rids still rising
	saturated []bool    // per link
	rateBuf   []float64 // EffectiveLinkRate argument buffer
	frozenIDs []int32   // rids frozen this round
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
		for _, r := range inc.actList {
			inc.rates[r] = level
		}
		removed := inc.freeze(level, round)
		if removed == 0 {
			return fmt.Errorf("maxmin: incremental fill stalled at level %v after round %d (invalid link-rate function?)", level, round)
		}
		round++
	}
	inc.rounds = round
	// The next epoch may warm-start here if it only removes receivers.
	inc.warmLevel = math.Inf(1)
	for r := 0; r < inc.nR; r++ {
		if inc.active[r] && inc.rates[r] < inc.warmLevel {
			inc.warmLevel = inc.rates[r]
		}
	}
	inc.warmOK = !math.IsInf(inc.warmLevel, 1)
	return nil
}

// step returns the largest uniform increment for the still-rising
// receivers (the batch filler's step on flat state).
func (inc *Incremental) step(level float64) (float64, error) {
	t := math.Inf(1)
	for _, r := range inc.actList {
		i := inc.sessionOf(int(r))
		if slack := inc.net.Session(i).MaxRate - level; slack < t {
			t = slack
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

func (inc *Incremental) bisectStep(level, kappaBound float64) (float64, error) {
	hi := kappaBound
	for j := 0; j < inc.net.NumLinks(); j++ {
		has := false
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			if inc.slotFill[s] > 0 {
				has = true
				break
			}
		}
		if has {
			if b := inc.net.Capacity(j) - level; b < hi {
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

func (inc *Incremental) feasibleAt(level, t float64) bool {
	for j := 0; j < inc.net.NumLinks(); j++ {
		u := 0.0
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			u += inc.slotLinkRateAt(s, level+t)
		}
		if u > inc.net.Capacity(j)+1e-15 {
			return false
		}
	}
	return true
}

// slotLinkRateAt evaluates the slot session's link rate with its rising
// receivers at the given level (the batch filler's sessionLinkRateAt).
func (inc *Incremental) slotLinkRateAt(s int, at float64) float64 {
	inc.rateBuf = inc.rateBuf[:0]
	for _, r := range inc.slotRecv[inc.slotRecvStart[s]:inc.slotRecvStart[s+1]] {
		v := inc.rates[r]
		if inc.slotRising(int(r)) {
			v = at
		}
		inc.rateBuf = append(inc.rateBuf, v)
	}
	return inc.net.Session(int(inc.slotSess[s])).EffectiveLinkRate(inc.rateBuf)
}

// freeze settles receivers that can rise no further (κ, saturated path
// link, single-rate peer cascade), in the batch filler's order.
func (inc *Incremental) freeze(level float64, round int) int {
	net := inc.net
	for j := 0; j < net.NumLinks(); j++ {
		u := 0.0
		for s := int(inc.slotStart[j]); s < int(inc.slotStart[j+1]); s++ {
			u += inc.slotLinkRateAt(s, level)
		}
		inc.saturated[j] = netmodel.Geq(u, net.Capacity(j))
	}
	inc.frozenIDs = inc.frozenIDs[:0]
	for _, r := range inc.actList {
		i := inc.sessionOf(int(r))
		k := int(r) - int(inc.off[i])
		if netmodel.Geq(level, net.Session(i).MaxRate) {
			inc.causes[r] = Cause{Kind: CauseMaxRate, Link: -1, Round: round}
			inc.frozenIDs = append(inc.frozenIDs, r)
			continue
		}
		for _, j := range net.Path(i, k) {
			if inc.saturated[j] {
				inc.causes[r] = Cause{Kind: CauseLink, Link: j, Round: round}
				inc.frozenIDs = append(inc.frozenIDs, r)
				break
			}
		}
	}
	n := len(inc.frozenIDs)
	inc.settle(inc.frozenIDs)
	// Single-rate cascade: a frozen receiver freezes its whole session.
	for _, r := range inc.frozenIDs[:n] {
		i := inc.sessionOf(int(r))
		if net.Session(i).Type != netmodel.SingleRate {
			continue
		}
		link := inc.causes[r].Link
		for k := 0; k < net.Session(i).NumReceivers(); k++ {
			pr := inc.rid(i, k)
			if inc.slotRising(pr) {
				inc.causes[pr] = Cause{Kind: CauseSessionPeer, Link: link, Round: round}
				inc.frozenIDs = append(inc.frozenIDs, int32(pr))
				inc.settle(inc.frozenIDs[len(inc.frozenIDs)-1:])
				n++
			}
		}
	}
	return n
}

// settle marks rids frozen, updates the per-slot rising counts, and
// compacts them out of the rising list.
func (inc *Incremental) settle(rids []int32) {
	for _, r := range rids {
		inc.frozen[r] = true
		for _, s := range inc.recvSlots[inc.recvSlotStart[r]:inc.recvSlotStart[r+1]] {
			inc.slotFill[s]--
		}
	}
	out := inc.actList[:0]
	for _, r := range inc.actList {
		if !inc.frozen[r] {
			out = append(out, r)
		}
	}
	inc.actList = out
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
