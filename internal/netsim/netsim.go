// Package netsim is THE discrete-event, packet-level simulator for
// layered multicast congestion control over arbitrary netmodel.Network
// graphs. Every simulated result of the reproduction runs on it: the
// paper's Section 4 modified star (Star; Figures 7(b) and 8), the
// Section 5 leave-latency and priority-drop extensions
// (Config.LeaveLatency, PriorityDrop), the closed-loop star
// (CapacityStar), and the loss trees and large topologies the scenario
// package compiles.
//
// The engine runs the paper's general network model N = (G, {S_i}, τ, Γ)
// forward in time: every session transmits the Section 4 exponential
// layer scheme from its sender; packets are forwarded down the session's
// multicast tree (the union of its receivers' data-paths) with idealized
// pruning — a packet enters a link iff some subscribed receiver below it
// wants its layer; each link applies a pluggable loss/queue model
// (LinkSpec): exogenous Bernoulli loss, a fluid capacity-coupled
// drop, or a finite droptail queue with service rate, buffer, and
// propagation delay, optionally sharing its capacity with constant
// background cross-traffic (the TCP-over-ABR/UBR setting). Receivers run
// the protocol package's join/leave state machines; sessions may see
// membership churn (ChurnEvent). Losses are observed by every subscribed
// receiver below the dropping link at the drop instant (the paper's
// instant-feedback idealization); successful deliveries arrive after
// queueing and propagation delay when the link model has any.
//
// The measured outputs are per-receiver long-run throughput and the
// paper's Definition 3 redundancy per (link, session): the session's
// packet rate across the link divided by the best goodput among its
// receivers downstream of the link.
//
// # Engine internals
//
// The hot path is allocation-free at steady state and sized for
// hundreds of links times dozens of sessions:
//
//   - Sender transmissions never touch the scheduler: the exponential
//     scheme's periods are dyadic, so each session's due layers at a
//     tick are the contiguous range given by the tick counter's
//     trailing zeros — one integer op per packet instead of a heap
//     round trip. The queue (32-byte events in a preallocated 4-ary
//     heap whose backing array is the event pool) holds only delayed
//     DropTail deliveries, churn, and the signal clock, with
//     same-instant ties broken on a packed (priority, sequence) key.
//   - Each session's multicast tree is renumbered in DFS pre-order and
//     flattened to CSR arrays; every tree edge is split into a 32-byte
//     hot record (admission class, capacity-row index, the entered
//     node's receiver and child blocks — everything the walk reads
//     every crossing, two edges per cache line in DFS order) and a
//     cold record (drop counter, geometric-sampling constant — read
//     only on refills and at result time), with the crossing and
//     loss-gap counters in dense parallel arrays, so a packet hop
//     touches half the cache footprint of the old fused 64-byte
//     record.
//   - Packet delivery is batched: one transmission drains the whole
//     multicast tree in a fused, iterative loop (reusable work stack,
//     tail-descent into the first eligible child), delivering and
//     deciding admission inline; sessions whose links are all
//     Perfect/Bernoulli take a variant with the admission switch
//     compiled out.
//   - Delivery is output-sensitive. A node hosting several receivers
//     counts each packet once, in a per-layer counter row shaped like
//     its subscription row; a receiver's delivered count is an offset
//     plus its node's counters below its level (delivered), and every
//     level change settles the offset. A Coordinated delivery touches
//     no receiver. Under a countdown protocol, a receiver's countdown is
//     stored relative to its (node, level) run: the packets the level
//     has received there since it was last settled. A packet bumps the
//     runs of the levels above its layer, and a level is settled, its
//     receivers read from per-level subscription bitmaps, only when its
//     run reaches the smallest stored countdown (deliverShared). The
//     receivers found due join in the ascending order a scan would
//     take, so every join's RNG draw keeps its place. A node hosting one
//     receiver keeps the inline per-receiver count (deliverSingle).
//   - Bernoulli drops are realized by geometric inter-drop gap counters
//     (one RNG draw per drop, not per crossing — the identical law;
//     links with layer-dependent loss tables fall back to a direct draw
//     per crossing), and the protocol state machines are flattened into
//     parallel arrays with their transitions inlined (mirroring
//     protocol.Receiver exactly; the protocol package's unit tests and
//     the star, tree and closed-loop behavioural suites guard the
//     equivalence).
//   - The paper's "maximum joined layer below a link" is maintained
//     incrementally: each node keeps per-level contribution counts in a
//     power-of-two-stride row (single-contribution nodes skip even
//     that), and a receiver level change updates only the O(depth) path
//     to the root, stopping at the first node whose maximum stands.
//     Wide nodes (fan-out > 16, the star-hub pattern) additionally keep
//     their child edges counting-sorted by descending subtree level so
//     forwarding enumerates exactly the children that still want the
//     layer; narrow nodes scan a dense per-edge mirror instead.
//   - A star's hub is crossed in one pass. A wide node whose children
//     are all single-receiver leaves over Perfect or plain Bernoulli
//     links (a leaf hub) has its eligible leaves crossed by one tight
//     loop (crossHub) instead of one stack push, pop and descent each:
//     the loop counts every crossing, delivery and countdown step that
//     draws no randomness and moves no level, and hands the leaves due
//     a loss-gap refill, a drop or a join back to the walk, in the order
//     the walk would have crossed them, so every RNG draw keeps its
//     place.
//   - Under a leave latency, the windows during which an edge keeps
//     carrying a layer its subtree abandoned sit in per-(node, layer)
//     lists in closing order, so a packet arriving at a node counts the
//     lingering crossings of the open windows alone, instead of scanning
//     every child.
//   - Per-link fluid demand for Capacity links is maintained
//     incrementally as subscriptions move (exact for the power-of-two
//     exponential scheme), so admission is O(1); congestion
//     notification scans the receivers below the dropping edge as one
//     range of the pre-order receiver list (a DFS subtree is a
//     contiguous node interval) instead of re-walking the subtree.
//
// Determinism contract: a Config's results are a pure function of its
// fields including Seed. All randomness flows from one PCG stream whose
// consumption order is fixed by the engine's total event order (heap
// order, then transmissions session- and layer-ascending, then signals)
// and the deterministic child order within a packet's tree walk, so
// equal configs give bit-identical Results on any platform and any
// replication-worker count.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"mlfair/internal/layering"
	"mlfair/internal/netmodel"
	"mlfair/internal/protocol"
)

// MaxLayers bounds SessionConfig.Layers: the protocol package's join
// thresholds 2^(2(M-1)) overflow int64 beyond 32 layers, and the
// engine's dyadic transmit calendar needs the layer-period ratios to
// fit a uint64 tick counter. The paper uses at most 10.
const MaxLayers = protocol.MaxLevel

// wideFanout is the child count above which a node's edge block is kept
// counting-sorted for output-sensitive enumeration; at or below it, a
// linear scan of the dense edgeSub mirror is cheaper than maintaining
// the ordering.
const wideFanout = 16

// SessionConfig sets one session's protocol parameters.
type SessionConfig struct {
	// Protocol is the join-coordination discipline.
	Protocol protocol.Kind
	// Layers is M, the depth of the exponential layer scheme (1..MaxLayers).
	Layers int
}

// ChurnEvent toggles one receiver's session membership at a given time.
// A joining receiver starts fresh at the base layer; a leaving receiver
// stops receiving, stops counting for pruning, and contributes nothing
// to link demand until it rejoins.
type ChurnEvent struct {
	Time     float64
	Session  int
	Receiver int
	// Join is true for a (re-)join, false for a leave.
	Join bool
}

// Config parameterizes one run of the general engine.
type Config struct {
	// Network supplies the graph, the sessions (senders, receivers,
	// data-paths), and per-link capacities. Each session's data-paths
	// must form a multicast tree rooted at its sender (networks built by
	// routing.BuildNetwork always do); abstract Builder networks and
	// multi-sender sessions are rejected.
	Network *netmodel.Network
	// Links configures each link's loss/queue model, indexed like the
	// graph's links. Nil means every link is Perfect (lossless).
	Links []LinkSpec
	// Sessions configures each session's protocol, indexed like the
	// network's sessions.
	Sessions []SessionConfig
	// Packets is the total transmission budget summed over all senders.
	Packets int
	// SignalPeriod is the Coordinated protocols' base signal period
	// (0 = 1.0); one global signal clock drives all Coordinated sessions.
	SignalPeriod float64
	// Churn lists membership changes, in any order.
	Churn []ChurnEvent
	// Probe turns on streaming observation windows (ProbeConfig): the
	// run is sampled into Result.Probe. Nil means no probing. Probing
	// never changes dynamics: every other Result field is bit-identical
	// with probes on or off.
	Probe *ProbeConfig
	// Stats, when non-nil, receives the run's engine statistics
	// (cumulative atomic counters — see EngineStats). The same sink may
	// be shared by concurrent replications. Stats never change dynamics:
	// every Result field is bit-identical with stats on or off, and the
	// counters are flushed once at the end of the run, not per event.
	Stats *EngineStats
	// Shards selects how the run is split. 0 (the default) runs every
	// session as one group: one event loop and one RNG stream, with no
	// link-connectivity split and no subtree partition. Any value >= 1
	// enables session-sharded execution: sessions whose multicast trees
	// share no link (computed by union-find over link sets) run as
	// independent event loops on up to Shards concurrent goroutines, each
	// with its own calendar and a per-group RNG stream derived from Seed,
	// merged deterministically at result time. The Result is a pure
	// function of the Config alone — every Shards >= 1 yields the
	// identical Result, so the value only tunes parallelism, never
	// output.
	Shards int
	// CutLinks, under Shards >= 1, names the links whose tree edges cut
	// a single-session shard group's tree into a core prefix and
	// link-disjoint subtrees, each walked on its own RNG stream after the
	// core walk (see subtree.go; for the planetary topology: the access
	// links below firstAccess). The subtrees run sequentially; CutLinks
	// selects a realization, not a degree of parallelism. Empty means no
	// cut; it is ignored at Shards == 0.
	CutLinks []int
	// MemBudget, when positive, caps the engine's planned peak memory in
	// bytes: Run calls PlanMemory first and fails fast — before any
	// large allocation — when the plan exceeds the budget. 0 disables
	// the check.
	MemBudget int64
	// LeaveLatency models slow IGMP-style leave processing (the paper's
	// Section 5 concern): after the highest subscription below a link
	// drops, the link keeps carrying the abandoned layers for this many
	// time units. Lingering crossings consume link bandwidth (they count
	// in LinkStats.Crossed) but deliver nothing, observe no losses, and
	// draw no randomness — so receiver dynamics, and every link's drops
	// and fluid usage, are identical across latencies at equal seeds.
	LeaveLatency float64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
}

// LinkStats is the per-(link, session) measurement.
type LinkStats struct {
	// Link is the graph link index; Session the session index.
	Link, Session int
	// Crossed counts the session's packets that entered the link
	// (consuming bandwidth even when the link itself drops them).
	Crossed int
	// Rate is Crossed over the run duration.
	Rate float64
	// Redundancy is Definition 3 on this link: Rate over the best
	// long-run goodput among the session's receivers downstream (0 when
	// no downstream receiver ever received).
	Redundancy float64
	// DownstreamReceivers is |R_{i,j}|, the session's receiver count on
	// the link.
	DownstreamReceivers int
	// Dropped counts the session's packets this link itself dropped
	// (Crossed includes them: a dropped packet still consumed the link).
	Dropped int
	// FluidRate is the session's time-average fluid demand on the link:
	// the integral of the cumulative scheme rate of the highest
	// subscription level below the link, over the run duration. This is
	// the u_{i,j} the paper's fluid analysis assigns to the session and
	// the quantity the capacity-coupled drop law meters; on a
	// CapacityStar's shared link it is each session's usage of the
	// bottleneck.
	FluidRate float64
}

// Result summarizes one run.
type Result struct {
	// ReceiverRates[i][k] is receiver r_{i,k}'s long-run goodput in
	// packets per time unit.
	ReceiverRates [][]float64
	// ReceiverPackets[i][k] is the exact delivered-packet count behind
	// ReceiverRates (the invariant-test currency: deliveries can never
	// exceed the packets that crossed any link on the receiver's path).
	ReceiverPackets [][]int
	// FinalLevels[i][k] is r_{i,k}'s subscription level when the run
	// ended: in [1, Layers] while joined, 0 after a churn departure.
	FinalLevels [][]int
	// MeanLevels[i] is session i's time-average subscription level,
	// averaged across its receivers (receivers departed by churn count
	// level 0 while away) — the mean-level diagnostic of the star
	// runs.
	MeanLevels []float64
	// Links holds per-(link, session) stats for every link crossed by at
	// least one receiver of the session, in link-major order.
	Links []LinkStats
	// Probe holds the run's retained observation windows (nil unless
	// Config.Probe was set).
	Probe *ProbeSeries
	// PacketsSent counts sender transmissions across all sessions.
	PacketsSent int
	// Duration is the simulated time.
	Duration float64
	// Events counts engine events processed — sender transmissions,
	// scheduled-event pops, per-link packet admissions, and receiver
	// deliveries (the denominator of the benchmark suite's events/sec
	// and allocs/event metrics).
	Events int64
}

// LinkRedundancy returns the Definition 3 redundancy of a session on a
// link, or 0 if the session has no receivers across it.
func (r *Result) LinkRedundancy(link, session int) float64 {
	for _, ls := range r.Links {
		if ls.Link == link && ls.Session == session {
			return ls.Redundancy
		}
	}
	return 0
}

// SessionRedundancy returns the session's redundancy on its root link:
// the highest-rate link stats entry touching the session's sender-side
// tree, defined as the link carrying the most session packets. For a
// star or tree this is the link out of the sender.
func (r *Result) SessionRedundancy(session int) float64 {
	best := LinkStats{}
	for _, ls := range r.Links {
		if ls.Session == session && ls.Crossed >= best.Crossed {
			best = ls
		}
	}
	return best.Redundancy
}

func (c *Config) validate() error {
	if c.Network == nil {
		return fmt.Errorf("netsim: nil network")
	}
	if c.Network.NumSessions() == 0 {
		return fmt.Errorf("netsim: network has no sessions")
	}
	if len(c.Sessions) != c.Network.NumSessions() {
		return fmt.Errorf("netsim: %d session configs for %d sessions", len(c.Sessions), c.Network.NumSessions())
	}
	if c.Links != nil && len(c.Links) != c.Network.NumLinks() {
		return fmt.Errorf("netsim: %d link specs for %d links", len(c.Links), c.Network.NumLinks())
	}
	for j, spec := range c.Links {
		if err := spec.validate(j, c.Network.Capacity(j)); err != nil {
			return err
		}
	}
	if c.Packets < 1 {
		return fmt.Errorf("netsim: Packets = %d", c.Packets)
	}
	if c.SignalPeriod < 0 || math.IsInf(c.SignalPeriod, 0) || math.IsNaN(c.SignalPeriod) {
		return fmt.Errorf("netsim: SignalPeriod = %v", c.SignalPeriod)
	}
	if !(c.LeaveLatency >= 0) || math.IsInf(c.LeaveLatency, 0) {
		return fmt.Errorf("netsim: LeaveLatency = %v", c.LeaveLatency)
	}
	if c.Shards < 0 {
		return fmt.Errorf("netsim: Shards = %d", c.Shards)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("netsim: MemBudget = %d", c.MemBudget)
	}
	if c.Probe != nil {
		if err := c.Probe.validate(); err != nil {
			return err
		}
	}
	for _, j := range c.CutLinks {
		if j < 0 || j >= c.Network.NumLinks() {
			return fmt.Errorf("netsim: CutLinks entry %d out of range [0, %d)", j, c.Network.NumLinks())
		}
	}
	for i, sc := range c.Sessions {
		if sc.Layers < 1 {
			return fmt.Errorf("netsim: session %d: Layers = %d", i, sc.Layers)
		}
		if sc.Layers > MaxLayers {
			return fmt.Errorf("netsim: session %d: Layers = %d exceeds MaxLayers = %d", i, sc.Layers, MaxLayers)
		}
		if sc.Protocol < protocol.Uncoordinated || sc.Protocol > protocol.Coordinated {
			return fmt.Errorf("netsim: session %d: unknown Protocol %v", i, sc.Protocol)
		}
		s := c.Network.Session(i)
		if s.Sender < 0 {
			return fmt.Errorf("netsim: session %d has no concrete sender node (abstract networks are not simulable)", i)
		}
		if len(s.ExtraSenders) > 0 {
			return fmt.Errorf("netsim: session %d: multi-sender sessions are not supported", i)
		}
	}
	for ci, ev := range c.Churn {
		if ev.Time < 0 || math.IsInf(ev.Time, 0) || math.IsNaN(ev.Time) {
			return fmt.Errorf("netsim: churn %d at negative time %v", ci, ev.Time)
		}
		if ev.Session < 0 || ev.Session >= c.Network.NumSessions() {
			return fmt.Errorf("netsim: churn %d session %d out of range", ci, ev.Session)
		}
		if ev.Receiver < 0 || ev.Receiver >= c.Network.Session(ev.Session).NumReceivers() {
			return fmt.Errorf("netsim: churn %d receiver %d out of range", ci, ev.Receiver)
		}
	}
	return c.validateClocks()
}

// maxRounds caps how often a periodic clock may fire over one run: the
// same 2^20 bound scenario puts on a periodic churn process's rounds.
// A run whose packet budget is larger may fire a clock once per
// transmission, which costs no more than the run's own work.
const maxRounds = 1 << 20

// validateClocks bounds the firings of the time-driven clocks — probe
// windows and the Coordinated signal clock — over the run's horizon.
// Both clocks advance by repeated addition, which stops moving once the
// period falls below the clock's float precision, so a tiny period
// would never let the run end. The horizon is taken in closed form as
// Packets over the sessions' aggregate sending rate Σ_i 2^(M_i−1), so
// the check costs O(sessions).
func (c *Config) validateClocks() error {
	rate := 0.0
	signalled := false
	for _, sc := range c.Sessions {
		rate += math.Ldexp(1, sc.Layers-1)
		if sc.Protocol == protocol.Coordinated && sc.Layers > 1 {
			signalled = true
		}
	}
	horizon := float64(c.Packets) / rate
	limit := max(maxRounds, c.Packets)
	if c.Probe != nil && c.Probe.Window > 0 {
		if n := horizon / c.Probe.Window; n > float64(limit) {
			return fmt.Errorf("netsim: probe Window = %v closes %.3g windows over the run's %.4g time units (limit %d)",
				c.Probe.Window, n, horizon, limit)
		}
	}
	if signalled {
		period := c.SignalPeriod
		if period == 0 {
			period = 1
		}
		if n := horizon / period; n > float64(limit) {
			return fmt.Errorf("netsim: SignalPeriod = %v fires %.3g signals over the run's %.4g time units (limit %d)",
				c.SignalPeriod, n, horizon, limit)
		}
	}
	return nil
}

// --- pooled event queue ---

type evKind int8

const (
	evForward evKind = iota
	evChurn
	evSignal
)

// event is a compact 32-byte value. Same-instant ties break on key,
// which packs the priority class (packet events before signals, so a
// signal sees every same-instant packet) above a monotone
// push sequence number. Sender transmissions never enter the queue —
// they live on the per-session calendar (see sessState.txNext) — so at
// steady state the queue holds only delayed deliveries, churn, and the
// signal clock.
type event struct {
	time float64
	key  uint64
	sess int32
	// layer is the packet layer; node is the arrival node for evForward
	// and the Config.Churn index for evChurn.
	layer, node int32
	kind        evKind
}

const prioSignal = uint64(1) << 56

// eventQueue is an implicit 4-ary min-heap over a preallocated event
// arena: push/pop move 32-byte values inside the backing array, which
// doubles as the event pool — no node allocations, and no appends once
// the high-water mark is reached. 4-ary beats binary here because the
// shallower tree costs fewer value moves per operation on small
// payloads.
type eventQueue struct {
	a []event
}

func evLess(x, y *event) bool {
	if x.time != y.time {
		return x.time < y.time
	}
	return x.key < y.key
}

func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&q.a[i], &q.a[p]) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	q.a = a[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if evLess(&a[c], &a[m]) {
				m = c
			}
		}
		if !evLess(&a[m], &a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// --- per-session state ---

// hotEdge is the walk-side half of a multicast-tree edge: exactly the
// 32 bytes the fused forwarding loop reads on every crossing — the
// graph link, the resolved capacity-row index, the entered node's
// receiver and child-edge CSR blocks, its bucket-boundary row offset,
// and the packed admission class / wide-child flag. Records sit in DFS
// pre-order, two per cache line, so an irregular descent streams
// contiguous lines instead of striding 64-byte fused records. The
// entered node id is not stored: it is gtOff >> rowShift, needed only
// on the rare DropTail continuation path.
//
// Everything the walk touches rarely lives elsewhere: drop counters
// and the geometric-sampling constant in coldEdge (read on drops and
// gap refills only), the crossing counter and inter-drop gap in dense
// parallel int64 arrays (sessState.crossed / lossGap — written every
// crossing resp. every lossy crossing, deliberately not inflating this
// record), and the child's subscription maximum in the edgeSub mirror
// narrow-node scans already stream.
type hotEdge struct {
	link int32
	// capIdx indexes engine.capDem: the edge's own link for Capacity
	// edges, the always-admit sentinel row for every other kind (so
	// subscription-driven demand updates stay branch-free).
	capIdx         int32
	recvLo, recvHi int32 // child's block in recvList
	edgeLo, edgeHi int32 // child's own block in hot/order
	gtOff          int32 // child << rowShift: child's row in gt
	// meta packs the admission class (ek*, low bits under metaKindMask)
	// with the metaWide flag: whether the entered child is a wide node,
	// hoisted here so the descent never loads the node-indexed wide[];
	// metaHub adds whether it is a leaf hub, and metaCut marks a cut
	// edge.
	meta uint32
}

const (
	metaKindMask uint32 = 0x7
	metaWide     uint32 = 1 << 3
	// metaCut marks a subtree-partition cut edge (see subtree.go): the
	// core walk fixes its admission outcome but never descends through
	// it — the subtree below is walked once the core walk returns. A cut
	// edge also carries metaWide and an empty receiver block
	// (recvHi == recvLo), so the walk's common path never tests metaCut.
	metaCut uint32 = 1 << 4
	// metaHub marks an edge whose entered child is a leaf hub (see
	// markLeafHubs); it implies metaWide, so only the wide branch tests
	// it, after metaCut.
	metaHub uint32 = 1 << 5
)

// coldEdge is the accounting half of a tree edge: fields the walk
// touches only on drops (rare by construction) or at result time.
type coldEdge struct {
	// invLog is 1/log(1-loss) for a lossy Bernoulli link: the constant
	// factor of geometric inter-drop sampling, precomputed so a drop
	// costs one log instead of two.
	invLog float64
	drops  int64 // session packets this link dropped
}

// buildEdge is the construction-time edge seed (global node ids) that
// newEngineFor's tree discovery accumulates before the hot/cold split is
// laid out in DFS order.
type buildEdge struct {
	link, child int32
	kind        int8
	invLog      float64
}

// Admission classes, resolved from LinkKind at build time: lossless
// Bernoulli links collapse into the always-admit class.
const (
	ekAlways    int8 = iota // Perfect, or Bernoulli with zero loss
	ekBernoulli             // lossy Bernoulli: geometric gap thinning
	ekLayerLoss             // Bernoulli with per-layer loss: direct draw per crossing
	ekCapacity
	ekDropTail
)

// sessState carries one session's runtime state in flat, index-addressed
// arrays: the multicast tree (CSR), receiver placement (CSR), the
// receivers' protocol state (parallel arrays), and the per-node
// subscription aggregation that drives pruning and fluid demand.
//
// Node ids here are session-internal: the tree's nodes are renumbered
// in DFS pre-order (sender = 0) when the engine is built, so a packet's
// traversal touches edgeStart/gt/recvStart/subMax rows in nearly
// sequential memory order, and the arrays are sized by the session's
// tree rather than the whole graph.
//
// Subscription aggregation: each node nd aggregates "contributions" —
// the levels of the session's active receivers hosted at nd plus the
// subtree maxima subMax[child] of its tree children. lvlCnt counts
// contributions per level; subMax[nd], the highest populated level, is
// nudged incrementally (up when a contribution overtakes it, down by a
// same-row scan when its slot empties). A contribution change therefore
// costs O(1) per node and propagates only while the node's maximum
// actually moves.
//
// Child ordering (wide nodes): within a wide node's CSR edge block,
// order[] keeps the children counting-sorted by descending subMax.
// gt[nd][v] counts the node's children with subMax > v, so the children
// wanting layer l are exactly order[start : start+gt[nd][l]] —
// forwarding is output-sensitive. A child moving between adjacent
// levels is one swap plus one boundary bump. Narrow nodes skip all of
// this and scan edgeSub directly. A wide node whose children are all
// single-receiver leaves over Perfect or plain Bernoulli links (a leaf
// hub, the star's) has that prefix crossed in one pass (crossHub).
type sessState struct {
	idx    int
	cfg    SessionConfig
	scheme layering.Scheme
	m      int32     // layers (M); the sender is pre-order node 0
	period []float64 // [layer] inter-packet time
	cum    []float64 // [0..M] cumulative scheme rate

	// Transmit calendar. The exponential scheme's periods are dyadic:
	// layer l >= 1 fires every 2^(M-1-l) ticks of the finest layer's
	// clock and layer 0 shares layer 1's period, so the layers due at
	// tick n are exactly the contiguous range [M-1-TrailingZeros(n),
	// M-1] (clamped, and pulled down to 0 when it reaches 1). One
	// counter and one TrailingZeros replace a heap round trip per
	// packet; times are n*tickDt, exact in float64. The next
	// transmission instant lives in engine.txCal, not here.
	tick   uint64  // finest-layer ticks elapsed
	tickDt float64 // period of layer M-1
	// nAtLevel[v] counts receivers currently at subscription level v,
	// letting the signal clock skip sessions with no receiver at or
	// below the signal level.
	nAtLevel []int32

	// Tree topology, CSR over nodes. Edges of node nd occupy
	// hot[edgeStart[nd]:edgeStart[nd+1]]; edge ids index hot, cold,
	// crossed, lossGap, order positions, pos, and edgeSub.
	edgeStart []int32
	hot       []hotEdge
	cold      []coldEdge
	// crossed[eid] counts session packets that entered the link at edge
	// eid; lossGap[eid] is a Bernoulli edge's crossings-until-next-drop
	// counter (0 = draw on the next crossing). Per-edge rather than
	// per-link: Bernoulli drops are i.i.d. per crossing, so thinning
	// each session's crossing substream with its own geometric stream
	// realizes exactly the same law as a shared per-link coin.
	crossed    []int64
	lossGap    []int64
	parent     []int32 // [node] tree parent, -1 off-tree/root
	parentEdge []int32 // [node] edge id entering the node, -1 off-tree/root
	// Child enumeration is hybrid by fan-out. Narrow nodes (fan-out <=
	// wideFanout) scan edgeSub — a dense edge-indexed mirror of the
	// child's subMax — linearly; that is a couple of cache lines and
	// needs no order maintenance. Wide nodes (the star hub pattern)
	// additionally keep their edge block counting-sorted by descending
	// subMax (order/pos/gt), so forwarding touches exactly the eligible
	// children instead of the full list.
	wide    []bool  // [node] fan-out > wideFanout
	edgeSub []int32 // [edge id] subMax of the edge's child
	order   []int32 // per-node permutation of edge ids, desc by subMax
	pos     []int32 // [edge id] position in order
	gt      []int32 // [(node<<rowShift)+v] children with subMax > v
	// rootHub marks the sender as a leaf hub; every other hub is marked
	// by metaHub on the edge entering it (markLeafHubs).
	rootHub bool

	// Receiver placement CSR: receivers hosted at node nd are
	// recvList[recvStart[nd]:recvStart[nd+1]].
	recvStart []int32
	recvList  []int32
	recvNode  []int32 // [receiver] hosting node

	// Receiver protocol state, flattened from protocol.Receiver into
	// parallel arrays. The transition logic mirrors protocol.Receiver
	// exactly (the protocol package's unit tests and the star, tree and
	// closed-loop behavioural suites guard the equivalence): levels[k] is the joined layer count (0 while
	// departed), countdown[k] the Deterministic/Uncoordinated join
	// countdown, clean[k] the Coordinated
	// no-congestion-since-last-opportunity window. At a single-receiver
	// node countdown[k] is absolute: the packets left until the next join.
	// At a multi-receiver node it is relative to its level's last settle:
	// the packets left are countdown[k] minus the level's dueRun.
	levels    []int32
	countdown []int64
	clean     []bool
	// Delivery counts. A node hosting one receiver counts its packets in
	// received[k] directly. A node hosting several counts each layer
	// once per packet in its got row, got[(node<<rowShift)+layer] (rows
	// shaped like lvlCnt); received[k] is then an offset that
	// applyLevelChange settles whenever the receiver's level moves, so
	// the count is received[k] plus the row's counters below the level —
	// read only through delivered(k). A single-receiver node's got row
	// stays zero, so the same sum serves both; got is nil when no node
	// hosts several receivers (a star).
	received []int
	got      []int64
	// Level countdowns (Deterministic/Uncoordinated sessions with a
	// multi-receiver node; nil otherwise). Bit x of level v's bitmap,
	// subBits[v*bmWords + x>>6], is set iff receiver recvList[x] sits at
	// a multi-receiver node with level above v; slotOf[k] is receiver
	// k's slot x. So a node's level-v receivers are bits[v-1] &^ bits[v]
	// over its slot range (bits[v-1] alone at the top level). Rows shaped
	// like got hold, per (node, level v): dueRun, the packets the level's
	// receivers have received since the level was last settled, and
	// dueMin, at most the smallest of their stored countdowns. A packet
	// bumps the runs of the levels above its layer and settles a level
	// only once its run reaches dueMin (deliverShared). Arming lowers
	// dueMin; a leave may leave it stale-low, which costs one spurious
	// settle. dueBits is a one-node scratch bitmap: the word of slot x is
	// x>>6 minus its node's first word, and a set bit marks a receiver
	// due to join.
	subBits []uint64
	slotOf  []int32
	bmWords int32
	dueRun  []int64
	dueMin  []int64
	dueBits []uint64

	// Per-edge fluid-usage accounting: fluidInt[eid] integrates the
	// cumulative scheme rate of the edge's subtree maximum over time
	// (advanced lazily at each subMax move, flushed at the end of the
	// run), fluidT[eid] the instant it was last advanced. Pure
	// accounting: no randomness, no effect on event order.
	fluidInt []float64
	fluidT   []float64

	// Mean-level accounting: sumLevel is the current sum of all receiver
	// levels, levelInt its time integral (advanced lazily like fluidInt).
	sumLevel int64
	levelInt float64
	levelT   float64

	// linger[(eid<<rowShift)+l] is the instant until which edge eid
	// keeps carrying layer l after its subtree abandoned it (nil unless
	// Config.LeaveLatency > 0; sessions with linger route through
	// forwardLinger). The windows open below node nd for layer l form a
	// circular doubly linked list over lingerNext/lingerPrev: entry
	// (eid<<rowShift)+l for edge eid, headed by the sentinel
	// len(linger)+(nd<<rowShift)+l. An entry is linked when its edge
	// abandons the layer and unlinked when the edge subscribes to it
	// again; an unlinked entry points at itself. Every window lasts
	// LeaveLatency and time never runs backwards, so a list is in
	// opening order, which is closing order: an arrival of the layer at
	// nd unlinks the closed windows from the head and counts one
	// crossing per entry left (pushEligibleLinger).
	linger     []float64
	lingerNext []int32
	lingerPrev []int32

	subMax []int32 // [node] max contribution level in the subtree
	// lvlCnt[(node<<rowShift)+v] counts contributions at level v
	// (v >= 1). Rows are power-of-two int32 strides so a node's whole
	// count row sits in one or two cache lines and the row offset is a
	// shift; the maximum is recovered by scanning the row downward (at
	// most M slots, same line) instead of keeping a separate bitmask.
	lvlCnt   []int32
	rowShift uint8
	// solo[nd] marks nodes with exactly one contribution (one hosted
	// receiver and no children, or one child and no receivers — leaves
	// and chain nodes): their maximum IS that contribution, so level
	// propagation skips the counting machinery there.
	solo []bool
	// lossOnly marks trees carrying only instant loss links, routed to
	// the specialized forwardLossOnly walk; capOnly marks trees of
	// Perfect/Capacity links only (the irregular-topology benchmark
	// shape), routed to forwardCapOnly. Mutually exclusive: a pure
	// Perfect tree counts as lossOnly.
	lossOnly bool
	capOnly  bool

	// downHi[eid] ends the receivers downstream of edge eid in
	// recvList: a pre-order subtree is a contiguous node interval and
	// recvList is sorted by node, so they are exactly
	// recvList[hot[eid].recvLo:downHi[eid]], in DFS order (see
	// downstream).
	downHi []int32
}

// downstream returns the receivers below edge eid — the session's
// R_{i,j} for the edge's link, and the congestion notification set of a
// drop on it — in DFS order, without re-walking the subtree.
func (s *sessState) downstream(eid int32) []int32 {
	return s.recvList[s.hot[eid].recvLo:s.downHi[eid]]
}

// reorder moves edge eid within its (wide) parent node p's
// counting-sorted block from bucket om to bucket nm, one
// adjacent-bucket swap at a time.
func (s *sessState) reorder(eid, p, om, nm int32) {
	base := s.edgeStart[p]
	row := p << s.rowShift
	for v := om; v < nm; v++ {
		// First slot of bucket v becomes the last slot of bucket v+1.
		tgt := base + s.gt[row+v]
		s.swapOrder(s.pos[eid], tgt)
		s.gt[row+v]++
	}
	for v := om; v > nm; v-- {
		// Last slot of bucket v becomes the first slot of bucket v-1.
		tgt := base + s.gt[row+v-1] - 1
		s.swapOrder(s.pos[eid], tgt)
		s.gt[row+v-1]--
	}
}

func (s *sessState) swapOrder(i, j int32) {
	if i == j {
		return
	}
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.pos[s.order[i]] = i
	s.pos[s.order[j]] = j
}

// --- engine ---

type engine struct {
	cfg Config
	net *netmodel.Network
	// links holds per-link queue state; allocated only when some spec is
	// DropTail (the only kind with mutable link state), so the engine's
	// footprint never scales with raw link count on queue-free networks.
	links []linkState
	sess  []sessState
	// gsess maps the engine's local session index to the network's
	// global session index, ascending: every session for a one-group
	// run, the group's own sessions when the run is sharded.
	gsess []int
	// churn is the engine's churn schedule with ChurnEvent.Session
	// rewritten to local session indices (a one-group run aliases
	// cfg.Churn unchanged; sharded groups carry their filtered slice).
	churn []ChurnEvent
	// capDem packs capacity-admission rows — current fluid demand (sum
	// over sessions crossing the link of cum[subMax[child]], maintained
	// incrementally as subscriptions move; exact for the power-of-two
	// exponential scheme, every partial sum an integer below 2^53),
	// constant background load, and capacity — into 24-byte records so
	// admission touches one cache line instead of three parallel arrays.
	// The slice is dense over the Capacity-kind links only (hotEdge.capIdx
	// carries the remapped row index), sized numCapacityLinks+1: the last
	// row is the always-admit sentinel (capacity +Inf) that non-Capacity
	// edges point their capIdx at. The demand deltas the subscription
	// machinery blindly adds to the sentinel are write-only (nothing ever
	// admits against infinite capacity), which keeps applyLevelChange
	// branch-free. Demand maintenance is skipped entirely (trackDemand
	// false) when no link is capacity-coupled, since nothing would read
	// it. Every engine owns its rows outright, so sharded group engines
	// never share a sentinel cache line.
	capDem      []capDemand
	trackDemand bool
	// linkLayerLoss[j] is link j's per-layer Bernoulli loss table,
	// indexed by graph link; nil unless some spec sets LayerLoss (the
	// tables themselves alias the spec's).
	linkLayerLoss [][]float64
	leaveLatency  float64

	q   eventQueue
	seq uint64
	// probe is the streaming observation state (nil when off); all its
	// buffers are preallocated, so the hot path pays one nil check per
	// event and nothing else.
	probe *probeState
	// part is the intra-session subtree decomposition (subtree.go); non-nil
	// only on single-session shard-group engines whose tree was cut.
	part *treePartition

	// Uniform-calendar fast path: when every session shares one tick
	// period (equal layer counts — the common case, and all of the
	// committed benchmarks), the sessions' calendars advance in lockstep
	// and the "earliest txMin, lowest index" rule the transmit loop
	// needs is exactly round-robin order: sessions calCursor..S-1 sit at
	// time T and 0..calCursor-1 at T+dt, so the minimum is always
	// calCursor. Tracking it incrementally replaces the O(sessions)
	// argmin scan per calendar tick — the dominant cost on hub-heavy
	// multi-session topologies — with O(1), mirroring how the solo-node
	// shortcut replaces the subscription count row. Mixed-period session
	// sets fall back to the scan.
	calUniform bool
	calCursor  int
	// txCal[i] is session i's next transmission instant, (tick+1)*tickDt
	// — kept dense (rather than inside sessState) so the per-tick argmin
	// peek touches a handful of cache lines instead of one line per
	// session's sprawling state record.
	txCal []float64

	signalIdx int
	// signalPeriod is the resolved Coordinated signal period (the
	// config's zero-means-1 default applied once).
	signalPeriod float64
	now          float64
	sent         int
	pops         int64
	// Observability tallies (see EngineStats): pops split by kind, the
	// queue's occupancy high-water mark, and calendar ticks fired.
	// Maintained unconditionally — they ride events that already go
	// through the scheduler or the calendar bookkeeping, never the
	// per-crossing hot path — and flushed to cfg.Stats at result time.
	popForward, popChurn, popSignal int64
	ticksFired                      int64
	heapHW                          int

	// walk is the engine's own walk context: every sequential walk,
	// receiver transition and event runs on it.
	walk walker
}

// walker is a walk context: the RNG stream the walk draws from, the
// tree part its level accounting covers, and its reusable DFS work
// stack of edge ids. The engine's own walker (sub -1, root 0) covers
// the whole tree; a partitioned engine's subtree walker is re-pointed
// at each subtree it walks (see subtree.go), so the one forward walk
// and the one set of receiver handlers serve both.
type walker struct {
	rng *rand.Rand
	// sub is the subtree whose level-accounting row a level change lands
	// in, -1 for the session's own row; root is the node where level
	// propagation stops: the sender, or the subtree root (the cut edge
	// above it is the rollup's).
	sub, root int32
	stack     []int32
}

// newEngineFor builds an engine that owns a subset of the network's
// sessions. sessIDs lists the owned sessions by global index in
// ascending order (every session for a one-group run); churn is the
// schedule with ChurnEvent.Session already rewritten to local indices
// (the caller filters it for sharded groups); seed feeds the engine's
// private PCG stream. Everything the engine allocates is sized by its
// own sessions' trees, so disjoint group engines partition — not
// duplicate — the one-group engine's memory.
func newEngineFor(cfg Config, sessIDs []int, churn []ChurnEvent, seed uint64) (*engine, error) {
	net := cfg.Network
	g := net.Graph()
	e := &engine{
		cfg:   cfg,
		net:   net,
		sess:  make([]sessState, len(sessIDs)),
		gsess: sessIDs,
		churn: churn,
		walk:  walker{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), sub: -1},
	}
	e.leaveLatency = cfg.LeaveLatency
	// One pass over the specs decides which per-link structures exist at
	// all: queue state only when some link is DropTail (the only kind
	// with mutable per-link state), loss tables only when some spec sets
	// LayerLoss, and capacity rows dense over the Capacity links alone —
	// so a 10M-receiver access fan-out of Perfect links costs zero
	// per-link engine state.
	anyDropTail, anyLayerLoss, numCap := false, false, 0
	for j := range cfg.Links {
		switch cfg.Links[j].Kind {
		case DropTail:
			anyDropTail = true
		case Capacity:
			numCap++
		}
		if cfg.Links[j].LayerLoss != nil {
			anyLayerLoss = true
		}
	}
	// The extra row is the always-admit sentinel non-Capacity edges
	// alias via capIdx; capRemap translates graph link -> dense row.
	capSentinel := int32(numCap)
	e.capDem = make([]capDemand, numCap+1)
	e.capDem[numCap] = capDemand{cap: math.Inf(1)}
	var capRemap []int32
	if numCap > 0 {
		e.trackDemand = true
		capRemap = make([]int32, net.NumLinks())
		r := int32(0)
		for j := range cfg.Links {
			if cfg.Links[j].Kind == Capacity {
				capRemap[j] = r
				e.capDem[r] = capDemand{bg: cfg.Links[j].Background, cap: cfg.Links[j].effCapacity(net.Capacity(j))}
				r++
			}
		}
	}
	if anyDropTail {
		e.links = make([]linkState, net.NumLinks())
		for j := range e.links {
			e.links[j] = newLinkState(cfg.Links[j], net.Capacity(j))
		}
	}
	if anyLayerLoss {
		e.linkLayerLoss = make([][]float64, net.NumLinks())
		for j := range cfg.Links {
			e.linkLayerLoss[j] = cfg.Links[j].LayerLoss
		}
	}
	nn := g.NumNodes()
	// Scratch for tree discovery on global node ids, reused per session.
	gParent := make([]int32, nn)
	gParentLink := make([]int32, nn)
	gChildren := make([][]buildEdge, nn)
	intern := make([]int32, nn) // global node id -> session-internal id
	// hostMark[nd] == li+1 once session li has a receiver hosted at nd.
	hostMark := make([]int32, nn)
	// Construction scratch reused across sessions, and one immutable
	// layering scheme per distinct layer count, in a dense slice keyed by
	// layer count (the zero Scheme has NumLayers 0, so presence is the
	// value itself — no map on the construction path).
	var globalOf, dfs, fill []int32
	schemes := make([]layering.Scheme, MaxLayers+1)
	maxEdges := 0
	e.txCal = make([]float64, len(e.sess))
	for li := range e.sess {
		gi := sessIDs[li]
		ns := net.Session(gi)
		sc := cfg.Sessions[gi]
		m := int32(sc.Layers)
		s := &e.sess[li]
		sch := schemes[sc.Layers]
		if sch.NumLayers() == 0 {
			sch = layering.Exponential(sc.Layers)
			schemes[sc.Layers] = sch
		}
		*s = sessState{idx: li, cfg: sc, scheme: sch, m: m}
		// The session's arrays are carved out of per-width slabs once
		// the tree is discovered and every size is known (below).
		// Discover the multicast tree on global node ids from the
		// receivers' data-paths. The sender's parent slot is claimed up
		// front: a walk that re-enters the root would otherwise hang a
		// cycle off the "tree" (hand-built paths can do this; routed
		// ones cannot) and must be rejected below.
		for nd := 0; nd < nn; nd++ {
			gParent[nd] = -1
			gParentLink[nd] = -1
			gChildren[nd] = gChildren[nd][:0]
		}
		gParent[ns.Sender] = int32(ns.Sender)
		nEdges := 0
		// shared: some node hosts several of the session's receivers, so
		// the session needs delivery-counter rows (and, under a countdown
		// protocol, subscription bitmaps and level-countdown rows).
		shared := false
		// One walk per run of receivers sharing a path: walking it again
		// would re-find the same parents over the same links.
		for k, run := 0, 0; k < len(ns.Receivers); k += run {
			run = net.PathRun(gi, k)
			if host := ns.Receivers[k]; run > 1 || hostMark[host] == int32(li+1) {
				shared = true
			} else {
				hostMark[host] = int32(li + 1)
			}
			cur := ns.Sender
			for _, j := range net.Path(gi, k) {
				nb := g.Other(j, cur)
				if p := gParent[nb]; p == -1 {
					gParent[nb] = int32(cur)
					gParentLink[nb] = int32(j)
					spec := LinkSpec{}
					if cfg.Links != nil {
						spec = cfg.Links[j]
					}
					ek := ekAlways
					invLog := 0.0
					switch spec.Kind {
					case Bernoulli:
						// Where 1-Loss rounds to 1 (Loss <= 2^-54) the link
						// drops nothing at float64 precision, but log(1-Loss)
						// is 0 and the gap samplers' int64(log(u)*invLog)
						// would overflow to a gap of 1, dropping every
						// packet; such a link admits always.
						if spec.LayerLoss != nil {
							ek = ekLayerLoss
						} else if spec.Loss > 0 && 1-spec.Loss != 1 {
							ek = ekBernoulli
							invLog = 1 / math.Log(1-spec.Loss)
						}
					case Capacity:
						ek = ekCapacity
					case DropTail:
						ek = ekDropTail
					}
					gChildren[cur] = append(gChildren[cur], buildEdge{
						link: int32(j), child: int32(nb), kind: ek, invLog: invLog,
					})
					nEdges++
				} else if p != int32(cur) {
					return nil, fmt.Errorf("netsim: session %d data-paths do not form a tree (node %d reached from %d and %d)", gi, nb, p, cur)
				} else if gParentLink[nb] != int32(j) {
					// Same parent node over a parallel link: still two
					// distinct physical trees.
					return nil, fmt.Errorf("netsim: session %d data-paths do not form a tree (node %d reached via links %d and %d)", gi, nb, gParentLink[nb], j)
				}
				cur = nb
			}
		}
		// Renumber the tree's nodes in DFS pre-order (children in
		// data-path discovery order, which is deterministic) so the
		// per-node arrays below are visited near-sequentially by the
		// forwarding DFS, and size everything by the tree, not the graph.
		treeN := 1 + nEdges
		nR := ns.NumReceivers()
		for s.rowShift = 1; 1<<s.rowShift < int(m)+1; s.rowShift++ {
		}
		rowLen := treeN << s.rowShift
		// Slab allocation: one backing array per element width, carved
		// into the session's arrays — a handful of allocations per
		// session instead of ~25, with the walk-side arrays adjacent in
		// memory. Capacities are capped at each carve so an accidental
		// append could never bleed into a neighbor.
		bitmaps := shared && sc.Protocol != protocol.Coordinated
		n32 := 3*nR + (sc.Layers + 1) + 3*treeN + 2*(treeN+1) + 2*rowLen + 4*nEdges
		if bitmaps {
			n32 += nR // slotOf
		}
		if cfg.LeaveLatency > 0 {
			n32 += 2 * ((nEdges + treeN) << s.rowShift) // lingerNext, lingerPrev
		}
		n64 := nR + 2*nEdges
		if shared {
			n64 += rowLen // got
		}
		if bitmaps {
			n64 += 2 * rowLen // dueRun, dueMin
		}
		s32 := make([]int32, n32)
		s64 := make([]int64, n64)
		nf := 2*sc.Layers + 1 + 2*nEdges
		if cfg.LeaveLatency > 0 {
			nf += nEdges << s.rowShift
		}
		sf := make([]float64, nf)
		sb := make([]bool, nR+2*treeN)
		take32 := func(n int) []int32 { v := s32[:n:n]; s32 = s32[n:]; return v }
		take64 := func(n int) []int64 { v := s64[:n:n]; s64 = s64[n:]; return v }
		takeF := func(n int) []float64 { v := sf[:n:n]; sf = sf[n:]; return v }
		takeB := func(n int) []bool { v := sb[:n:n]; sb = sb[n:]; return v }
		s.edgeStart = take32(treeN + 1)
		s.edgeSub = take32(nEdges)
		s.order = take32(nEdges)
		s.pos = take32(nEdges)
		s.gt = take32(rowLen)
		s.lvlCnt = take32(rowLen)
		s.subMax = take32(treeN)
		s.parent = take32(treeN)
		s.parentEdge = take32(treeN)
		s.recvStart = take32(treeN + 1)
		s.recvList = take32(nR)
		s.recvNode = take32(nR)
		s.levels = take32(nR)
		s.nAtLevel = take32(sc.Layers + 1)
		s.downHi = take32(nEdges)
		s.crossed = take64(nEdges)
		s.lossGap = take64(nEdges)
		s.countdown = take64(nR)
		var got []int64
		if shared {
			got = take64(rowLen)
		}
		if bitmaps {
			// The countdown rows attach before the bring-up below, whose
			// arms then fill level 1's dueMin.
			s.dueRun = take64(rowLen)
			s.dueMin = take64(rowLen)
			for i := range s.dueMin {
				s.dueMin[i] = math.MaxInt64
			}
		}
		s.period = takeF(sc.Layers)
		s.cum = takeF(sc.Layers + 1)
		s.fluidInt = takeF(nEdges)
		s.fluidT = takeF(nEdges)
		if cfg.LeaveLatency > 0 {
			s.linger = takeF(nEdges << s.rowShift)
			s.lingerNext = take32((nEdges + treeN) << s.rowShift)
			s.lingerPrev = take32((nEdges + treeN) << s.rowShift)
			for i := range s.lingerNext {
				s.lingerNext[i], s.lingerPrev[i] = int32(i), int32(i)
			}
		}
		s.wide = takeB(treeN)
		s.solo = takeB(treeN)
		s.clean = takeB(nR)
		s.received = make([]int, nR)
		s.hot = make([]hotEdge, 0, nEdges)
		s.cold = make([]coldEdge, 0, nEdges)
		for l := 0; l < sc.Layers; l++ {
			s.period[l] = 1 / s.scheme.LayerRate(l)
		}
		s.tickDt = s.period[sc.Layers-1]
		e.txCal[li] = s.tickDt
		s.nAtLevel[0] = int32(nR) // all pre-join
		for v := 0; v <= sc.Layers; v++ {
			s.cum[v] = s.scheme.CumulativeRate(v)
		}
		s.parent[0] = -1
		s.parentEdge[0] = -1
		// Pass 1: pre-order numbering (children in data-path discovery
		// order, so the permutation is deterministic).
		globalOf = globalOf[:0]
		dfs = append(dfs[:0], int32(ns.Sender))
		for len(dfs) > 0 {
			gnd := dfs[len(dfs)-1]
			dfs = dfs[:len(dfs)-1]
			intern[gnd] = int32(len(globalOf))
			globalOf = append(globalOf, gnd)
			// Push in reverse so pop order follows discovery order.
			for c := len(gChildren[gnd]) - 1; c >= 0; c-- {
				dfs = append(dfs, gChildren[gnd][c].child)
			}
		}
		// Receiver placement CSR first (counting sort by hosting node),
		// so pass 2 can embed each child's receiver block in its edge.
		for k := range ns.Receivers {
			s.recvNode[k] = intern[ns.Receivers[k]]
		}
		for k := range s.recvNode {
			s.recvStart[s.recvNode[k]+1]++
		}
		for nd := 0; nd < treeN; nd++ {
			s.recvStart[nd+1] += s.recvStart[nd]
		}
		fill = append(fill[:0], s.recvStart[:treeN]...)
		for k := range s.recvNode {
			nd := s.recvNode[k]
			s.recvList[fill[nd]] = int32(k)
			fill[nd]++
		}
		// Pass 2: CSR blocks in internal id order; with pre-order ids a
		// packet's DFS touches the rows near-sequentially.
		for ind := int32(0); ind < int32(treeN); ind++ {
			s.edgeStart[ind] = int32(len(s.hot))
			for _, ed := range gChildren[globalOf[ind]] {
				eid := int32(len(s.hot))
				child := intern[ed.child]
				capIdx := capSentinel
				if ed.kind == ekCapacity {
					capIdx = capRemap[ed.link]
				}
				s.hot = append(s.hot, hotEdge{
					link: ed.link, capIdx: capIdx,
					recvLo: s.recvStart[child],
					recvHi: s.recvStart[child+1],
					gtOff:  child << s.rowShift,
					meta:   uint32(ed.kind),
				})
				s.cold = append(s.cold, coldEdge{invLog: ed.invLog})
				s.parent[child] = ind
				s.parentEdge[child] = eid
				// Identity permutation: every edge starts in bucket 0
				// (all subMax are 0 before receivers join), which is
				// trivially counting-sorted.
				s.order[eid] = eid
				s.pos[eid] = eid
			}
		}
		s.edgeStart[treeN] = int32(len(s.hot))
		// Each child's own edge block is known only now.
		for eid := range s.hot {
			child := s.hot[eid].gtOff >> s.rowShift
			s.hot[eid].edgeLo = s.edgeStart[child]
			s.hot[eid].edgeHi = s.edgeStart[child+1]
		}
		s.lossOnly, s.capOnly = true, true
		for eid := range s.hot {
			switch int8(s.hot[eid].meta & metaKindMask) {
			case ekAlways:
			case ekBernoulli:
				s.capOnly = false
			case ekCapacity:
				s.lossOnly = false
			default: // ekLayerLoss, ekDropTail: generic walk only
				s.lossOnly, s.capOnly = false, false
			}
		}
		if s.lossOnly {
			// A pure-Perfect tree takes the (cheaper) loss walk.
			s.capOnly = false
		}
		for nd := 0; nd < treeN; nd++ {
			s.wide[nd] = s.edgeStart[nd+1]-s.edgeStart[nd] > wideFanout
			s.solo[nd] = (s.edgeStart[nd+1]-s.edgeStart[nd])+(s.recvStart[nd+1]-s.recvStart[nd]) == 1
		}
		// wide[] is known only now; stamp each edge with its child's
		// wideness so the descent skips the node-indexed load.
		for eid := range s.hot {
			if s.wide[s.hot[eid].gtOff>>s.rowShift] {
				s.hot[eid].meta |= metaWide
			}
		}
		// Downstream ends, in reverse pre-order: a node's subtree ends
		// where its last child's does (children have larger ids), or
		// right after the node itself at a leaf.
		for nd := int32(treeN - 1); nd > 0; nd-- {
			end := s.recvStart[nd+1]
			if last := s.edgeStart[nd+1] - 1; last >= s.edgeStart[nd] {
				end = s.downHi[last]
			}
			s.downHi[s.parentEdge[nd]] = end
		}
		// Bring every receiver online through the same incremental
		// machinery the run uses (joins bubble up, order buckets and
		// link demand update as a side effect).
		for k := range s.levels {
			e.applyLevelChange(s, &e.walk, k, 1)
			e.armReceiver(s, &e.walk, k, 1)
		}
		// The delivery counters and subscription bitmaps join only now:
		// before the first packet there is no delivery offset to settle,
		// so the bring-up above skips resubscribe, and with every
		// receiver at level 1 the bitmaps hold exactly the
		// multi-receiver nodes' slots at level 0.
		s.got = got
		if bitmaps {
			s.bmWords = int32((nR + 63) >> 6)
			s.subBits = make([]uint64, sc.Layers*int(s.bmWords))
			s.slotOf = take32(nR)
			maxHost := int32(0)
			for nd := 0; nd < treeN; nd++ {
				lo, hi := s.recvStart[nd], s.recvStart[nd+1]
				maxHost = max(maxHost, hi-lo)
				for x := lo; x < hi; x++ {
					s.slotOf[s.recvList[x]] = x
					if hi-lo > 1 {
						s.subBits[x>>6] |= 1 << (x & 63)
					}
				}
			}
			s.dueBits = make([]uint64, dueWords(int(maxHost)))
		}
		if nEdges > maxEdges {
			maxEdges = nEdges
		}
	}
	// The DFS work stack can hold at most one entry per tree edge;
	// reserving the worst case up front keeps the walk append-free for
	// the whole run (part of the PlanMemory no-growth contract).
	e.walk.stack = make([]int32, 0, maxEdges)

	e.calUniform = len(e.sess) > 0
	for i := 1; i < len(e.sess); i++ {
		if e.sess[i].tickDt != e.sess[0].tickDt {
			e.calUniform = false
			break
		}
	}

	// Seed the clock: the global signal and churn (transmissions live on
	// the per-session calendars). Preallocate the arena at its expected
	// high-water mark so steady state never appends.
	e.q.a = make([]event, 0, len(e.churn)+1+64)
	e.signalPeriod = cfg.SignalPeriod
	if e.signalPeriod == 0 {
		e.signalPeriod = 1
	}
	for i := range e.sess {
		if e.sess[i].cfg.Protocol == protocol.Coordinated && e.sess[i].cfg.Layers > 1 {
			e.push(event{time: e.signalPeriod, key: prioSignal, kind: evSignal})
			break
		}
	}
	for ci, ev := range e.churn {
		e.push(event{time: ev.Time, kind: evChurn, node: int32(ci)})
	}
	if cfg.Probe != nil {
		e.probe = newProbeState(cfg.Probe, e)
	}
	// Intra-session subtree decomposition: only for sharded group engines
	// holding a single session with explicit CutLinks (Shards == 0 never
	// partitions). Eligibility and the frontier are pure functions of the
	// Config, never of Shards' value or core count.
	if cfg.Shards > 0 && len(e.sess) == 1 {
		e.part = newTreePartition(e, &e.sess[0], seed)
	}
	for i := range e.sess {
		e.sess[i].markLeafHubs()
	}
	return e, nil
}

// markLeafHubs marks the session's leaf hubs, once cut edges are known:
// wide nodes each of whose child edges enters a childless node hosting
// exactly one receiver, over a Perfect or plain Bernoulli link (no
// per-layer loss table), and is no cut edge. Selection reads the tree
// alone: fan-out, link kinds and receivers per node.
func (s *sessState) markLeafHubs() {
	for nd := range int32(len(s.wide)) {
		if !s.wide[nd] {
			continue
		}
		hub := true
		for _, ed := range s.hot[s.edgeStart[nd]:s.edgeStart[nd+1]] {
			kind := int8(ed.meta & metaKindMask)
			if kind != ekAlways && kind != ekBernoulli || ed.meta&metaCut != 0 ||
				ed.edgeHi > ed.edgeLo || ed.recvHi-ed.recvLo != 1 {
				hub = false
				break
			}
		}
		if !hub {
			continue
		}
		if nd == 0 {
			s.rootHub = true
		} else {
			s.hot[s.parentEdge[nd]].meta |= metaHub
		}
	}
}

// isHub reports whether node nd is a leaf hub.
func (s *sessState) isHub(nd int32) bool {
	if nd == 0 {
		return s.rootHub
	}
	return s.hot[s.parentEdge[nd]].meta&metaHub != 0
}

func (e *engine) push(ev event) {
	ev.key |= e.seq
	e.seq++
	e.q.push(ev)
	if n := len(e.q.a); n > e.heapHW {
		e.heapHW = n
	}
}

// applyLevelChange records receiver k's new subscription level in w's
// accounting row and propagates the contribution change up the session
// tree: per ancestor it is one counting-bucket bump; propagation stops
// at the first node whose maximum does not move, or at w's root. Nodes
// whose maximum does move are re-bucketed in their parent's child
// ordering and their parent link's fluid demand is adjusted by the
// cumulative-rate delta.
func (e *engine) applyLevelChange(s *sessState, w *walker, k int, nl int32) {
	a := s.levels[k]
	if nl == a {
		return
	}
	s.levels[k] = nl
	nd := s.recvNode[k]
	if s.got != nil && s.recvStart[nd+1]-s.recvStart[nd] > 1 {
		s.resubscribe(k, nd, a, nl)
	}
	if j := w.sub; j < 0 {
		s.levelInt += float64(s.sumLevel) * (e.now - s.levelT)
		s.levelT = e.now
		s.sumLevel += int64(nl - a)
		s.nAtLevel[a]--
		s.nAtLevel[nl]++
	} else {
		// A subtree walk: the subtree's own row.
		p := e.part
		p.levelInt[j] += float64(p.sumLevel[j]) * (e.now - p.levelT[j])
		p.levelT[j] = e.now
		p.sumLevel[j] += int64(nl - a)
		row := j * p.mrow
		p.nAtLevel[row+a]--
		p.nAtLevel[row+nl]++
	}
	e.propagateFrom(s, w, nd, a, nl)
	if p := e.part; p != nil && w.sub < 0 {
		// Sequential-phase changes (churn, signals, core-walk drops)
		// propagate straight through cut edges; re-sync the owning
		// subtree's rollup snapshot so the deferred path stays coherent.
		if j := p.subOfNode[nd]; j >= 0 {
			p.prevRootMax[j] = s.subMax[p.subRoot[j]]
		}
	}
}

// resubscribe moves receiver k of multi-receiver node nd from level a
// to level b: it settles the delivery offset so delivered(k) does not
// move (the row's counters at levels [a, b) stop, or start, counting
// for k), and flips k's bit in the bitmaps of those levels.
func (s *sessState) resubscribe(k int, nd, a, b int32) {
	lo, hi := min(a, b), max(a, b)
	row := nd << s.rowShift
	var n int64
	for v := lo; v < hi; v++ {
		n += s.got[row+v]
	}
	if b > a {
		n = -n
	}
	s.received[k] += int(n)
	if s.subBits == nil {
		return
	}
	x := s.slotOf[k]
	bit := uint64(1) << (x & 63)
	for i, v := lo*s.bmWords+x>>6, lo; v < hi; i, v = i+s.bmWords, v+1 {
		if b > a {
			s.subBits[i] |= bit
		} else {
			s.subBits[i] &^= bit
		}
	}
}

// delivered returns receiver k's delivered-packet count: its offset
// plus its node's per-layer counters below its level (all zero at a
// single-receiver node, whose count is the offset itself).
func (s *sessState) delivered(k int) int {
	n := s.received[k]
	if s.got == nil {
		return n
	}
	row := s.recvNode[k] << s.rowShift
	for v := int32(0); v < s.levels[k]; v++ {
		n += int(s.got[row+v])
	}
	return n
}

// propagateFrom bubbles a contribution change (level a -> b) at node nd
// up the session tree: per ancestor it is one counting-bucket bump;
// propagation stops at the first node whose maximum does not move, or
// once w's root has taken the change.
func (e *engine) propagateFrom(s *sessState, w *walker, nd, a, b int32) {
	for {
		om := s.subMax[nd]
		var nm int32
		if s.solo[nd] {
			// Single-contribution node: its maximum is the contribution.
			nm = b
		} else {
			// Move one contribution at nd from level a to level b (level
			// 0 contributions are identity — they can never become the
			// maximum), then recover the new maximum from the count row:
			// it only moves up when b overtakes it, and only moves down
			// when the old maximum's slot empties.
			row := nd << s.rowShift
			if a > 0 {
				s.lvlCnt[row+a]--
			}
			if b > 0 {
				s.lvlCnt[row+b]++
			}
			nm = om
			if b > om {
				nm = b
			} else if a == om && s.lvlCnt[row+om] == 0 {
				for nm--; nm > 0 && s.lvlCnt[row+nm] == 0; nm-- {
				}
			}
		}
		if nm == om {
			return
		}
		s.subMax[nd] = nm
		if nd == w.root {
			return // the session root, or a subtree root (rollupSubtree's)
		}
		eid := s.parentEdge[nd]
		s.fluidInt[eid] += s.cum[om] * (e.now - s.fluidT[eid])
		s.fluidT[eid] = e.now
		s.edgeSub[eid] = nm
		if e.trackDemand {
			e.capDem[s.hot[eid].capIdx].dem += s.cum[nm] - s.cum[om]
		}
		p := s.parent[nd]
		if s.linger != nil {
			s.moveLinger(eid, p, om, nm, e.now+e.leaveLatency)
		}
		if s.wide[p] {
			s.reorder(eid, p, om, nm)
		}
		a, b = om, nm
		nd = p
	}
}

// moveLinger updates edge eid's linger windows below its parent p as
// the edge's subtree maximum moves from om to nm. Layers nm..om-1 just
// lost their last subscriber below the edge: the link keeps carrying
// them until the given instant, so their windows join the tail of p's
// lists. Layers om..nm-1 are subscribed again, so their windows close.
func (s *sessState) moveLinger(eid, p, om, nm int32, until float64) {
	row := eid << s.rowShift
	head := int32(len(s.linger)) + p<<s.rowShift
	for v := nm; v < om; v++ {
		i, h := row+v, head+v
		s.linger[i] = until
		tail := s.lingerPrev[h]
		s.lingerNext[tail], s.lingerPrev[i] = i, tail
		s.lingerNext[i], s.lingerPrev[h] = h, i
	}
	for v := om; v < nm; v++ {
		s.unlinkLinger(row + v)
	}
}

// unlinkLinger takes entry i out of its linger list; an entry already
// unlinked points at itself, so this is then a no-op.
func (s *sessState) unlinkLinger(i int32) {
	n, p := s.lingerNext[i], s.lingerPrev[i]
	s.lingerNext[p], s.lingerPrev[n] = n, p
	s.lingerNext[i], s.lingerPrev[i] = i, i
}

// armReceiver re-arms receiver k's join logic at level lv — the engine
// inlining of protocol.Receiver.resetEventState.
func (e *engine) armReceiver(s *sessState, w *walker, k int, lv int32) {
	if s.cfg.Protocol == protocol.Coordinated {
		s.clean[k] = true
		return
	}
	e.armCountdown(s, w, k, lv)
}

// armCountdown draws receiver k's join countdown at level lv (the
// Deterministic threshold, or an Uncoordinated geometric sample) and
// stores it: as is at a single-receiver node, and at a multi-receiver
// node offset by the level's dueRun, lowering its dueMin. Under
// Coordinated it does nothing.
func (e *engine) armCountdown(s *sessState, w *walker, k int, lv int32) {
	var c int64
	switch s.cfg.Protocol {
	case protocol.Deterministic:
		c = int64(protocol.JoinThreshold(int(lv)))
	case protocol.Uncoordinated:
		c = int64(protocol.SampleJoin(w.rng, int(lv)))
	default:
		return
	}
	if s.dueRun != nil {
		if nd := s.recvNode[k]; s.recvStart[nd+1]-s.recvStart[nd] > 1 {
			i := nd<<s.rowShift + lv
			c += s.dueRun[i]
			s.dueMin[i] = min(s.dueMin[i], c)
		}
	}
	s.countdown[k] = c
}

// joinReceiver adds one layer to receiver k (bounded by M) and re-arms
// its join state — protocol.Receiver.join.
func (e *engine) joinReceiver(s *sessState, w *walker, k int) {
	lv := s.levels[k]
	if lv < s.m {
		lv++
		e.applyLevelChange(s, w, k, lv)
	}
	e.armReceiver(s, w, k, lv)
}

// congestReceiver applies a congestion observation to receiver k: leave
// the top joined layer (unless only the base layer is joined) and
// re-arm — protocol.Receiver.OnCongestion.
func (e *engine) congestReceiver(s *sessState, w *walker, k int) {
	lv := s.levels[k]
	if lv > 1 {
		lv--
		e.applyLevelChange(s, w, k, lv)
	}
	s.clean[k] = false // a Coordinated receiver must wait for a clean window
	e.armCountdown(s, w, k, lv)
}

// deliverSingle is the walk's inline delivery to a node hosting exactly
// one receiver (receiver block [lo, hi)): the receiver, if subscribed,
// counts the packet and, under a countdown protocol, steps its
// countdown. It reports whether the node is done; false sends the walk
// to deliverNode, for a node hosting several receivers or a countdown
// that ran out. Small enough to inline, so star leaves pay no call.
func (s *sessState) deliverSingle(layer, lo, hi int32, countJoins bool) bool {
	if hi-lo != 1 {
		return false
	}
	k := s.recvList[lo]
	if s.levels[k] <= layer {
		return true
	}
	s.received[k]++
	if !countJoins {
		return true
	}
	s.countdown[k]--
	return s.countdown[k] > 0
}

// deliverNode finishes a delivery deliverSingle handed on: a single
// receiver's join, or a multi-receiver node (row its got row, [lo, hi)
// its receiver block) via deliverShared. Every walk variant and the
// entry node reach multi-receiver nodes through here alone.
func (e *engine) deliverNode(s *sessState, w *walker, layer, row, lo, hi int32, countJoins bool) {
	if hi-lo == 1 {
		e.joinReceiver(s, w, int(s.recvList[lo]))
		return
	}
	e.deliverShared(s, w, layer, row, lo, hi, countJoins)
}

// deliverShared delivers a packet of the layer to a multi-receiver node
// (row its counter row, [lo, hi) its receiver slots): one bump of the
// node's counter for the layer covers every subscribed receiver's
// count, so a Coordinated delivery touches no receiver at all. Under a
// countdown protocol it then bumps the dueRun of each level above the
// layer and settles only a level whose run has reached its dueMin. The
// receivers the settles find due join once every level is settled,
// lowest slot first: the order a scan of recvList would take, so every
// join and RNG draw keeps its place, and a receiver joining on this
// packet starts its new level's countdown after it.
func (e *engine) deliverShared(s *sessState, w *walker, layer, row, lo, hi int32, countJoins bool) {
	s.got[row+layer]++
	if !countJoins {
		return
	}
	runs := s.dueRun[row+layer+1 : row+s.m+1]
	mins := s.dueMin[row+layer+1 : row+s.m+1]
	due := false
	for i := range runs {
		runs[i]++
		if runs[i] >= mins[i] && s.settle(row, layer+1+int32(i), lo, hi) {
			due = true
		}
	}
	if !due {
		return
	}
	first := lo >> 6
	for i, word := range s.dueBits[:(hi-1)>>6-first+1] {
		s.dueBits[i] = 0
		for word != 0 {
			x := (first+int32(i))<<6 | int32(bits.TrailingZeros64(word))
			word &= word - 1
			e.joinReceiver(s, w, int(s.recvList[x]))
		}
	}
}

// settle charges level v's run at a multi-receiver node (row its counter
// row, [lo, hi) its receiver slots) to the level's receivers, read from
// the bitmaps as bits[v-1] &^ bits[v]. It marks in dueBits the receivers
// whose countdown ran out, recomputes dueMin from the others, and reports
// whether it marked any.
func (s *sessState) settle(row, v, lo, hi int32) bool {
	run := s.dueRun[row+v]
	s.dueRun[row+v] = 0
	next := int64(math.MaxInt64)
	due := false
	above := s.subBits[(v-1)*s.bmWords : v*s.bmWords]
	var over []uint64 // receivers above level v; none at the top level
	if v < s.m {
		over = s.subBits[v*s.bmWords : (v+1)*s.bmWords]
	}
	first, last := lo>>6, (hi-1)>>6
	for wi := first; wi <= last; wi++ {
		word := above[wi]
		if over != nil {
			word &^= over[wi]
		}
		if wi == first {
			word &= ^uint64(0) << (lo & 63)
		}
		if wi == last {
			word &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		for word != 0 {
			x := wi<<6 | int32(bits.TrailingZeros64(word))
			word &= word - 1
			k := s.recvList[x]
			c := s.countdown[k] - run
			s.countdown[k] = c
			if c <= 0 {
				s.dueBits[wi-first] |= 1 << (x & 63)
				due = true
			} else if c < next {
				next = c
			}
		}
	}
	s.dueMin[row+v] = next
	return due
}

// dueWords is the length of the dueBits scratch for a session whose
// largest node hosts n receivers: n consecutive slots span at most this
// many 64-bit words.
func dueWords(n int) int { return (n+62)>>6 + 1 }

// deliverAt delivers a packet of the layer to the receivers hosted at
// node, a walk's entry node, which hosts at least one.
func (e *engine) deliverAt(s *sessState, w *walker, layer, node int32, countJoins bool) {
	lo, hi := s.recvStart[node], s.recvStart[node+1]
	if !s.deliverSingle(layer, lo, hi, countJoins) {
		e.deliverNode(s, w, layer, node<<s.rowShift, lo, hi, countJoins)
	}
}

// forward drains one packet through the session tree from node at time
// t on walk context w: one fused, allocation-free loop over w's work
// stack of edge ids. Per hop it reads the 32-byte hot edge record
// (admission class, the entered node's receiver and child blocks),
// decides admission inline (Perfect/Bernoulli/Capacity; DropTail goes
// through the queue model and schedules a continuation event at its
// exit time), delivers to the subscribed receivers, then tail-descends
// into the first eligible child, pushing only the remaining siblings.
// A packet admitted on a subtree cut edge (metaCut) is not descended
// but recorded as an arrival for the subtree phase: the core prefix of
// a partitioned tree is this walk from the sender, and each subtree's
// walk is this walk from its root on the subtree's context (subtree.go).
// A cut edge's record reads as a wide edge with no receivers, so only
// the wide branch, taken at hub edges alone, has to test for it.
//
// Eligibility snapshots before descent: sibling subtrees are disjoint,
// so processing one cannot change another's subtree maximum, and level
// changes triggered by a delivery only re-bucket nodes on the path to
// the root — never the entered node's own children.
func (e *engine) forward(s *sessState, w *walker, layer, node int32, t float64) {
	countJoins := s.cfg.Protocol != protocol.Coordinated
	// Entry node: deliver to its receivers, then seed the walk with its
	// eligible children, here for all three walks. An entry node hosting
	// no receivers (the sender, on every committed topology) skips the
	// call; an entry leaf hub (a DropTail continuation into a star's
	// hub) has its leaves crossed by crossHub.
	if s.recvStart[node+1] > s.recvStart[node] {
		e.deliverAt(s, w, layer, node, countJoins)
	}
	var st []int32
	if s.wide[node] && s.isHub(node) {
		st = s.crossHub(w.stack[:0], s.edgeStart[node], s.gt[(node<<s.rowShift)+layer], countJoins)
	} else {
		st = s.pushEligible(w.stack[:0], node, layer)
	}
	if s.lossOnly {
		e.forwardLossOnly(s, w, st, layer, countJoins)
		return
	}
	if s.capOnly {
		e.forwardCapOnly(s, w, st, layer, countJoins)
		return
	}
	for len(st) > 0 {
		eid := st[len(st)-1]
		st = st[:len(st)-1]
	descend:
		ed := &s.hot[eid]
		s.crossed[eid]++
		dropped := false
		switch int8(ed.meta & metaKindMask) {
		case ekAlways:
		case ekBernoulli:
			// The i.i.d. Bernoulli drop process is realized by sampling
			// inter-drop gaps geometrically — exactly the same law as a
			// per-crossing coin flip, one RNG draw per drop instead of
			// one per crossing. The refill happens at the consumption
			// point (a crossing with an exhausted gap), keeping the RNG
			// draw order identical to the per-crossing formulation.
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined (the
				// call costs ~2% on loss-heavy walks; the property
				// suite pins the equivalence draw for draw).
				u := w.rng.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				gap = int64(math.Log(u)*s.cold[eid].invLog) + 1
				if gap < 1 {
					gap = 1
				}
			}
			gap--
			s.lossGap[eid] = gap
			dropped = gap == 0
		case ekLayerLoss:
			// Layer-dependent loss breaks the geometric-gap trick (the
			// per-crossing probability is no longer constant), so draw
			// directly per crossing.
			ll := e.linkLayerLoss[ed.link]
			p := ll[len(ll)-1]
			if int(layer) < len(ll) {
				p = ll[layer]
			}
			dropped = p > 0 && w.rng.Float64() < p
		case ekCapacity:
			// Drop with probability (d-c)/d; comparing r*d < d-c avoids
			// the division on the admission fast path.
			cd := &e.capDem[ed.capIdx]
			d := cd.dem + cd.bg
			dropped = d > cd.cap && w.rng.Float64()*d < d-cd.cap
		default: // ekDropTail
			exit, drop := e.links[ed.link].admitQueue(t)
			if drop {
				dropped = true
				break
			}
			if exit > t {
				e.push(event{time: exit, kind: evForward, sess: int32(s.idx), layer: layer, node: ed.gtOff >> s.rowShift})
				continue
			}
		}
		if dropped {
			s.cold[eid].drops++
			e.notifyLoss(s, w, layer, eid)
			continue
		}
		// Deliver to the entered node's receivers.
		if ed.recvHi > ed.recvLo && !s.deliverSingle(layer, ed.recvLo, ed.recvHi, countJoins) {
			e.deliverNode(s, w, layer, ed.gtOff, ed.recvLo, ed.recvHi, countJoins)
		}
		// Expand the entered node's eligible children and tail-descend
		// into the first one (in the same order the stack would yield).
		if ed.meta&metaWide != 0 {
			if ed.meta&metaCut != 0 {
				e.part.arrive(ed.gtOff >> s.rowShift)
				continue
			}
			cn := s.gt[ed.gtOff+layer]
			if ed.meta&metaHub != 0 {
				st = s.crossHub(st, ed.edgeLo, cn, countJoins)
				continue
			}
			if cn > 0 {
				cb := ed.edgeLo
				for p := cn - 1; p >= 1; p-- {
					st = append(st, s.order[cb+p])
				}
				eid = s.order[cb]
				goto descend
			}
		} else {
			first := int32(-1)
			for ceid := ed.edgeHi - 1; ceid >= ed.edgeLo; ceid-- {
				if s.edgeSub[ceid] > layer {
					if first >= 0 {
						st = append(st, first)
					}
					first = ceid
				}
			}
			if first >= 0 {
				eid = first
				goto descend
			}
		}
	}
	w.stack = st[:0]
}

// pushEligible pushes the children of node nd that want the layer in
// reverse of the order the walk visits them (wide nodes: the
// counting-sorted bucket prefix; narrow nodes: dense edge order), so
// they pop in that order. It is small enough for the compiler to
// inline.
func (s *sessState) pushEligible(st []int32, nd, layer int32) []int32 {
	lo := s.edgeStart[nd]
	if s.wide[nd] {
		for p := s.gt[(nd<<s.rowShift)+layer] - 1; p >= 0; p-- {
			st = append(st, s.order[lo+p])
		}
	} else {
		for ceid := s.edgeStart[nd+1] - 1; ceid >= lo; ceid-- {
			if s.edgeSub[ceid] > layer {
				st = append(st, ceid)
			}
		}
	}
	return st
}

// crossHub crosses a leaf hub's eligible leaves, order[lo:lo+cn], in
// one pass. A leaf whose crossing draws no randomness and moves no
// level is settled in place: its crossing, its receiver's delivery
// (every eligible leaf's receiver is above the layer) and, under a
// countdown protocol, one countdown step. A leaf is deferred instead
// when its loss gap is due a refill (0) or a drop (1), or when its
// countdown runs out on this packet: crossHub pushes the deferred
// leaves onto st so they pop in pass order, and the walk crosses each
// with its ordinary leaf step. The pass itself moves no level, so the
// block it reads stays put, and the deferred leaves' draws, drops and
// joins run in the order the per-leaf walk would run them; the settled
// leaves share no state with them. The deferred leaves are edges the
// stack does not yet hold, so it stays within its reserved capacity.
func (s *sessState) crossHub(st []int32, lo, cn int32, countJoins bool) []int32 {
	base := len(st)
	for _, eid := range s.order[lo : lo+cn] {
		ed := &s.hot[eid]
		k := s.recvList[ed.recvLo]
		lossy := ed.meta&metaKindMask != 0
		if lossy && s.lossGap[eid] <= 1 || countJoins && s.countdown[k] <= 1 {
			st = append(st, eid)
			continue
		}
		if lossy {
			s.lossGap[eid]--
		}
		if countJoins {
			s.countdown[k]--
		}
		s.crossed[eid]++
		s.received[k]++
	}
	slices.Reverse(st[base:])
	return st
}

// forwardLossOnly is forward's walk, from the stack forward seeded, for
// sessions whose tree carries only instant loss links (Perfect /
// Bernoulli) — the paper's Section 4 setting and the common
// large-topology scenario — with the admission switch compiled out: an
// edge either always admits or runs the geometric gap counter.
// Behavior is identical to the generic walk.
func (e *engine) forwardLossOnly(s *sessState, w *walker, st []int32, layer int32, countJoins bool) {
	for len(st) > 0 {
		eid := st[len(st)-1]
		st = st[:len(st)-1]
	descend:
		ed := &s.hot[eid]
		s.crossed[eid]++
		// In a loss-only tree the kind bits are ekAlways (0) or
		// ekBernoulli, so any set kind bit means "run the gap counter".
		if ed.meta&metaKindMask != 0 {
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined (see
				// forward).
				u := w.rng.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				gap = int64(math.Log(u)*s.cold[eid].invLog) + 1
				if gap < 1 {
					gap = 1
				}
			}
			gap--
			s.lossGap[eid] = gap
			if gap == 0 {
				s.cold[eid].drops++
				e.notifyLoss(s, w, layer, eid)
				continue
			}
		}
		if ed.recvHi > ed.recvLo && !s.deliverSingle(layer, ed.recvLo, ed.recvHi, countJoins) {
			e.deliverNode(s, w, layer, ed.gtOff, ed.recvLo, ed.recvHi, countJoins)
		}
		if ed.meta&metaWide != 0 {
			if ed.meta&metaCut != 0 {
				e.part.arrive(ed.gtOff >> s.rowShift)
				continue
			}
			cn := s.gt[ed.gtOff+layer]
			if ed.meta&metaHub != 0 {
				st = s.crossHub(st, ed.edgeLo, cn, countJoins)
				continue
			}
			if cn > 0 {
				cb := ed.edgeLo
				for p := cn - 1; p >= 1; p-- {
					st = append(st, s.order[cb+p])
				}
				eid = s.order[cb]
				goto descend
			}
		} else {
			first := int32(-1)
			for ceid := ed.edgeHi - 1; ceid >= ed.edgeLo; ceid-- {
				if s.edgeSub[ceid] > layer {
					if first >= 0 {
						st = append(st, first)
					}
					first = ceid
				}
			}
			if first >= 0 {
				eid = first
				goto descend
			}
		}
	}
	w.stack = st[:0]
}

// forwardCapOnly is forward's walk, from the stack forward seeded, for
// sessions whose tree carries only Perfect and capacity-coupled links
// — the irregular-topology (ScaleFree / FatTree) benchmark shape — with
// the admission switch narrowed to one branch: an edge either always
// admits or runs the fluid-overload coin against its packed capDem
// row. Behavior is identical to the generic walk.
func (e *engine) forwardCapOnly(s *sessState, w *walker, st []int32, layer int32, countJoins bool) {
	for len(st) > 0 {
		eid := st[len(st)-1]
		st = st[:len(st)-1]
	descend:
		ed := &s.hot[eid]
		s.crossed[eid]++
		// In a cap-only tree the kind bits are ekAlways (0) or
		// ekCapacity, so any set kind bit means "run the overload coin".
		if ed.meta&metaKindMask != 0 {
			cd := &e.capDem[ed.capIdx]
			d := cd.dem + cd.bg
			if d > cd.cap && w.rng.Float64()*d < d-cd.cap {
				s.cold[eid].drops++
				e.notifyLoss(s, w, layer, eid)
				continue
			}
		}
		if ed.recvHi > ed.recvLo && !s.deliverSingle(layer, ed.recvLo, ed.recvHi, countJoins) {
			e.deliverNode(s, w, layer, ed.gtOff, ed.recvLo, ed.recvHi, countJoins)
		}
		if ed.meta&metaWide != 0 {
			if ed.meta&metaCut != 0 {
				e.part.arrive(ed.gtOff >> s.rowShift)
				continue
			}
			cn := s.gt[ed.gtOff+layer]
			if ed.meta&metaHub != 0 {
				st = s.crossHub(st, ed.edgeLo, cn, countJoins)
				continue
			}
			if cn > 0 {
				cb := ed.edgeLo
				for p := cn - 1; p >= 1; p-- {
					st = append(st, s.order[cb+p])
				}
				eid = s.order[cb]
				goto descend
			}
		} else {
			first := int32(-1)
			for ceid := ed.edgeHi - 1; ceid >= ed.edgeLo; ceid-- {
				if s.edgeSub[ceid] > layer {
					if first >= 0 {
						st = append(st, first)
					}
					first = ceid
				}
			}
			if first >= 0 {
				eid = first
				goto descend
			}
		}
	}
	w.stack = st[:0]
}

// dispatch routes one delayed packet into the session tree on the
// engine's own walk context, picking the walk variant: sessions under
// a leave-latency regime take forwardLinger (which must also run when
// nothing is subscribed, to meter lingering crossings); everything
// else takes the optimized forward.
func (e *engine) dispatch(s *sessState, layer, node int32, t float64) {
	if s.linger != nil {
		e.forwardLinger(s, &e.walk, layer, node, t)
		return
	}
	e.forward(s, &e.walk, layer, node, t)
}

// pushEligibleLinger seeds/extends the linger walk at node nd. It first
// counts a crossing on each edge whose window for the layer is still
// open at t, read from nd's list for the layer after unlinking the
// windows that have closed (they sit at its head). Then it seeds nd's
// subscribed children exactly as forward does (a leaf hub's through
// crossHub, any other node's through pushEligible), so the DFS order of
// subscribed-edge crossings, and hence every RNG draw, is identical to
// the plain walk's. Lingering crossings deliver nothing and draw no
// randomness. They are counted before any child is crossed, so a leaf
// that drops this packet opens its window after the packet has passed
// its parent. It runs once per hop and is written out whole: a nested
// call per hop costs the leave-latency sweeps ~10%.
func (s *sessState) pushEligibleLinger(st []int32, nd, layer int32, t float64, countJoins bool) []int32 {
	h := int32(len(s.linger)) + nd<<s.rowShift + layer
	i := s.lingerNext[h]
	for i != h && s.linger[i] <= t {
		next := s.lingerNext[i]
		s.unlinkLinger(i)
		i = next
	}
	for ; i != h; i = s.lingerNext[i] {
		s.crossed[i>>s.rowShift]++ // a leave still being processed wastes the link
	}
	if s.wide[nd] && s.isHub(nd) {
		return s.crossHub(st, s.edgeStart[nd], s.gt[(nd<<s.rowShift)+layer], countJoins)
	}
	return s.pushEligible(st, nd, layer)
}

// forwardLinger is the walk for sessions with LeaveLatency > 0: besides
// the normal descent into subscribed subtrees, an edge whose subtree
// has abandoned the layer still counts a crossing while its linger
// window is open — consuming bandwidth, delivering nothing, observing
// no losses, and drawing no randomness. Subscribed edges are visited in
// forward's exact DFS order (see pushEligibleLinger), so receiver
// dynamics are identical to the latency-0 run at equal seed; a
// childless node has neither children nor windows, and is not expanded.
// Linger trees are never partitioned, so no edge here is a cut edge.
func (e *engine) forwardLinger(s *sessState, w *walker, layer, node int32, t float64) {
	countJoins := s.cfg.Protocol != protocol.Coordinated
	if s.recvStart[node+1] > s.recvStart[node] {
		e.deliverAt(s, w, layer, node, countJoins)
	}
	st := s.pushEligibleLinger(w.stack[:0], node, layer, t, countJoins)
	for len(st) > 0 {
		eid := st[len(st)-1]
		st = st[:len(st)-1]
		ed := &s.hot[eid]
		s.crossed[eid]++
		dropped := false
		switch int8(ed.meta & metaKindMask) {
		case ekAlways:
		case ekBernoulli:
			gap := s.lossGap[eid]
			if gap == 0 {
				// protocol.SampleGeometricInv, textually inlined (see
				// forward).
				u := w.rng.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				gap = int64(math.Log(u)*s.cold[eid].invLog) + 1
				if gap < 1 {
					gap = 1
				}
			}
			gap--
			s.lossGap[eid] = gap
			dropped = gap == 0
		case ekLayerLoss:
			ll := e.linkLayerLoss[ed.link]
			p := ll[len(ll)-1]
			if int(layer) < len(ll) {
				p = ll[layer]
			}
			dropped = p > 0 && w.rng.Float64() < p
		case ekCapacity:
			cd := &e.capDem[ed.capIdx]
			d := cd.dem + cd.bg
			dropped = d > cd.cap && w.rng.Float64()*d < d-cd.cap
		default: // ekDropTail
			exit, drop := e.links[ed.link].admitQueue(t)
			if drop {
				dropped = true
				break
			}
			if exit > t {
				e.push(event{time: exit, kind: evForward, sess: int32(s.idx), layer: layer, node: ed.gtOff >> s.rowShift})
				continue
			}
		}
		if dropped {
			s.cold[eid].drops++
			e.notifyLoss(s, w, layer, eid)
			continue
		}
		if ed.recvHi > ed.recvLo && !s.deliverSingle(layer, ed.recvLo, ed.recvHi, countJoins) {
			e.deliverNode(s, w, layer, ed.gtOff, ed.recvLo, ed.recvHi, countJoins)
		}
		if ed.edgeHi > ed.edgeLo {
			st = s.pushEligibleLinger(st, ed.gtOff>>s.rowShift, layer, t, countJoins)
		}
	}
	w.stack = st[:0]
}

// notifyLoss delivers a congestion observation to every subscribed
// receiver below the dropping edge, at the drop instant (the paper's
// immediate-feedback idealization; links below a drop carry nothing).
// The downstream receiver set of an edge is static topology, a range of
// recvList in the same DFS order the subtree walk would visit —
// subscribed receivers are exactly those above the layer.
func (e *engine) notifyLoss(s *sessState, w *walker, layer, eid int32) {
	for _, k := range s.downstream(eid) {
		if s.levels[k] > layer {
			e.congestReceiver(s, w, int(k))
		}
	}
}

func (e *engine) applyChurn(ev ChurnEvent) {
	s := &e.sess[ev.Session]
	k := ev.Receiver
	switch {
	case ev.Join && s.levels[k] == 0:
		// A rejoining receiver starts fresh at the base layer.
		e.applyLevelChange(s, &e.walk, k, 1)
		e.armReceiver(s, &e.walk, k, 1)
	case !ev.Join && s.levels[k] > 0:
		e.applyLevelChange(s, &e.walk, k, 0)
	}
}

// Run executes one simulation: the sessions run as one group, or under
// Shards >= 1 as link-disjoint groups on their own engines (shard.go),
// and the groups fold into one Result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MemBudget > 0 {
		plan, err := PlanMemory(cfg)
		if err != nil {
			return nil, err
		}
		if plan.Total > cfg.MemBudget {
			return nil, fmt.Errorf("netsim: memory plan %d bytes exceeds MemBudget %d", plan.Total, cfg.MemBudget)
		}
	}
	return runGroups(cfg)
}

// run is the engine's main loop: it fires sender transmissions up to
// budget — the whole Packets budget for a one-group run, the group's
// share of it otherwise — running every scheduled event that precedes
// each calendar tick first. On a partitioned engine each transmission
// walks the core prefix and then the subtrees it reached.
func (e *engine) run(budget int) {
	for e.sent < budget {
		// Next sender transmission: the lowest-index session holding the
		// earliest calendar entry. With a uniform calendar that is the
		// round-robin cursor (see calUniform); otherwise scan.
		var ts float64
		var si int
		if e.calUniform {
			si = e.calCursor
			ts = e.txCal[si]
		} else {
			ts = math.Inf(1)
			for i, tx := range e.txCal {
				if tx < ts {
					ts = tx
					si = i
				}
			}
		}
		if len(e.q.a) > 0 && e.q.a[0].time <= ts {
			e.popThrough(ts) // skipped, call and all, when nothing is due
		}
		// Fire every layer due at this tick — the contiguous range given
		// by the tick's trailing zeros — layer-ascending, stopping
		// exactly at the budget.
		if e.probe != nil {
			e.probe.advanceTime(e, ts)
		}
		e.now = ts
		s := &e.sess[si]
		n := s.tick + 1
		lo := s.m - 1 - int32(bits.TrailingZeros64(n))
		if lo <= 1 {
			lo = 0 // layer 0 shares layer 1's period
		}
		for l := lo; l < s.m && e.sent < budget; l++ {
			e.sent++
			if s.linger != nil {
				// Linger sessions walk even when nothing subscribes: a
				// pending leave still meters crossings on the root edges.
				e.forwardLinger(s, &e.walk, l, 0, ts)
			} else if s.subMax[0] > l {
				e.forward(s, &e.walk, l, 0, ts)
				if e.part != nil {
					e.fanOut(s, l)
				}
			}
			if e.probe != nil {
				e.probe.advancePackets(e, ts)
			}
		}
		s.tick = n
		e.txCal[si] = float64(n+1) * s.tickDt
		e.ticksFired++
		if e.calUniform {
			if e.calCursor++; e.calCursor == len(e.sess) {
				e.calCursor = 0
			}
		}
	}
}

// popThrough runs the scheduled events that precede a transmission at
// ts: everything strictly earlier, plus same-instant packet events
// (delayed deliveries, churn). Signals yield to same-instant packets,
// so a signal sees every packet of its instant.
func (e *engine) popThrough(ts float64) {
	for len(e.q.a) > 0 {
		top := &e.q.a[0]
		if top.time > ts || (top.time == ts && top.key >= prioSignal) {
			break
		}
		ev := e.q.pop()
		if e.probe != nil {
			e.probe.advanceTime(e, ev.time)
		}
		e.now = ev.time
		e.pops++
		switch ev.kind {
		case evForward:
			e.popForward++
			e.dispatch(&e.sess[ev.sess], ev.layer, ev.node, e.now)
		case evChurn:
			e.popChurn++
			e.applyChurn(e.churn[ev.node])
		case evSignal:
			e.popSignal++
			e.signal()
		}
	}
}

// signal drives the global Coordinated join clock: one nested signal
// level per tick, delivered to every active Coordinated receiver.
func (e *engine) signal() {
	e.signalIdx++
	for i := range e.sess {
		s := &e.sess[i]
		if s.cfg.Protocol != protocol.Coordinated || s.cfg.Layers < 2 {
			continue
		}
		lvl := int32(protocol.SignalLevel(e.signalIdx, s.cfg.Layers-1))
		eligible := false
		for v := int32(1); v <= lvl; v++ {
			if e.levelPopulated(s, v) {
				eligible = true
				break
			}
		}
		if !eligible {
			continue // nobody at or below the signal level: exact no-op
		}
		for k, lv := range s.levels {
			// protocol.Receiver.OnSignal, inlined. Departed receivers
			// (level 0) and receivers above the signal level are exact
			// no-ops, skipped without touching their join state.
			if lv < 1 || lv > lvl {
				continue
			}
			if s.clean[k] {
				e.joinReceiver(s, &e.walk, k)
			} else {
				// Missed opportunity; the next window starts now.
				s.clean[k] = true
			}
		}
	}
	e.push(event{time: e.now + e.signalPeriod, key: prioSignal, kind: evSignal})
}

// foldLinkStats folds the engines' edge-indexed counters back to
// (session, link) in flat session-major rows — each session's tree
// crosses a link through at most one edge — and reads them out as
// LinkStats in the network's link-major OnLink order, for a run of
// length now; rates are the receivers' goodputs by global session.
//
// Definition 3's best downstream goodput comes from one reverse-pre-
// order max per session tree: every node's parent has a smaller id, and
// the receivers below an edge are exactly the session's R_{i,j} on its
// link, so each edge reads the maximum a scan of OnLink's receiver list
// would find.
func foldLinkStats(net *netmodel.Network, engines []*engine, now float64, rates [][]float64) []LinkStats {
	nL, rows := net.NumLinks(), net.NumSessions()*net.NumLinks()
	crossed := make([]int, rows)
	dropped := make([]int, rows)
	fluid := make([]float64, rows)
	best := make([]float64, rows)
	maxTreeN := 0
	for _, e := range engines {
		for i := range e.sess {
			maxTreeN = max(maxTreeN, len(e.sess[i].subMax))
		}
	}
	nodeBest := make([]float64, maxTreeN)
	for _, e := range engines {
		for li := range e.sess {
			s := &e.sess[li]
			gi := e.gsess[li]
			nb := nodeBest[:len(s.subMax)]
			clear(nb)
			for k, r := range rates[gi] {
				if nd := s.recvNode[k]; r > nb[nd] {
					nb[nd] = r
				}
			}
			for nd := len(nb) - 1; nd > 0; nd-- {
				if p := s.parent[nd]; nb[nd] > nb[p] {
					nb[p] = nb[nd]
				}
			}
			base := gi * nL
			for eid := range s.hot {
				j := base + int(s.hot[eid].link)
				crossed[j] = int(s.crossed[eid])
				dropped[j] = int(s.cold[eid].drops)
				best[j] = nb[s.hot[eid].gtOff>>s.rowShift]
				if now > 0 {
					f := s.fluidInt[eid] + s.cum[s.edgeSub[eid]]*(now-s.fluidT[eid])
					fluid[j] = f / now
				}
			}
		}
	}
	total := 0
	for j := 0; j < nL; j++ {
		total += len(net.OnLink(j))
	}
	out := make([]LinkStats, 0, total)
	for j := 0; j < nL; j++ {
		for _, sr := range net.OnLink(j) {
			at := sr.Session*nL + j
			ls := LinkStats{
				Link: j, Session: sr.Session,
				Crossed:             crossed[at],
				Dropped:             dropped[at],
				FluidRate:           fluid[at],
				DownstreamReceivers: sr.Len(),
			}
			if now > 0 {
				ls.Rate = float64(ls.Crossed) / now
				if best[at] > 0 {
					ls.Redundancy = ls.Rate / best[at]
				}
			}
			out = append(out, ls)
		}
	}
	return out
}

// MaxReceiverRate returns the largest goodput in the result (a
// convenience for Definition 3 style normalizations).
func (r *Result) MaxReceiverRate() float64 {
	best := math.Inf(-1)
	for _, rs := range r.ReceiverRates {
		for _, v := range rs {
			if v > best {
				best = v
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
