package netsim

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Intra-session subtree sharding (Config.Shards >= 1, single-session
// shard groups).
//
// Session-group sharding (shard.go) cannot help a group that holds one
// giant session: a 1M-receiver planetary region is still one sequential
// event loop. But inside such a tree almost all work lives below a thin
// bottleneck core (the Sreenivasan et al. scale-free regime): the fan-out
// subtrees hanging off the core are pairwise link-disjoint, so — exactly
// like shard groups — they can only interact through the shared core
// prefix above them. The engine therefore partitions the DFS-ordered CSR
// tree at a cut frontier (cut edges carry metaCut) and splits every
// transmission walk into three phases, the first two of them the
// ordinary forward walk on different walk contexts:
//
//  1. Core (sequential). forward walks the shared prefix from the sender
//     on the engine's own walk context, and stops at cut edges: a cut
//     edge's crossing is counted and its admission outcome fixed here —
//     sequentially, in DFS order — and an admitted packet is recorded as
//     an arrival for the subtree below. Fixing cut-edge outcomes in the
//     core phase is what makes the fan-out phase embarrassingly
//     parallel: nothing a subtree does can change whether a sibling's
//     packet was admitted.
//
//  2. Fan-out (parallel). Each arrived subtree runs forward from its
//     root on a worker's walk context pointed at the subtree: its own
//     PCG stream (seeded from the group seed and the subtree index —
//     never from Shards or the worker schedule) and its own row of a
//     per-subtree level-accounting partition. The walk mutates only
//     subtree-owned state: its receivers' protocol arrays, its edges'
//     counters, its nodes' subscription rows, and that row. Level
//     changes propagate only up to the subtree root; the cut edge itself
//     is left untouched (phase 3 owns it). Work is distributed by an
//     atomic cursor — the schedule affects wall-clock only, never state,
//     because subtrees are disjoint.
//
//  3. Rollup (sequential). For each arrival, in ascending subtree order,
//     the deferred cut-edge bookkeeping runs if the subtree root's
//     maximum moved: fluid-integral advance, edgeSub, capacity demand
//     (exact — the scheme's cumulative rates are integer-valued, so the
//     telescoped delta equals the sum of the intermediate deltas), child
//     re-bucketing in the core parent, then the ordinary upward
//     propagation through the core.
//
// Determinism: phases 1 and 3 are sequential with a fixed order; phase 2
// consumes per-subtree streams whose draw order is fixed by the
// arrival sequence (itself fixed by phase 1). The Result is therefore a
// pure function of the Config — every Shards >= 1 yields the identical
// Result, and GOMAXPROCS/worker count never leak into output. Like
// multi-group sharding, the decomposed run is a different (equally
// valid) realization than the Shards == 0 run: subtree streams replace
// slices of the engine's own stream.
//
// Between transmissions everything is sequential, so churn, signal
// delivery, and probe flushes run on globally consistent state with the
// engine's own walk context; level changes from those paths propagate
// straight through the cut edge and re-sync the subtree's rollup
// snapshot.

// subtreeSalt decorrelates per-subtree seeds from both the replication
// fan-out (ReplicationSeed(seed, i)) and the shard-group fan-out
// (shardSeed — ReplicationSeed(seed^shardSalt, g)).
const subtreeSalt = 0x6a09e667f3bcc909

// subtreeSeed derives subtree j's RNG seed from the owning engine's
// (group) seed. Unlike shardSeed, subtree 0 does not inherit the group
// seed: the core prefix keeps it, so every subtree needs a fresh stream.
func subtreeSeed(base uint64, j int) uint64 {
	return ReplicationSeed(base^subtreeSalt, j+1)
}

// Auto-frontier policy (Config.CutLinks empty): aim for about
// autoCutTargetSubtrees subtrees by cutting the maximal nodes whose
// subtree holds at most ceil-ish nR/target receivers. The guards reject
// decompositions that cannot pay for the phase barriers: tiny sessions,
// frontiers covering less than half the receivers (the core would stay
// the bottleneck), and splinter frontiers of near-empty subtrees (a
// star's leaf edges — no parallelism to extract).
const (
	autoCutTargetSubtrees  = 64
	autoCutMinReceivers    = 4096
	autoCutMinAvgReceivers = 32
)

// treePartition is the engine-side decomposition of one session's tree.
// Built only for single-session shard groups (see newTreePartition for
// the eligibility rules); nil on every other engine, whose walks then
// never meet a cut edge.
type treePartition struct {
	numSub int
	// subRoot[j] is subtree j's root node (the cut edge's child) and
	// cutEid[j] the cut edge entering it; subtree indices ascend in DFS
	// pre-order of their roots. subOfNode maps every tree node to its
	// owning subtree, -1 for the core prefix.
	subRoot   []int32
	cutEid    []int32
	subOfNode []int32
	// prevRootMax[j] is subMax[subRoot[j]] as of the last rollup — the
	// comparison that detects deferred cut-edge work. Sequential level
	// changes that run straight through the cut edge re-sync it.
	prevRootMax []int32
	// rngs[j] is subtree j's private PCG stream.
	rngs []*rand.Rand

	// Per-subtree level-accounting partition: the session totals are the
	// sessState scalars plus these rows summed. Parallel-phase changes
	// land here (the owner's row, contention-free); sequential-phase
	// changes keep using the sessState scalars — each delta lands in
	// exactly one accumulator, so sums (and the piecewise-lazy level
	// integral) stay exact. Individual entries may go negative.
	mrow     int32 // row stride: Layers+1
	nAtLevel []int32
	sumLevel []int64
	levelInt []float64
	levelT   []float64

	// arrivals lists the subtrees the current packet reached, in DFS
	// (ascending) order — phase 2's work list and phase 3's merge order.
	arrivals []int32

	// Worker pool. workers is fixed by runGroups (never by the
	// schedule); goroutines are spawned lazily on the first parallel
	// round and stopped by runGroups after the run. walkers[w] is worker
	// w's walk context (index 0 belongs to the engine goroutine), its
	// stack sized for the largest subtree.
	workers  int
	maxStack int
	layer    int32
	chunk    int64
	cursor   atomic.Int64
	wg       sync.WaitGroup
	wake     []chan struct{}
	walkers  []walker
	spawned  bool
}

// newTreePartition decides whether — and how — the engine's single
// session is decomposed, returning nil when subtree sharding does not
// apply. Eligibility is a pure function of the Config (never of Shards'
// value beyond being >= 1, and never of worker counts): the tree must
// carry no DropTail edge (queue state and delayed-delivery events are
// global), the run must have no leave-latency regime (linger windows
// couple edges across the frontier), and the frontier must yield at
// least two subtrees. Explicit Config.CutLinks are honored as given
// (nested cuts collapse into the outermost); the auto frontier
// additionally applies the quality guards above.
func newTreePartition(e *engine, s *sessState, seed uint64) *treePartition {
	if e.leaveLatency > 0 {
		return nil
	}
	for eid := range s.hot {
		if int8(s.hot[eid].meta&metaKindMask) == ekDropTail {
			return nil
		}
	}
	treeN := len(s.subMax)
	nR := len(s.levels)
	if treeN < 3 || nR == 0 {
		return nil // a single-edge tree has no interior to cut
	}
	// Subtree receiver counts by reverse pre-order accumulation (every
	// node's parent has a smaller pre-order id).
	counts := make([]int32, treeN)
	for nd := 0; nd < treeN; nd++ {
		counts[nd] = s.recvStart[nd+1] - s.recvStart[nd]
	}
	for nd := int32(treeN - 1); nd > 0; nd-- {
		counts[s.parent[nd]] += counts[nd]
	}
	explicit := len(e.cfg.CutLinks) > 0
	var isCut func(nd int32) bool
	if explicit {
		cut := make(map[int32]bool, len(e.cfg.CutLinks))
		for _, j := range e.cfg.CutLinks {
			cut[int32(j)] = true
		}
		isCut = func(nd int32) bool { return cut[s.hot[s.parentEdge[nd]].link] }
	} else {
		if nR < autoCutMinReceivers {
			return nil
		}
		c := int32(nR / autoCutTargetSubtrees)
		if c < 1 {
			c = 1
		}
		// Maximal nodes with at most c receivers below them: counts are
		// monotone down the tree, so "parent above the threshold" is
		// exactly "no ancestor is cut".
		isCut = func(nd int32) bool { return counts[nd] <= c && counts[s.parent[nd]] > c }
	}
	subOfNode := make([]int32, treeN)
	subOfNode[0] = -1
	var subRoot, cutEid []int32
	cutRecv := 0
	for nd := int32(1); nd < int32(treeN); nd++ {
		own := subOfNode[s.parent[nd]]
		if own < 0 && isCut(nd) {
			own = int32(len(subRoot))
			subRoot = append(subRoot, nd)
			cutEid = append(cutEid, s.parentEdge[nd])
			cutRecv += int(counts[nd])
		}
		subOfNode[nd] = own
	}
	numSub := len(subRoot)
	if numSub < 2 {
		return nil
	}
	if !explicit {
		if cutRecv*2 < nR || numSub*autoCutMinAvgReceivers > cutRecv {
			return nil
		}
	}
	// Node-count accumulation sizes the per-worker DFS stacks: a subtree
	// walk holds at most one entry per subtree-interior edge.
	sizes := make([]int32, treeN)
	for nd := range sizes {
		sizes[nd] = 1
	}
	for nd := int32(treeN - 1); nd > 0; nd-- {
		sizes[s.parent[nd]] += sizes[nd]
	}
	maxStack := 0
	for _, r := range subRoot {
		if n := int(sizes[r]) - 1; n > maxStack {
			maxStack = n
		}
	}
	for _, eid := range cutEid {
		// The core walk neither delivers at nor descends below a cut
		// edge; marking it wide routes it to the walk's rare branch,
		// where metaCut is tested. downstream() keeps recvLo.
		s.hot[eid].meta |= metaCut | metaWide
		s.hot[eid].recvHi = s.hot[eid].recvLo
	}
	p := &treePartition{
		numSub:      numSub,
		subRoot:     subRoot,
		cutEid:      cutEid,
		subOfNode:   subOfNode,
		prevRootMax: make([]int32, numSub),
		rngs:        make([]*rand.Rand, numSub),
		mrow:        s.m + 1,
		nAtLevel:    make([]int32, numSub*int(s.m+1)),
		sumLevel:    make([]int64, numSub),
		levelInt:    make([]float64, numSub),
		levelT:      make([]float64, numSub),
		arrivals:    make([]int32, 0, numSub),
		workers:     1,
		maxStack:    maxStack,
	}
	for j, r := range subRoot {
		// Construction bring-up already ran through the full sequential
		// machinery; snapshot its outcome as the rollup baseline.
		p.prevRootMax[j] = s.subMax[r]
		sd := subtreeSeed(seed, j)
		p.rngs[j] = rand.New(rand.NewPCG(sd, sd^0x9e3779b97f4a7c15))
	}
	return p
}

// setWorkers fixes the fan-out width before the run (clamped to the
// subtree count; at most one goroutine per subtree is ever useful).
// Purely a throughput knob: output is identical for every value.
func (p *treePartition) setWorkers(w int) {
	if w > p.numSub {
		w = p.numSub
	}
	if w < 1 {
		w = 1
	}
	p.workers = w
}

// ensure lazily allocates the walk contexts and spawns the worker
// goroutines. The stacks share one backing array with a cache line
// between neighbours, so no two workers' stacks share a line either.
func (p *treePartition) ensure(e *engine, s *sessState) {
	p.spawned = true
	p.walkers = make([]walker, p.workers)
	stride := p.maxStack + 16 // 16 int32s: one 64-byte line of gap
	stacks := make([]int32, p.workers*stride)
	for w := range p.walkers {
		p.walkers[w].stack = stacks[w*stride : w*stride : w*stride+p.maxStack]
	}
	p.wake = make([]chan struct{}, p.workers)
	for w := 1; w < p.workers; w++ {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				p.drain(e, s, w)
				p.wg.Done()
			}
		}(w, ch)
	}
}

// stop terminates the worker goroutines (idempotent; safe when none
// were ever spawned).
func (p *treePartition) stop() {
	if !p.spawned {
		return
	}
	for w := 1; w < p.workers; w++ {
		close(p.wake[w])
	}
	p.spawned = false
}

// fanOut finishes a transmission on a partitioned engine once the core
// walk has recorded its arrivals: the arrived subtrees' walks (phase 2),
// then their deferred cut-edge work in ascending subtree order (phase 3).
func (e *engine) fanOut(s *sessState, layer int32) {
	p := e.part
	p.runPhase2(e, s, layer)
	for _, j := range p.arrivals {
		e.rollupSubtree(s, int(j))
	}
	p.arrivals = p.arrivals[:0]
}

// arrive records a packet admitted on the cut edge entering node nd:
// nd's subtree joins the current fan-out round.
func (p *treePartition) arrive(nd int32) {
	p.arrivals = append(p.arrivals, p.subOfNode[nd])
}

// runPhase2 fans the current arrivals out to the workers and waits for
// the barrier. Small rounds run inline: waking workers costs more than
// a handful of subtree walks.
func (p *treePartition) runPhase2(e *engine, s *sessState, layer int32) {
	n := len(p.arrivals)
	if n == 0 {
		return
	}
	if !p.spawned {
		p.ensure(e, s)
	}
	if p.workers <= 1 || n < 2*p.workers {
		for _, j := range p.arrivals {
			e.walkSubtree(s, &p.walkers[0], j, layer)
		}
		return
	}
	p.layer = layer
	chunk := int64(n / (4 * p.workers))
	if chunk < 1 {
		chunk = 1
	}
	p.chunk = chunk
	p.cursor.Store(0)
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.wake[w] <- struct{}{}
	}
	p.drain(e, s, 0)
	p.wg.Wait()
}

// drain is one worker's share of a phase-2 round: grab arrival chunks
// off the atomic cursor until the list is exhausted. The grab order is
// a race on purpose — subtrees are disjoint, so the schedule cannot
// influence any output.
func (p *treePartition) drain(e *engine, s *sessState, w int) {
	wk := &p.walkers[w]
	n := int64(len(p.arrivals))
	layer := p.layer
	for {
		i := p.cursor.Add(p.chunk) - p.chunk
		if i >= n {
			break
		}
		hi := i + p.chunk
		if hi > n {
			hi = n
		}
		for _, j := range p.arrivals[i:hi] {
			e.walkSubtree(s, wk, j, layer)
		}
	}
}

// walkSubtree delivers one packet admitted on subtree j's cut edge: it
// points w at the subtree — its stream, its accounting row, its root —
// and runs the ordinary walk from the subtree root. Runs concurrently
// with walks of other subtrees.
func (e *engine) walkSubtree(s *sessState, w *walker, j, layer int32) {
	p := e.part
	w.rng, w.sub, w.root = p.rngs[j], j, p.subRoot[j]
	e.forward(s, w, layer, w.root, e.now)
}

// rollupSubtree performs subtree j's deferred cut-edge work after a
// fan-out round: if the root's maximum moved, advance the cut edge's
// fluid integral, publish the new edgeSub, apply the (telescoped, exact)
// capacity-demand delta, re-bucket the cut edge in its core parent, and
// propagate the contribution change up the core — precisely what an
// unpartitioned walk would have done at the cut edge, just batched.
func (e *engine) rollupSubtree(s *sessState, j int) {
	p := e.part
	root := p.subRoot[j]
	nm := s.subMax[root]
	om := p.prevRootMax[j]
	if nm == om {
		return
	}
	p.prevRootMax[j] = nm
	eid := p.cutEid[j]
	s.fluidInt[eid] += s.cum[om] * (e.now - s.fluidT[eid])
	s.fluidT[eid] = e.now
	s.edgeSub[eid] = nm
	if e.trackDemand {
		e.capDem[s.hot[eid].capIdx].dem += s.cum[nm] - s.cum[om]
	}
	pnd := s.parent[root]
	if s.wide[pnd] {
		s.reorder(eid, pnd, om, nm)
	}
	e.propagateFrom(s, &e.walk, pnd, om, nm)
}

// sessionLevelIntegral is the session's level integral at time now:
// the sessState scalars plus, on partitioned engines, the per-subtree
// accumulators (each lazily advanced to now).
func (e *engine) sessionLevelIntegral(s *sessState, now float64) float64 {
	li := s.levelInt + float64(s.sumLevel)*(now-s.levelT)
	if p := e.part; p != nil {
		for j := range p.sumLevel {
			li += p.levelInt[j] + float64(p.sumLevel[j])*(now-p.levelT[j])
		}
	}
	return li
}

// levelPopulated reports whether any receiver of s currently sits at
// level v: the sessState count plus the partition rows. Individual
// accumulators may be negative; only the sum is meaningful.
func (e *engine) levelPopulated(s *sessState, v int32) bool {
	n := s.nAtLevel[v]
	if p := e.part; p != nil {
		stride := int(p.mrow)
		for j := 0; j < p.numSub; j++ {
			n += p.nAtLevel[j*stride+int(v)]
		}
	}
	return n > 0
}
