package netsim

import "math/rand/v2"

// Intra-session subtree partition (Config.CutLinks under Shards >= 1,
// single-session shard groups).
//
// An explicit cut frontier splits a single session's DFS-ordered CSR
// tree into a core prefix and the link-disjoint subtrees hanging off it
// (cut edges carry metaCut). Each transmission walk then runs in three
// sequential phases, the first two of them the ordinary forward walk on
// different walk contexts:
//
//  1. Core. forward walks the shared prefix from the sender on the
//     engine's own walk context and stops at cut edges: a cut edge's
//     crossing is counted and its admission outcome fixed here, in DFS
//     order, and an admitted packet is recorded as an arrival for the
//     subtree below.
//
//  2. Subtrees. Each arrived subtree, in ascending subtree order, runs
//     forward from its root on the partition's walk context pointed at
//     the subtree: its own PCG stream (seeded from the group seed and
//     the subtree index) and its own row of a per-subtree
//     level-accounting partition. Level changes propagate only up to the
//     subtree root; the cut edge itself is left untouched (phase 3 owns
//     it).
//
//  3. Rollup. For each arrival, in ascending subtree order, the deferred
//     cut-edge bookkeeping runs if the subtree root's maximum moved:
//     fluid-integral advance, edgeSub, capacity demand (exact: the
//     scheme's cumulative rates are integer-valued, so the telescoped
//     delta equals the sum of the intermediate deltas), child
//     re-bucketing in the core parent, then the ordinary upward
//     propagation through the core.
//
// The partition runs nothing concurrently. It stays because it decides
// a realization: the subtree streams replace slices of the engine's own
// stream, so a cut run is a different (equally valid) realization than
// the uncut run, and the committed planetary goldens are cut at the
// access links. Without CutLinks no engine is partitioned, and a
// single-group run at any Shards >= 1 is the Shards == 0 run.
//
// Between transmissions the engine's own walk context handles churn,
// signal delivery and probe flushes; level changes from those paths
// propagate straight through the cut edge and re-sync the subtree's
// rollup snapshot.

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

// treePartition is the engine-side decomposition of one session's tree.
// Built only for single-session shard groups with explicit CutLinks
// (see newTreePartition for the eligibility rules); nil on every other
// engine, whose walks then never meet a cut edge.
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
	// sessState scalars plus these rows summed. Subtree walks' changes
	// land in the subtree's row; every other change keeps using the
	// sessState scalars — each delta lands in exactly one accumulator,
	// so sums (and the piecewise-lazy level integral) stay exact.
	// Individual entries may go negative.
	mrow     int32 // row stride: Layers+1
	nAtLevel []int32
	sumLevel []int64
	levelInt []float64
	levelT   []float64

	// arrivals lists the subtrees the current packet reached, in DFS
	// (ascending) order — phase 2's work list and phase 3's merge order.
	arrivals []int32

	// walk is the subtree walk context, re-pointed at each arrived
	// subtree. Its stack shares the engine walker's array, which is idle
	// once the core walk has returned and holds a whole tree's edges.
	walk walker
}

// newTreePartition decides whether the engine's single session is
// decomposed at cfg.CutLinks, returning nil when it is not. Eligibility
// is a pure function of the Config (never of Shards' value beyond being
// >= 1): CutLinks must be set, the tree must carry no DropTail edge
// (queue state and delayed-delivery events are global), the run must
// have no leave-latency regime (linger windows couple edges across the
// frontier), and the frontier must yield at least two subtrees. Nested
// cuts collapse into the outermost.
func newTreePartition(e *engine, s *sessState, seed uint64) *treePartition {
	if len(e.cfg.CutLinks) == 0 || e.leaveLatency > 0 {
		return nil
	}
	for eid := range s.hot {
		if int8(s.hot[eid].meta&metaKindMask) == ekDropTail {
			return nil
		}
	}
	treeN := len(s.subMax)
	if treeN < 3 || len(s.levels) == 0 {
		return nil // a single-edge tree has no interior to cut
	}
	cut := make(map[int32]bool, len(e.cfg.CutLinks))
	for _, j := range e.cfg.CutLinks {
		cut[int32(j)] = true
	}
	subOfNode := make([]int32, treeN)
	subOfNode[0] = -1
	var subRoot, cutEid []int32
	for nd := int32(1); nd < int32(treeN); nd++ {
		own := subOfNode[s.parent[nd]]
		if own < 0 && cut[s.hot[s.parentEdge[nd]].link] {
			own = int32(len(subRoot))
			subRoot = append(subRoot, nd)
			cutEid = append(cutEid, s.parentEdge[nd])
		}
		subOfNode[nd] = own
	}
	numSub := len(subRoot)
	if numSub < 2 {
		return nil
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
		walk:        walker{stack: e.walk.stack},
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

// fanOut finishes a transmission on a partitioned engine once the core
// walk has recorded its arrivals: the arrived subtrees' walks (phase 2),
// then their deferred cut-edge work (phase 3), each in ascending
// subtree order.
func (e *engine) fanOut(s *sessState, layer int32) {
	p := e.part
	w := &p.walk
	for _, j := range p.arrivals {
		w.rng, w.sub, w.root = p.rngs[j], j, p.subRoot[j]
		e.forward(s, w, layer, w.root, e.now)
	}
	for _, j := range p.arrivals {
		e.rollupSubtree(s, int(j))
	}
	p.arrivals = p.arrivals[:0]
}

// arrive records a packet admitted on the cut edge entering node nd:
// nd's subtree is walked once the core walk returns.
func (p *treePartition) arrive(nd int32) {
	p.arrivals = append(p.arrivals, p.subOfNode[nd])
}

// rollupSubtree performs subtree j's deferred cut-edge work after the
// transmission's subtree walks: if the root's maximum moved, advance
// the cut edge's fluid integral, publish the new edgeSub, apply the
// (telescoped, exact) capacity-demand delta, re-bucket the cut edge in
// its core parent, and propagate the contribution change up the core —
// precisely what an unpartitioned walk would have done at the cut edge,
// just batched.
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
