package netsim

import (
	"fmt"
	"unsafe"

	"mlfair/internal/protocol"
)

// MemoryPlan is PlanMemory's prediction of an engine's peak heap, in
// bytes, as a closed-form function of the compiled topology — receiver,
// link and session counts plus tree shapes — with no dependence on the
// run's dynamics: the engine allocates everything it will ever own
// before the first event and never grows during the run.
//
// The plan covers the engine (and, under Shards >= 1, all group
// engines): per-session width-segregated slabs, per-engine link rows,
// calendars and event arenas, the construction-time scratch that is
// live only while trees are discovered, and the result-fold buffers
// allocated after the run. It does not count the netmodel.Network the
// caller already built to produce the Config.
type MemoryPlan struct {
	// Receivers, Links, Sessions summarize the topology the plan was
	// computed for; Groups is the number of independent engines (1 at
	// Shards == 0, the link-connectivity component count when sharded).
	Receivers, Links, Sessions, Groups int
	// Subtrees is the total intra-session subtree count across every
	// group engine that decomposes its single session's tree at
	// Config.CutLinks (see newTreePartition — the plan replays the same
	// eligibility rules), zero when no engine partitions. CutFrontier is
	// the total cut-edge count; exactly one cut edge enters each
	// subtree, so the two are equal by construction and reported
	// separately only so logs read naturally.
	Subtrees, CutFrontier int
	// SessionBytes is the sum of every session's slab footprint: the
	// CSR tree, receiver protocol arrays, subscription rows and, where a
	// node hosts several receivers, delivery counter rows and, under a
	// countdown protocol, the level-countdown state: subscription
	// bitmaps with their slot index, the dueRun and dueMin rows, and a
	// one-node scratch bitmap. Under a leave latency it adds the linger
	// windows and their per-(node, layer) lists. The receivers below an
	// edge are a range of the pre-order receiver list, so downstream
	// sets cost one int32 per edge. It equals the bytes the engine's
	// session slices hold.
	SessionBytes int64
	// FixedBytes is the per-engine state outside any session: capacity
	// rows, DropTail queue state, loss tables, transmit calendars, the
	// event arena, and the forwarding stack.
	FixedBytes int64
	// ScratchBytes is construction-time scratch (global-id tree
	// discovery), dead once the engine is built.
	ScratchBytes int64
	// ResultBytes is the result-time fold: per-receiver output arrays,
	// the dense (session, link) scatter rows, the per-node best-goodput
	// scratch, and the LinkStats slice.
	ResultBytes int64
	// Total is the planned peak: steady state plus the larger of the
	// construction scratch and the result fold (they are never live
	// together).
	Total int64
	// BytesPerReceiver is the steady-state engine footprint
	// (SessionBytes + FixedBytes) per receiver — the scale metric the
	// planetary budget is written against.
	BytesPerReceiver float64
}

// PlanMemory predicts the engine's peak heap for cfg without building
// it. Run enforces cfg.MemBudget against this plan before any large
// allocation happens.
func PlanMemory(cfg Config) (*MemoryPlan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	net := cfg.Network
	g := net.Graph()
	nn := g.NumNodes()
	nL := net.NumLinks()
	S := net.NumSessions()
	p := &MemoryPlan{Links: nL, Sessions: S, Groups: 1}

	const (
		szHot   = int64(unsafe.Sizeof(hotEdge{}))
		szCold  = int64(unsafe.Sizeof(coldEdge{}))
		szEvent = int64(unsafe.Sizeof(event{}))
		szCap   = int64(unsafe.Sizeof(capDemand{}))
		szLink  = int64(unsafe.Sizeof(linkState{}))
		szLS    = int64(unsafe.Sizeof(LinkStats{}))
	)

	// Shard groups are a pure function of the topology; computed up
	// front because the per-session subtree replay below needs to know
	// which sessions run alone in their group.
	var groupOf []int
	if cfg.Shards > 0 {
		groupOf, p.Groups = sessionGroupsOf(cfg)
	}
	groupSize := make([]int, p.Groups)
	if groupOf != nil {
		for _, gp := range groupOf {
			groupSize[gp]++
		}
	}
	var cutSet map[int]bool
	if len(cfg.CutLinks) > 0 {
		cutSet = make(map[int]bool, len(cfg.CutLinks))
		for _, j := range cfg.CutLinks {
			cutSet[j] = true
		}
	}

	// Per-session slabs: replay the discovery walk with an epoch-stamped
	// visited array to size each tree (distinct nodes reached by the
	// session's paths) without building it, one walk per run of
	// receivers sharing a path (netmodel.Network.PathRun). Under
	// CutLinks, sessions that run alone in their shard group additionally
	// replay newTreePartition's frontier — same eligibility rules — so
	// the plan carries the partition slabs and the subtree counts the
	// engines will build.
	visited := make([]int32, nn)
	hostMark := make([]int32, nn)
	hostCnt := make([]int32, nn) // receivers at a node, valid where hostMark is this session's
	var rootMark []int32
	var partFixed int64
	maxEdges, maxTreeN, totR := 0, 0, 0
	for i := 0; i < S; i++ {
		ns := net.Session(i)
		L := cfg.Sessions[i].Layers
		epoch := int32(i + 1)
		doPart := cutSet != nil && groupOf != nil && groupSize[groupOf[i]] == 1 && cfg.LeaveLatency == 0
		if doPart && rootMark == nil {
			rootMark = make([]int32, nn)
		}
		hasDT := false
		visited[ns.Sender] = epoch
		nE := 0
		maxHost := 0 // the most receivers one node hosts
		for k, run := 0, 0; k < len(ns.Receivers); k += run {
			run = net.PathRun(i, k)
			host := ns.Receivers[k]
			if hostMark[host] != epoch {
				hostMark[host] = epoch
				hostCnt[host] = 0
			}
			hostCnt[host] += int32(run)
			maxHost = max(maxHost, int(hostCnt[host]))
			cur := ns.Sender
			for _, j := range net.Path(i, k) {
				nb := g.Other(j, cur)
				if visited[nb] != epoch {
					visited[nb] = epoch
					nE++
				}
				// Nil Links means every link is Perfect.
				if doPart && cfg.Links != nil && cfg.Links[j].Kind == DropTail {
					hasDT = true
				}
				cur = nb
			}
		}
		treeN := 1 + nE
		nR := ns.NumReceivers()
		totR += nR
		if doPart && !hasDT && treeN >= 3 && nR > 0 {
			// Frontier replay: walk each receiver path once more up to its
			// first cut edge (first-cut-wins is exactly newTreePartition's
			// outermost collapse); distinct roots give the subtree count.
			numSub := 0
			for k := 0; k < len(ns.Receivers); k += net.PathRun(i, k) {
				cur := ns.Sender
				for _, j := range net.Path(i, k) {
					nb := g.Other(j, cur)
					if cutSet[j] {
						if rootMark[nb] != epoch {
							rootMark[nb] = epoch
							numSub++
						}
						break
					}
					cur = nb
				}
			}
			if numSub >= 2 {
				p.Subtrees += numSub
				p.CutFrontier += numSub
				partFixed += 4*int64(treeN) + // subOfNode
					// subRoot/cutEid/prevRootMax, the per-subtree level
					// rows, arrivals, and the rng slice + PCG states.
					int64(numSub)*(12+4*int64(L+1)+24+4+8+64)
			}
		}
		rowShift := 1
		for 1<<rowShift < L+1 {
			rowShift++
		}
		rowLen := treeN << rowShift
		n32 := 3*nR + (L + 1) + 3*treeN + 2*(treeN+1) + 2*rowLen + 4*nE
		n64 := nR + 2*nE
		var bitmaps int64
		if maxHost > 1 { // as newEngineFor's shared
			n64 += rowLen // got
			if cfg.Sessions[i].Protocol != protocol.Coordinated {
				n32 += nR         // slotOf
				n64 += 2 * rowLen // dueRun, dueMin
				bitmaps = 8 * (int64(L)*int64((nR+63)>>6) + int64(dueWords(maxHost)))
			}
		}
		nf := 2*L + 1 + 2*nE
		if cfg.LeaveLatency > 0 {
			nf += nE << rowShift                  // linger windows
			n32 += 2 * ((nE + treeN) << rowShift) // their lists
		}
		nb := nR + 2*treeN
		p.SessionBytes += 4*int64(n32) + 8*int64(n64) + 8*int64(nf) + int64(nb) +
			8*int64(nR) + // received
			bitmaps + szHot*int64(nE) + szCold*int64(nE)
		if nE > maxEdges {
			maxEdges = nE
		}
		if treeN > maxTreeN {
			maxTreeN = treeN
		}
	}
	p.Receivers = totR

	// Per-engine fixed state, gated exactly like newEngineFor.
	anyDropTail, anyLayerLoss, numCap := false, false, 0
	ringSlots := 0
	for j := range cfg.Links {
		switch cfg.Links[j].Kind {
		case DropTail:
			anyDropTail = true
			buf := cfg.Links[j].Buffer
			if buf == 0 {
				buf = 16
			}
			ringSlots += buf + 2
		case Capacity:
			numCap++
		}
		if cfg.Links[j].LayerLoss != nil {
			anyLayerLoss = true
		}
	}
	perEngineLinks := szCap * int64(numCap+1)
	if numCap > 0 {
		perEngineLinks += 4 * int64(nL) // capRemap
	}
	if anyDropTail {
		perEngineLinks += szLink*int64(nL) + 8*int64(ringSlots)
	}
	if anyLayerLoss {
		perEngineLinks += 24 * int64(nL) // slice headers aliasing the specs
	}
	p.FixedBytes = perEngineLinks*int64(p.Groups) +
		8*int64(S) + // txCal (partitioned across groups)
		szEvent*int64(len(cfg.Churn)+1+64+int(p.Groups)*64) + // event arenas
		4*int64(maxEdges)*int64(p.Groups) + // walk stack per engine (worst case)
		partFixed // subtree partitions of single-session groups

	// Construction scratch: global-id discovery arrays plus the largest
	// session's child lists and pre-order worklists; sharded runs build
	// engines sequentially, so one copy is live at a time.
	p.ScratchBytes = int64(nn)*(4+4+4+4+24) + int64(maxEdges)*int64(unsafe.Sizeof(buildEdge{})) + 12*int64(maxTreeN)

	// Result fold: per-receiver outputs, the dense (session, link)
	// scatter rows, the per-node best-goodput scratch, and the
	// LinkStats backing.
	totalLS := 0
	for j := 0; j < nL; j++ {
		totalLS += len(net.OnLink(j))
	}
	p.ResultBytes = int64(totR)*(8+8+8) + int64(S)*int64(nL)*(8+8+8+8) + 8*int64(maxTreeN) + szLS*int64(totalLS)

	peakTransient := p.ScratchBytes
	if p.ResultBytes > peakTransient {
		peakTransient = p.ResultBytes
	}
	p.Total = p.SessionBytes + p.FixedBytes + peakTransient
	if totR > 0 {
		p.BytesPerReceiver = float64(p.SessionBytes+p.FixedBytes) / float64(totR)
	}
	return p, nil
}

// String renders the plan the way the planetary driver logs it.
func (p *MemoryPlan) String() string {
	s := fmt.Sprintf("plan: %d receivers, %d links, %d sessions, %d group(s): %d B steady (%.1f B/receiver) + max(%d B scratch, %d B result) = %d B peak",
		p.Receivers, p.Links, p.Sessions, p.Groups, p.SessionBytes+p.FixedBytes, p.BytesPerReceiver, p.ScratchBytes, p.ResultBytes, p.Total)
	if p.Subtrees > 0 {
		s += fmt.Sprintf(", %d subtree shard(s) over a %d-edge cut frontier", p.Subtrees, p.CutFrontier)
	}
	return s
}
