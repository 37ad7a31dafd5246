package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Session-sharded execution (Config.Shards >= 1).
//
// Sessions whose multicast trees share no link cannot interact: they
// touch disjoint link state, observe disjoint losses, and the engine's
// event order only couples them through the global packet budget and
// the shared RNG stream. Grouping sessions by link-connectivity
// (union-find over the links their data-paths traverse) therefore
// splits one replication into independent sub-simulations — each group
// gets its own engine, its own calendar and event queue, and its own
// PCG stream derived from the replication seed — which run concurrently
// on up to Shards goroutines and are merged into one Result afterwards.
//
// Determinism argument, piece by piece:
//
//   - Budget. The sequential engine stops at exactly Packets
//     transmissions, interleaving sessions by (earliest calendar entry,
//     lowest session index). That interleaving is a pure function of
//     the sessions' layer counts — calendars never depend on event
//     outcomes — so a cheap calendar-only replay (groupBudgets)
//     computes, up front, how many of the Packets transmissions belong
//     to each group and the time T of the final transmission. Each
//     group engine then runs against its own budget and matches the
//     sequential cut exactly, including a budget that runs out midway
//     through a tick's due-layer range.
//
//   - Horizon. The sequential engine processes a scheduled event iff it
//     precedes some transmission: time < T, or time == T with
//     packet priority (signals yield to same-instant transmissions).
//     After its budget is spent, a group engine drains its queue by
//     that exact rule and then sets its clock to T, so time-integrated
//     outputs (MeanLevels, FluidRate, rates) integrate over the same
//     duration the sequential engine would.
//
//   - Signals. The Coordinated signal clock ticks at fixed multiples of
//     SignalPeriod and consumes no randomness, so per-group clocks fire
//     at identical instants with identical signal indices; a group
//     without Coordinated sessions skips the clock, which is an exact
//     no-op for it (signal delivery only touches a group's own
//     sessions).
//
//   - RNG. Group g draws from shardSeed(Seed, g), a pure function of
//     the replication seed and the (topology-determined) group number —
//     never of Shards. Shards therefore only caps goroutine
//     concurrency: every Shards >= 1 produces the identical Result.
//     Group 0 keeps the replication seed itself, so a network whose
//     sessions all share one component (every committed benchmark
//     topology) produces the byte-identical Result in sharded and
//     sequential mode alike.
//
// What sharded mode deliberately does not reproduce is the sequential
// engine's RNG interleaving ACROSS link-sharing groups: a multi-group
// run's Result differs from the Shards == 0 run the way two different
// seeds differ, while remaining a pure function of the Config.

// shardSalt decorrelates per-group seeds from the replication-seed
// sequence (ReplicationSeed(seed, i) is already used for replication
// fan-out; group fan-out must not collide with it).
const shardSalt = 0x7c15d1a55eed5a17

// shardSeed derives group g's RNG seed. Group 0 inherits the
// replication seed unchanged — the single-group case is then
// stream-identical to the sequential engine.
func shardSeed(base uint64, g int) uint64 {
	if g == 0 {
		return base
	}
	return ReplicationSeed(base^shardSalt, g)
}

// sessionGroupsOf partitions cfg's sessions into link-connectivity
// components: two sessions share a group iff their data-paths share a
// link, transitively. Union-find over links plus one element per
// session; group numbers are assigned in order of each component's
// lowest session index, so the numbering is a pure function of the
// topology — never of Shards.
func sessionGroupsOf(cfg Config) (groupOf []int, numGroups int) {
	net := cfg.Network
	nL, S := net.NumLinks(), net.NumSessions()
	// Element i < nL is link i; element nL+i is session i.
	parent := make([]int32, nL+S)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < S; i++ {
		si := int32(nL + i)
		for k, nR := 0, net.Session(i).NumReceivers(); k < nR; k += net.PathRun(i, k) {
			for _, j := range net.Path(i, k) {
				union(si, int32(j))
			}
		}
	}
	groupOf = make([]int, S)
	gid := make([]int, nL+S)
	for i := range gid {
		gid[i] = -1
	}
	for i := 0; i < S; i++ {
		r := find(int32(nL + i))
		if gid[r] < 0 {
			gid[r] = numGroups
			numGroups++
		}
		groupOf[i] = gid[r]
	}
	return groupOf, numGroups
}

// groupBudgets replays the transmit calendar alone — no events, no
// RNG — to split the global packet budget across groups and find the
// horizon T: the instant of the run's final sender transmission, which
// is where the sequential engine's clock stops. The replay duplicates
// the engine's tick arithmetic exactly (same float products, same
// lowest-index tie-break), so the cut is bit-faithful.
func groupBudgets(cfg Config, groupOf []int, numGroups int) (budgets []int, horizon float64) {
	S := cfg.Network.NumSessions()
	budgets = make([]int, numGroups)
	tick := make([]uint64, S)
	tickDt := make([]float64, S)
	mOf := make([]int32, S)
	txCal := make([]float64, S)
	for i := 0; i < S; i++ {
		m := cfg.Sessions[i].Layers
		mOf[i] = int32(m)
		// period[M-1] = 1/LayerRate(M-1); the scheme's finest layer rate
		// is 2^(M-2) for M >= 2 and 1 for M == 1, exactly as
		// layering.Exponential constructs it.
		rate := 1.0
		if m >= 2 {
			rate = float64(uint64(1) << uint(m-2))
		}
		tickDt[i] = 1 / rate
		txCal[i] = tickDt[i]
	}
	sent := 0
	for sent < cfg.Packets {
		ts := math.Inf(1)
		si := -1
		for i, tx := range txCal {
			if tx < ts {
				ts = tx
				si = i
			}
		}
		n := tick[si] + 1
		lo := mOf[si] - 1 - int32(bits.TrailingZeros64(n))
		if lo <= 1 {
			lo = 0
		}
		fire := int(mOf[si] - lo)
		if sent+fire > cfg.Packets {
			fire = cfg.Packets - sent
		}
		budgets[groupOf[si]] += fire
		sent += fire
		horizon = ts
		tick[si] = n
		txCal[si] = float64(n+1) * tickDt[si]
	}
	return budgets, horizon
}

// runShard executes one group engine against its transmission budget,
// then drains the scheduled events the sequential engine would have
// processed before the global horizon and parks the clock there. The
// main loop is the sequential Run loop verbatim (modulo the budget),
// including the probe hooks: every group flushes the same time-window
// boundary grid (boundaries are multiples of Window below the shared
// horizon), so per-group rings merge window-by-window at result time.
// Transmissions route through forwardSubtree on engines whose single
// session was partitioned (e.part non-nil).
func (e *engine) runShard(budget int, horizon float64) {
	for e.sent < budget {
		var ts float64
		var si int
		if e.calUniform {
			si = e.calCursor
			ts = e.txCal[si]
		} else {
			ts = math.Inf(1)
			si = -1
			for i, tx := range e.txCal {
				if tx < ts {
					ts = tx
					si = i
				}
			}
		}
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
		if e.probe != nil {
			e.probe.advanceTime(e, ts)
		}
		e.now = ts
		s := &e.sess[si]
		n := s.tick + 1
		lo := s.m - 1 - int32(bits.TrailingZeros64(n))
		if lo <= 1 {
			lo = 0
		}
		for l := lo; l < s.m && e.sent < budget; l++ {
			e.sent++
			if s.linger != nil {
				e.forwardLinger(s, l, 0, ts)
			} else if s.subMax[0] > l {
				if e.part != nil {
					e.forwardSubtree(s, l)
				} else {
					e.forward(s, l, 0, ts)
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
	// Post-budget drain: exactly the events that precede some later
	// transmission of another group — time < T, or time == T with
	// packet priority. Everything else dies in the queue, as it would
	// have in the sequential engine.
	for len(e.q.a) > 0 {
		top := &e.q.a[0]
		if top.time > horizon || (top.time == horizon && top.key >= prioSignal) {
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
	// Flush every window boundary strictly below the shared horizon, so
	// group rings line up sample-for-sample regardless of when each
	// group's own activity stopped; finish() then adds the common tail.
	if e.probe != nil {
		e.probe.advanceTime(e, horizon)
	}
	e.now = horizon
}

// runSharded is Run's Shards >= 1 path: partition, replay the calendar
// for budgets, build one engine per group, run them on at most
// cfg.Shards goroutines, merge.
func runSharded(cfg Config) (*Result, error) {
	net := cfg.Network
	S := net.NumSessions()
	if S == 0 {
		// Match the sequential engine's diagnosis for a run that can
		// never transmit.
		return nil, fmt.Errorf("netsim: event queue drained before packet budget")
	}
	groupOf, numGroups := sessionGroupsOf(cfg)
	if cfg.Probe != nil && cfg.Probe.PacketWindow > 0 && numGroups > 1 {
		// Packet-window boundaries count transmissions across ALL
		// sessions in one global order; group engines only see their own
		// budgets, so the windows cannot be reconstructed after the
		// split. Time windows shard fine (the boundary grid is global).
		return nil, fmt.Errorf("netsim: packet-window probing is not supported across %d shard groups (packet boundaries interleave all sessions); use a time Window or Shards on a single-component topology", numGroups)
	}
	budgets, horizon := groupBudgets(cfg, groupOf, numGroups)
	groups := make([][]int, numGroups)
	for i := 0; i < S; i++ {
		groups[groupOf[i]] = append(groups[groupOf[i]], i)
	}
	localIdx := make([]int, S)
	for _, ids := range groups {
		for li, gi := range ids {
			localIdx[gi] = li
		}
	}
	churnFor := make([][]ChurnEvent, numGroups)
	for _, ev := range cfg.Churn {
		g := groupOf[ev.Session]
		lev := ev
		lev.Session = localIdx[ev.Session]
		churnFor[g] = append(churnFor[g], lev)
	}
	engines := make([]*engine, numGroups)
	for g := range engines {
		e, err := newEngineFor(cfg, groups[g], churnFor[g], shardSeed(cfg.Seed, g))
		if err != nil {
			return nil, err
		}
		engines[g] = e
	}
	workers := cfg.Shards
	if workers > numGroups {
		workers = numGroups
	}
	// Partitioned engines (single giant session) spend the rest of the
	// Shards budget on intra-session fan-out workers. Purely a
	// parallelism split: worker counts never reach any output.
	wPer := cfg.Shards / numGroups
	if wPer < 1 {
		wPer = 1
	}
	for _, e := range engines {
		if e.part != nil {
			e.part.setWorkers(wPer)
		}
	}
	if workers <= 1 {
		for g, e := range engines {
			e.runShard(budgets[g], horizon)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for g := range engines {
			wg.Add(1)
			sem <- struct{}{}
			go func(g int) {
				defer wg.Done()
				engines[g].runShard(budgets[g], horizon)
				<-sem
			}(g)
		}
		wg.Wait()
	}
	for _, e := range engines {
		if e.part != nil {
			e.part.stop()
		}
	}
	if numGroups == 1 {
		// The single group owns every session under the replication
		// seed: result() already produces the sequential engine's exact
		// output (gsess is the identity).
		return engines[0].result(), nil
	}
	return mergedResult(cfg, engines, horizon), nil
}

// mergedResult assembles the global Result from the group engines'
// state, in global session order, with every derived quantity computed
// the way the sequential result() computes it.
func mergedResult(cfg Config, engines []*engine, horizon float64) *Result {
	net := cfg.Network
	S := net.NumSessions()
	res := &Result{
		ReceiverRates:   make([][]float64, S),
		ReceiverPackets: make([][]int, S),
		FinalLevels:     make([][]int, S),
		MeanLevels:      make([]float64, S),
		Duration:        horizon,
	}
	totR := 0
	for i := 0; i < S; i++ {
		totR += net.Session(i).NumReceivers()
	}
	if cfg.Probe != nil {
		for _, e := range engines {
			e.probe.finish(e)
		}
		res.Probe = mergedProbeSeries(cfg, engines)
	}
	rateBuf := make([]float64, totR)
	pktBuf := make([]int, totR)
	lvlBuf := make([]int, totR)
	off := 0
	for i := 0; i < S; i++ {
		nR := net.Session(i).NumReceivers()
		res.ReceiverRates[i] = rateBuf[off : off+nR : off+nR]
		res.ReceiverPackets[i] = pktBuf[off : off+nR : off+nR]
		res.FinalLevels[i] = lvlBuf[off : off+nR : off+nR]
		off += nR
	}
	for _, e := range engines {
		res.PacketsSent += e.sent
		res.Events += int64(e.sent) + e.pops
		for li := range e.sess {
			s := &e.sess[li]
			gi := e.gsess[li]
			for _, n := range s.crossed {
				res.Events += n
			}
			if horizon > 0 && len(s.received) > 0 {
				levelInt := e.sessionLevelIntegral(s, horizon)
				res.MeanLevels[gi] = levelInt / horizon / float64(len(s.received))
			}
			for k, n := range s.received {
				res.ReceiverPackets[gi][k] = n
				res.FinalLevels[gi][k] = int(s.levels[k])
				res.Events += int64(n)
				if horizon > 0 {
					res.ReceiverRates[gi][k] = float64(n) / horizon
				}
			}
		}
	}
	res.Links = foldLinkStats(net, engines, horizon, res.ReceiverRates)
	mergedFlushStats(cfg.Stats, engines, res, horizon)
	return res
}

// mergedFlushStats publishes one sharded run into cfg.Stats: counter
// sums over the group engines, one Runs increment for the one logical
// run, and the shared horizon added to virtual time once.
func mergedFlushStats(st *EngineStats, engines []*engine, res *Result, horizon float64) {
	if st == nil {
		return
	}
	st.Runs.Inc()
	var sent, ticks, fwd, churn, sig int64
	var crossed, drops, delivered int64
	heapHW := 0
	for _, e := range engines {
		sent += int64(e.sent)
		ticks += e.ticksFired
		fwd += e.popForward
		churn += e.popChurn
		sig += e.popSignal
		for i := range e.sess {
			s := &e.sess[i]
			for eid := range s.hot {
				crossed += s.crossed[eid]
				drops += s.cold[eid].drops
			}
			for _, n := range s.received {
				delivered += int64(n)
			}
		}
		if e.heapHW > heapHW {
			heapHW = e.heapHW
		}
	}
	st.Transmissions.Add(sent)
	st.CalendarTicks.Add(ticks)
	st.ForwardEvents.Add(fwd)
	st.ChurnEvents.Add(churn)
	st.SignalEvents.Add(sig)
	st.Crossings.Add(crossed)
	st.Drops.Add(drops)
	st.Deliveries.Add(delivered)
	st.Events.Add(res.Events)
	st.HeapHighWater.SetMax(int64(heapHW))
	st.VirtualTime.Add(horizon)
}
