package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"mlfair/internal/protocol"
)

// Session-sharded execution (Config.Shards >= 1).
//
// Every run goes through the group engine below; Shards == 0 is its
// one-group case. Sessions whose multicast trees share no link cannot
// interact: they touch disjoint link state, observe disjoint losses,
// and the engine's event order only couples them through the global
// packet budget and the shared RNG stream. Grouping sessions by
// link-connectivity (union-find over the links their data-paths
// traverse) therefore splits one replication into independent
// sub-simulations — each group gets its own engine, its own calendar
// and event queue, and its own PCG stream derived from the replication
// seed — which run concurrently on up to Shards goroutines and are
// merged into one Result afterwards. Groups are the only concurrency:
// each group engine, a subtree-partitioned one included (subtree.go),
// runs on one goroutine.
//
// Dispatch. The min(Shards, groups) workers take groups from one
// shared cursor, costliest first (costOrder: the group's packet budget
// times its receivers, weighted by protocol), so a slow group does not
// start last while the other workers idle. A worker builds a group's
// engine just before it runs that group, and one lock keeps
// constructions to one at a time, as PlanMemory's single construction
// scratch copy assumes. Dispatch order cannot move the Result: it only
// decides when each engine runs, and the fold reads them in group
// order.
//
// Determinism argument, piece by piece:
//
//   - Budget. A one-group run stops at exactly Packets transmissions,
//     interleaving sessions by (earliest calendar entry, lowest session
//     index). That interleaving is a pure function of the sessions'
//     layer counts — calendars never depend on event outcomes — so a
//     cheap calendar-only replay (groupBudgets) computes, up front, how
//     many of the Packets transmissions belong to each group and the
//     time T of the final transmission. Each group engine then runs
//     against its own budget and matches the one-group cut exactly,
//     including a budget that runs out midway through a tick's due-layer
//     range.
//
//   - Horizon. A one-group run processes a scheduled event iff it
//     precedes some transmission: time < T, or time == T with packet
//     priority (signals yield to same-instant transmissions). After its
//     budget is spent, a group engine drains its queue by that exact
//     rule and then sets its clock to T, so time-integrated outputs
//     (MeanLevels, FluidRate, rates) integrate over the same duration
//     a one-group run would.
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
//     topology) produces the byte-identical Result at every Shards,
//     0 included, unless Config.CutLinks partitions a single-session
//     tree (subtree.go).
//
// What sharded mode deliberately does not reproduce is the one-group
// RNG interleaving ACROSS link-sharing groups: a multi-group run's
// Result differs from the Shards == 0 run the way two different seeds
// differ, while remaining a pure function of the Config.

// shardSalt decorrelates per-group seeds from the replication-seed
// sequence (ReplicationSeed(seed, i) is already used for replication
// fan-out; group fan-out must not collide with it).
const shardSalt = 0x7c15d1a55eed5a17

// shardSeed derives group g's RNG seed. Group 0 inherits the
// replication seed unchanged — a single-group sharded run is then
// stream-identical to the Shards == 0 run.
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
// is where a one-group run's clock stops. The replay duplicates
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

// runGroups runs cfg on its group engines, costliest group first, and
// folds them into one Result.
func runGroups(cfg Config) (*Result, error) { return runGroupsBy(cfg, costOrder) }

// runGroupsBy is runGroups with the dispatch order left to order, which
// returns a permutation of the group numbers. Shards == 0 is the
// one-group case: every session on one engine with the replication
// seed, no link-connectivity split and no subtree partition. Under
// Shards >= 1 the sessions split into their link-connectivity groups,
// the calendar replay gives each group its budget, and the groups run
// on min(Shards, groups) workers, each building a group's engine just
// before it runs it (dispatch). A lone group, either way, needs no
// replay: it owns the whole budget, and its clock stops at the run's
// final transmission.
func runGroupsBy(cfg Config, order func(cfg Config, groups [][]int, budgets []int) []int) (*Result, error) {
	if cfg.Shards > 0 {
		if groupOf, numGroups := sessionGroupsOf(cfg); numGroups > 1 {
			if cfg.Probe != nil && cfg.Probe.PacketWindow > 0 {
				// Packet-window boundaries count transmissions across ALL
				// sessions in one global order; group engines only see
				// their own budgets, so the windows cannot be
				// reconstructed after the split. Time windows shard fine
				// (the boundary grid is global).
				return nil, fmt.Errorf("netsim: packet-window probing is not supported across %d shard groups (packet boundaries interleave all sessions); use a time Window or Shards on a single-component topology", numGroups)
			}
			groups, churnFor := splitGroups(cfg, groupOf, numGroups)
			budgets, horizon := groupBudgets(cfg, groupOf, numGroups)
			engines := make([]*engine, numGroups)
			build := func(g int) (err error) {
				engines[g], err = newEngineFor(cfg, groups[g], churnFor[g], shardSeed(cfg.Seed, g))
				return err
			}
			failed, err := dispatch(order(cfg, groups, budgets), cfg.Shards, build, func(g int) {
				engines[g].run(budgets[g])
				engines[g].drainTo(horizon)
			})
			if err != nil {
				// Report the lowest failing group, as an ascending build
				// would: build the lower groups no worker reached.
				for g := range failed {
					if engines[g] == nil {
						if err := build(g); err != nil {
							return nil, err
						}
					}
				}
				return nil, err
			}
			return foldResult(cfg, engines, horizon), nil
		}
	}
	all := make([]int, cfg.Network.NumSessions())
	for i := range all {
		all[i] = i
	}
	e, err := newEngineFor(cfg, all, cfg.Churn, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e.run(cfg.Packets)
	return foldResult(cfg, []*engine{e}, e.now), nil
}

// joinWeight is a receiver's run cost per packet under each protocol,
// relative to Coordinated, for costOrder. Measured at the 1M planetary
// preset (seed 777, 16,384 packets: 2,048 and 131,072 receivers per
// group), each group engine timed alone, 11 runs on a 2-vCPU VM: the
// median run took 17.1-17.6 ms for the Coordinated groups, 21.8-22.2
// ms for the Deterministic and 124-132 ms for the Uncoordinated, whose
// geometric join draws make the receivers of one node fall due apart.
var joinWeight = [...]float64{
	protocol.Coordinated:   1,
	protocol.Deterministic: 1.3,
	protocol.Uncoordinated: 7.4,
}

// costOrder lists the groups costliest first, ties in ascending group
// order. A group's cost is its packet budget times its receivers, each
// weighted by its session's protocol: a pure function of the Config.
// Starting the long groups first keeps one from starting last beside
// idle workers. A wrong estimate costs speed, never output: each group
// draws from its own seed, and the fold runs in group order.
func costOrder(cfg Config, groups [][]int, budgets []int) []int {
	cost := make([]float64, len(groups))
	order := make([]int, len(groups))
	for g, ids := range groups {
		w := 0.0
		for _, i := range ids {
			w += joinWeight[cfg.Sessions[i].Protocol] * float64(cfg.Network.Session(i).NumReceivers())
		}
		cost[g] = float64(budgets[g]) * w
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// dispatch runs build(g) then run(g) for every group g of order, on
// min(workers, len(order)) goroutines (the caller's own when that is
// one), and returns once all of them have. Workers take groups from
// one shared cursor, in order. Taking a group and building it happen
// under one lock, so constructions never overlap and PlanMemory's one
// live construction scratch copy stays true; runs overlap freely.
// After a failed build no worker takes another group, and dispatch
// returns that group and its error (-1 and nil when every build
// succeeded).
func dispatch(order []int, workers int, build func(g int) error, run func(g int)) (failed int, err error) {
	var mu sync.Mutex
	next := 0
	failed = -1
	work := func() {
		for {
			mu.Lock()
			if err != nil || next == len(order) {
				mu.Unlock()
				return
			}
			g := order[next]
			next++
			if err = build(g); err != nil {
				failed = g
				mu.Unlock()
				return
			}
			mu.Unlock()
			run(g)
		}
	}
	if workers = min(workers, len(order)); workers <= 1 {
		work()
		return failed, err
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return failed, err
}

// splitGroups lists each group's sessions in ascending global order and
// filters the churn schedule per group, rewriting ChurnEvent.Session to
// the group-local index.
func splitGroups(cfg Config, groupOf []int, numGroups int) (groups [][]int, churnFor [][]ChurnEvent) {
	groups = make([][]int, numGroups)
	localIdx := make([]int, len(groupOf))
	for i, g := range groupOf {
		localIdx[i] = len(groups[g])
		groups[g] = append(groups[g], i)
	}
	churnFor = make([][]ChurnEvent, numGroups)
	for _, ev := range cfg.Churn {
		g := groupOf[ev.Session]
		ev.Session = localIdx[ev.Session]
		churnFor[g] = append(churnFor[g], ev)
	}
	return groups, churnFor
}

// drainTo ends a sharded group engine whose budget is spent: it runs
// exactly the scheduled events that precede some later transmission of
// another group — time < T, or time == T with packet priority — and
// parks the clock at the shared horizon T. Everything else dies in the
// queue, as it would in a one-group run. Every window boundary strictly
// below T is flushed, so group probe rings line up sample for sample
// regardless of when each group's own activity stopped; finish() then
// adds the common tail.
func (e *engine) drainTo(horizon float64) {
	e.popThrough(horizon)
	if e.probe != nil {
		e.probe.advanceTime(e, horizon)
	}
	e.now = horizon
}

// foldResult assembles the Result from the group engines' state, in
// global session order, for a run of length horizon.
func foldResult(cfg Config, engines []*engine, horizon float64) *Result {
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
		res.Probe = mergeProbes(cfg, engines)
	}
	// Per-receiver outputs are subslices of three flat backings (the
	// [][] shape is API; the allocation count need not scale with
	// sessions).
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
			for k := range s.received {
				n := s.delivered(k)
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
	flushStats(cfg.Stats, engines, res)
	return res
}
