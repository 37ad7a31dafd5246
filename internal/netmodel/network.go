package netmodel

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
)

// Network is the paper's N = (G, {S_1..S_m}, τ, Γ): a graph, sessions
// mapped onto it, and per-receiver data-paths. The zero value is not
// usable; construct with NewNetwork or Builder.Build.
//
// A Network is immutable after construction. Data-paths are kept one
// per run of receivers (see PathRun), and all per-link incidence sets
// (R_{i,j}, R_j) are precomputed as receiver-index ranges, so a network
// whose receivers sit in long runs costs a few bytes per receiver.
type Network struct {
	graph    *Graph
	sessions []*Session
	// runs[i] is session i's run table.
	runs []runTable

	// onLink[j] groups, per session with receivers crossing l_j, the
	// receiver-index ranges within that session (the paper's R_{i,j}).
	onLink [][]SessionReceivers
	// crossing[j] = |R_j|, the total receiver count on l_j.
	crossing []int
}

// runTable is one session's receivers grouped into runs: run r covers
// receivers [start[r], start[r+1]) and their shared data-path path[r]
// (link indices in sender-to-receiver order); of[k] is receiver k's run.
type runTable struct {
	start []int32
	path  [][]int
	of    []int32
}

// Range is the half-open receiver-index interval [Lo, Hi) of one
// session.
type Range struct{ Lo, Hi int }

// String renders the range as "[Lo,Hi)".
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// SessionReceivers is one session's receiver set on a particular link:
// R_{i,j} for a fixed link j, as ascending, disjoint and maximal
// receiver-index ranges (no range ends where the next begins). Receivers
// sharing a path are consecutive wherever a generator places them
// together, so a link's set takes a handful of ranges however many
// receivers cross it.
type SessionReceivers struct {
	Session int     // i
	Ranges  []Range // k values: receivers of S_i crossing the link
}

// Len returns |R_{i,j}|, the number of receivers in the ranges.
func (sr SessionReceivers) Len() int {
	c := 0
	for _, r := range sr.Ranges {
		c += r.Hi - r.Lo
	}
	return c
}

// All yields R_{i,j}'s receiver indices in ascending order.
func (sr SessionReceivers) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, r := range sr.Ranges {
			for k := r.Lo; k < r.Hi; k++ {
				if !yield(k) {
					return
				}
			}
		}
	}
}

// NewNetwork assembles a network from a graph, sessions, and explicit
// per-receiver data-paths. paths[i][k] must be a contiguous link walk from
// sessions[i].Sender to sessions[i].Receivers[k]. Use the routing package
// to compute paths automatically. The network keeps one of the given
// path slices per run (see PathRun), not the per-receiver [][]int.
func NewNetwork(g *Graph, sessions []*Session, paths [][][]int) (*Network, error) {
	if g == nil {
		return nil, errors.New("netmodel: nil graph")
	}
	if len(paths) != len(sessions) {
		return nil, fmt.Errorf("netmodel: %d path groups for %d sessions", len(paths), len(sessions))
	}
	n := &Network{graph: g, sessions: sessions, runs: make([]runTable, len(sessions))}
	for i, s := range sessions {
		if err := validateSession(i, s); err != nil {
			return nil, err
		}
		if len(paths[i]) != len(s.Receivers) {
			return nil, fmt.Errorf("netmodel: session %d has %d paths for %d receivers", i, len(paths[i]), len(s.Receivers))
		}
		if len(s.Receivers) > math.MaxInt32 {
			return nil, fmt.Errorf("netmodel: session %d has %d receivers, more than %d", i, len(s.Receivers), math.MaxInt32)
		}
		n.runs[i] = findRuns(paths[i], s.Receivers)
		froms := append([]int{s.Sender}, s.ExtraSenders...)
		// One check per run: a run's receivers share the host and the
		// path slice, so the check could only repeat its verdict.
		t := &n.runs[i]
		for r, p := range t.path {
			k := int(t.start[r])
			if err := validateWalkFromAny(g, froms, s.Receivers[k], p); err != nil {
				return nil, fmt.Errorf("netmodel: session %d receiver %d: %w", i, k, err)
			}
		}
	}
	n.index()
	return n, nil
}

// findRuns groups one session's receivers into maximal runs: a run
// extends while the next receiver has the same host and the same path
// slice (not merely equal contents). It counts the runs first, so the
// table takes three exact allocations.
func findRuns(ps [][]int, hosts []int) runTable {
	same := func(k int) bool { return hosts[k] == hosts[k-1] && sameSlice(ps[k], ps[k-1]) }
	nr := 0
	for k := range ps {
		if k == 0 || !same(k) {
			nr++
		}
	}
	t := runTable{start: make([]int32, 0, nr+1), path: make([][]int, 0, nr), of: make([]int32, len(ps))}
	for k := range ps {
		if k == 0 || !same(k) {
			t.start = append(t.start, int32(k))
			t.path = append(t.path, ps[k])
		}
		t.of[k] = int32(len(t.path) - 1)
	}
	t.start = append(t.start, int32(len(ps)))
	return t
}

// PathRun returns the length of the run of session i's receivers that
// starts at receiver k: k itself plus every directly following receiver
// hosted at the same node whose data-path was handed to NewNetwork as
// the same slice (not merely equal contents) as r_{i,k}'s. Such
// receivers are interchangeable for anything computed from host and
// path, so a pass over data-paths may handle a whole run at once,
// counting it with multiplicity; a loop advancing k by PathRun touches
// runs only. Generators that park many receivers behind one access
// point (topology.Planetary) alias one path slice per point, which is
// what makes runs long; with unaliased paths every run has length 1 and
// nothing changes. O(1): the network stores each receiver's run.
func (n *Network) PathRun(i, k int) int {
	t := &n.runs[i]
	return int(t.start[t.of[k]+1]) - k
}

// sameSlice reports whether a and b are the same slice: equal length
// over the same backing elements.
func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func validateSession(i int, s *Session) error {
	if s == nil {
		return fmt.Errorf("netmodel: session %d is nil", i)
	}
	if len(s.Receivers) == 0 {
		return fmt.Errorf("netmodel: session %d has no receivers", i)
	}
	if !(s.MaxRate > 0) {
		return fmt.Errorf("netmodel: session %d has non-positive max rate %v", i, s.MaxRate)
	}
	return nil
}

// validateWalkFromAny accepts a data-path starting at any of the
// candidate sender nodes (multi-sender sessions route each receiver from
// one of the session's sources).
func validateWalkFromAny(g *Graph, froms []int, to int, p []int) error {
	var err error
	for _, from := range froms {
		if err = validateWalk(g, from, to, p); err == nil {
			return nil
		}
	}
	return err
}

// validateWalk checks that p is a contiguous link walk from "from" to "to"
// and visits no link twice. Data-paths need not be globally shortest —
// routing is the network operator's business — but they must be loop-free
// walks so link usage is well defined.
func validateWalk(g *Graph, from, to int, p []int) error {
	if from < 0 || to < 0 {
		// Abstract networks (Builder) use -1 nodes and skip walk checks.
		return nil
	}
	cur := from
	// Loop-freedom check: short walks (the overwhelming case — tree
	// depths, not graph diameters) are checked pairwise without
	// allocating, so million-receiver networks validate without a map
	// per receiver; long walks fall back to a set.
	var seen map[int]bool
	if len(p) > 32 {
		seen = make(map[int]bool, len(p))
	}
	for idx, j := range p {
		if j < 0 || j >= g.NumLinks() {
			return fmt.Errorf("link %d out of range", j)
		}
		if seen != nil {
			if seen[j] {
				return fmt.Errorf("link %d repeated in data-path", j)
			}
			seen[j] = true
		} else {
			for _, q := range p[:idx] {
				if q == j {
					return fmt.Errorf("link %d repeated in data-path", j)
				}
			}
		}
		l := g.Link(j)
		switch cur {
		case l.From:
			cur = l.To
		case l.To:
			cur = l.From
		default:
			return fmt.Errorf("link %d (%d-%d) does not continue walk at node %d", j, l.From, l.To, cur)
		}
	}
	if cur != to {
		return fmt.Errorf("data-path ends at node %d, receiver at %d", cur, to)
	}
	return nil
}

// index precomputes R_{i,j} and |R_j| from the run table.
//
// The construction is linear in the distinct path footprint (the sum of
// path lengths over runs) plus the output size, and never visits a
// receiver: runs are taken in ascending receiver order, so each
// (session, link) segment's ranges come out ascending, and a run whose
// range ends where the run begins extends it. A per-session sweep
// discovers each segment once via an epoch-stamped scratch row and
// emits its ranges; segments are counting-sorted by link (the sweep
// emits them session-ascending, and counting sort is stable, so each
// link's segment list is session-ascending) and the ranges scattered
// into one flat backing, carved by segment.
func (n *Network) index() {
	nl := n.graph.NumLinks()
	n.onLink = make([][]SessionReceivers, nl)
	n.crossing = make([]int, nl)
	// stamp/linkSeg are epoch-cleared per session: linkSeg[j] names the
	// session's segment on link j. segLast[s] is segment s's last range
	// in rs, and rsSeg[x] the segment of range x. The hop count over
	// runs bounds both the segments and the ranges.
	stamp := make([]int32, nl)
	linkSeg := make([]int32, nl)
	hops := 0
	for i := range n.runs {
		for _, p := range n.runs[i].path {
			hops += len(p)
		}
	}
	segLink, segLast, rsSeg := make([]int32, 0, hops), make([]int32, 0, hops), make([]int32, 0, hops)
	rs := make([]Range, 0, hops)
	sessSegEnd := make([]int32, len(n.sessions)+1)
	for i := range n.sessions {
		epoch := int32(i + 1)
		t := &n.runs[i]
		for r, p := range t.path {
			lo, hi := int(t.start[r]), int(t.start[r+1])
			for _, j := range p {
				if stamp[j] != epoch {
					stamp[j] = epoch
					linkSeg[j] = int32(len(segLink))
					segLink = append(segLink, int32(j))
					segLast = append(segLast, -1)
				}
				s := linkSeg[j]
				if x := segLast[s]; x >= 0 && rs[x].Hi >= lo {
					// The previous run's range ends where this run
					// begins, or this run already added the link (a link
					// repeated within one abstract path): one range.
					rs[x].Hi = hi
					continue
				}
				segLast[s] = int32(len(rs))
				rs = append(rs, Range{Lo: lo, Hi: hi})
				rsSeg = append(rsSeg, s)
			}
		}
		sessSegEnd[i+1] = int32(len(segLink))
	}
	// Counting sort of segments by link: segStart[j] is link j's block
	// in the sorted order; slot[s] the segment's position in it.
	segStart := make([]int32, nl+1)
	for _, j := range segLink {
		segStart[j+1]++
	}
	for j := 0; j < nl; j++ {
		segStart[j+1] += segStart[j]
	}
	slot := make([]int32, len(segLink))
	fill := append([]int32(nil), segStart[:nl]...)
	for s, j := range segLink {
		slot[s] = fill[j]
		fill[j]++
	}
	// One flat range backing carved by segment: rOff[s] is segment s's
	// block, and segLast, done with, becomes the blocks' fill cursor.
	rOff := make([]int32, len(segLink)+1)
	for _, s := range rsSeg {
		rOff[s+1]++
	}
	for s := range segLink {
		rOff[s+1] += rOff[s]
		segLast[s] = rOff[s]
	}
	ranges := make([]Range, len(rs))
	for x, s := range rsSeg {
		ranges[segLast[s]] = rs[x]
		segLast[s]++
	}
	flat := make([]SessionReceivers, len(segLink))
	for i := range n.sessions {
		for s := sessSegEnd[i]; s < sessSegEnd[i+1]; s++ {
			flat[slot[s]] = SessionReceivers{Session: i, Ranges: ranges[rOff[s]:rOff[s+1]:rOff[s+1]]}
		}
	}
	for j := 0; j < nl; j++ {
		if segStart[j] == segStart[j+1] {
			continue
		}
		n.onLink[j] = flat[segStart[j]:segStart[j+1]:segStart[j+1]]
		c := 0
		for _, sr := range n.onLink[j] {
			c += sr.Len()
		}
		n.crossing[j] = c
	}
}

// Graph returns the underlying graph.
func (n *Network) Graph() *Graph { return n.graph }

// NumSessions returns m, the session count.
func (n *Network) NumSessions() int { return len(n.sessions) }

// Session returns session i.
func (n *Network) Session(i int) *Session { return n.sessions[i] }

// Sessions returns the session slice; callers must not modify it.
func (n *Network) Sessions() []*Session { return n.sessions }

// NumLinks returns the link count of the underlying graph.
func (n *Network) NumLinks() int { return n.graph.NumLinks() }

// Capacity returns c_j.
func (n *Network) Capacity(j int) float64 { return n.graph.Capacity(j) }

// Path returns r_{i,k}'s data-path as link indices, in sender-to-receiver
// order: its run's one slice, found in O(1). Callers must not modify the
// returned slice.
func (n *Network) Path(i, k int) []int {
	t := &n.runs[i]
	return t.path[t.of[k]]
}

// OnLink returns R_{i,j} for all sessions i with receivers crossing link
// j. Callers must not modify the returned structures.
func (n *Network) OnLink(j int) []SessionReceivers { return n.onLink[j] }

// ReceiversCrossing returns |R_j|.
func (n *Network) ReceiversCrossing(j int) int { return n.crossing[j] }

// Crosses reports whether r_{i,k}'s data-path traverses link j.
func (n *Network) Crosses(i, k, j int) bool {
	for _, pj := range n.Path(i, k) {
		if pj == j {
			return true
		}
	}
	return false
}

// NumReceivers returns the total receiver count over all sessions.
func (n *Network) NumReceivers() int {
	t := 0
	for _, s := range n.sessions {
		t += len(s.Receivers)
	}
	return t
}

// ReceiverIDs returns every receiver in session order.
func (n *Network) ReceiverIDs() []ReceiverID {
	ids := make([]ReceiverID, 0, n.NumReceivers())
	for i, s := range n.sessions {
		for k := range s.Receivers {
			ids = append(ids, ReceiverID{Session: i, Receiver: k})
		}
	}
	return ids
}

// SamePath reports whether two receivers' data-paths traverse exactly the
// same set of links (the hypothesis of same-path-receiver-fairness). Order
// is irrelevant; paths are sets for this purpose.
func (n *Network) SamePath(a, b ReceiverID) bool {
	pa := n.Path(a.Session, a.Receiver)
	pb := n.Path(b.Session, b.Receiver)
	if len(pa) != len(pb) {
		return false
	}
	set := make(map[int]bool, len(pa))
	for _, j := range pa {
		set[j] = true
	}
	for _, j := range pb {
		if !set[j] {
			return false
		}
	}
	return true
}

// WithSessionTypes returns a copy of the network in which session i has
// type types[i]. Everything else (graph, run table, incidence, caps,
// link-rate functions) is shared. It is the "replacement" operation of
// Lemma 3: same members, same topology, different Γ.
func (n *Network) WithSessionTypes(types []SessionType) (*Network, error) {
	if len(types) != len(n.sessions) {
		return nil, fmt.Errorf("netmodel: %d types for %d sessions", len(types), len(n.sessions))
	}
	sessions := make([]*Session, len(n.sessions))
	for i, s := range n.sessions {
		c := *s
		c.Type = types[i]
		sessions[i] = &c
	}
	return n.withSessions(sessions), nil
}

// WithLinkRates returns a copy of the network in which session i uses
// link-rate function fns[i] (nil entries keep the original). It is the
// "replacement" operation of Lemma 4.
func (n *Network) WithLinkRates(fns []LinkRateFunc) (*Network, error) {
	if len(fns) != len(n.sessions) {
		return nil, fmt.Errorf("netmodel: %d link-rate functions for %d sessions", len(fns), len(n.sessions))
	}
	sessions := make([]*Session, len(n.sessions))
	for i, s := range n.sessions {
		c := *s
		if fns[i] != nil {
			c.LinkRate = fns[i]
		}
		sessions[i] = &c
	}
	return n.withSessions(sessions), nil
}

// withSessions returns a copy of the network over sessions that differ
// from n's only in type or link-rate function, sharing everything else.
func (n *Network) withSessions(sessions []*Session) *Network {
	c := *n
	c.sessions = sessions
	return &c
}

// RemoveReceiver returns a copy of the network with receiver r_{i,k}
// deleted from its session (the Section 2.5 experiment). The session must
// retain at least one receiver.
func (n *Network) RemoveReceiver(id ReceiverID) (*Network, error) {
	i, k := id.Session, id.Receiver
	if i < 0 || i >= len(n.sessions) {
		return nil, fmt.Errorf("netmodel: session %d out of range", i)
	}
	s := n.sessions[i]
	if k < 0 || k >= len(s.Receivers) {
		return nil, fmt.Errorf("netmodel: receiver %d out of range in session %d", k, i)
	}
	if len(s.Receivers) == 1 {
		return nil, fmt.Errorf("netmodel: cannot remove the only receiver of session %d", i)
	}
	sessions := slices.Clone(n.sessions)
	paths := make([][][]int, len(n.sessions))
	for si := range n.sessions {
		paths[si] = n.sessionPaths(si)
	}
	c := *s
	c.Receivers = slices.Delete(slices.Clone(s.Receivers), k, k+1)
	sessions[i] = &c
	paths[i] = slices.Delete(paths[i], k, k+1)
	return NewNetwork(n.graph, sessions, paths)
}

// sessionPaths expands session i's run table into per-receiver
// data-paths, each run's receivers sharing its one slice, so NewNetwork
// finds the same runs again.
func (n *Network) sessionPaths(i int) [][]int {
	t := &n.runs[i]
	ps := make([][]int, len(t.of))
	for k, r := range t.of {
		ps[k] = t.path[r]
	}
	return ps
}
