package netmodel

import (
	"errors"
	"fmt"
)

// Network is the paper's N = (G, {S_1..S_m}, τ, Γ): a graph, sessions
// mapped onto it, and per-receiver data-paths. The zero value is not
// usable; construct with NewNetwork or Builder.Build.
//
// A Network is immutable after construction; all per-link incidence sets
// (R_{i,j}, R_j) are precomputed.
type Network struct {
	graph    *Graph
	sessions []*Session
	// paths[i][k] lists the link indices on r_{i,k}'s data-path,
	// in sender-to-receiver order.
	paths [][][]int

	// onLink[j] groups, per session with receivers crossing l_j, the
	// receiver indices within that session (the paper's R_{i,j}).
	onLink [][]SessionReceivers
	// crossing[j] = |R_j|, the total receiver count on l_j.
	crossing []int
}

// SessionReceivers is one session's receiver set on a particular link:
// R_{i,j} for a fixed link j.
type SessionReceivers struct {
	Session   int   // i
	Receivers []int // k values: receivers of S_i crossing the link
}

// NewNetwork assembles a network from a graph, sessions, and explicit
// per-receiver data-paths. paths[i][k] must be a contiguous link walk from
// sessions[i].Sender to sessions[i].Receivers[k]. Use the routing package
// to compute paths automatically.
func NewNetwork(g *Graph, sessions []*Session, paths [][][]int) (*Network, error) {
	if g == nil {
		return nil, errors.New("netmodel: nil graph")
	}
	if len(paths) != len(sessions) {
		return nil, fmt.Errorf("netmodel: %d path groups for %d sessions", len(paths), len(sessions))
	}
	n := &Network{graph: g, sessions: sessions, paths: paths}
	for i, s := range sessions {
		if err := validateSession(i, s); err != nil {
			return nil, err
		}
		if len(paths[i]) != len(s.Receivers) {
			return nil, fmt.Errorf("netmodel: session %d has %d paths for %d receivers", i, len(paths[i]), len(s.Receivers))
		}
		froms := append([]int{s.Sender}, s.ExtraSenders...)
		// One check per run: a run's receivers share the host and the
		// path slice, so the check could only repeat its verdict.
		for k := 0; k < len(s.Receivers); k += pathRun(paths[i], s.Receivers, k) {
			if err := validateWalkFromAny(g, froms, s.Receivers[k], paths[i][k]); err != nil {
				return nil, fmt.Errorf("netmodel: session %d receiver %d: %w", i, k, err)
			}
		}
	}
	n.index()
	return n, nil
}

// PathRun returns the length of the run of session i's receivers that
// starts at receiver k: k itself plus every directly following receiver
// hosted at the same node whose data-path is the same slice (not merely
// equal contents) as r_{i,k}'s. Such receivers are interchangeable for
// anything computed from host and path, so a pass over data-paths may
// handle a whole run at once, counting it with multiplicity. Generators
// that park many receivers behind one access point (topology.Planetary)
// alias one path slice per point, which is what makes runs long; with
// unaliased paths every run has length 1 and nothing changes.
func (n *Network) PathRun(i, k int) int {
	return pathRun(n.paths[i], n.sessions[i].Receivers, k)
}

// pathRun is PathRun over one session's paths and receiver hosts.
func pathRun(ps [][]int, hosts []int, k int) int {
	r := 1
	for k+r < len(ps) && hosts[k+r] == hosts[k] && sameSlice(ps[k+r], ps[k]) {
		r++
	}
	return r
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

// index precomputes R_{i,j} and |R_j| from the data-paths.
//
// The construction is linear in the distinct path footprint (sum of
// path lengths over runs of receivers sharing a path, see PathRun) plus
// the output size, rather than links x sessions x receivers: a
// per-session sweep discovers each (session, link) segment once via an
// epoch-stamped scratch row, counting a run's receivers with
// multiplicity; segments are counting-sorted by link (the sweep emits
// them session-ascending, and counting sort is stable, so each link's
// segment list stays session-ascending exactly as before), and a second
// sweep scatters receiver indices k-ascending into one flat backing, a
// run at a time. Output is byte-for-byte the historical shape:
// everything lives in two backing arrays instead of per-link append
// chains.
func (n *Network) index() {
	nl := n.graph.NumLinks()
	n.onLink = make([][]SessionReceivers, nl)
	n.crossing = make([]int, nl)
	// Sweep 1: enumerate segments (distinct (session, link) pairs with
	// at least one crossing receiver) in session-major order, counting
	// each segment's receivers. stamp/linkSeg are epoch-cleared per
	// session: linkSeg[j] names the session's segment on link j.
	stamp := make([]int32, nl)
	linkSeg := make([]int32, nl)
	var segLink, segCnt []int32
	sessSegEnd := make([]int32, len(n.sessions)+1)
	totKs := 0
	for i := range n.sessions {
		epoch := int32(i + 1)
		ps, hosts := n.paths[i], n.sessions[i].Receivers
		for k, run := 0, 0; k < len(ps); k += run {
			run = pathRun(ps, hosts, k)
			totKs += run * len(ps[k])
			for _, j := range ps[k] {
				if stamp[j] != epoch {
					stamp[j] = epoch
					linkSeg[j] = int32(len(segLink))
					segLink = append(segLink, int32(j))
					segCnt = append(segCnt, 0)
				}
				segCnt[linkSeg[j]] += int32(run)
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
	// Flat backings: one SessionReceivers record per segment (in sorted
	// order, so each link's block is a subslice) and one shared receiver
	// array carved by segment. ksEnd[s] is segment s's fill cursor; it
	// reuses segCnt, whose counts are folded into ksOff.
	flat := make([]SessionReceivers, len(segLink))
	ks := make([]int, totKs)
	ksOff := make([]int32, len(segLink)+1)
	ksEnd := segCnt
	for s, c := range segCnt {
		ksOff[s+1] = ksOff[s] + c
		ksEnd[s] = ksOff[s]
	}
	for i := range n.sessions {
		// Re-stamp this session's links from its own segment block (the
		// sweep-1 stamps are long gone), then scatter its receivers:
		// the outer loop is k-ascending, so each segment's Receivers
		// list is ascending — the historical order.
		for s := sessSegEnd[i]; s < sessSegEnd[i+1]; s++ {
			linkSeg[segLink[s]] = s
		}
		ps, hosts := n.paths[i], n.sessions[i].Receivers
		for k, run := 0, 0; k < len(ps); k += run {
			run = pathRun(ps, hosts, k)
			for _, j := range ps[k] {
				s := linkSeg[j]
				e := ksEnd[s]
				if e > ksOff[s] && ks[e-1] == k+run-1 {
					// A link repeated within one path (possible only on
					// abstract networks, which skip walk validation)
					// still counts the run's receivers once.
					continue
				}
				for x := range run {
					ks[int(e)+x] = k + x
				}
				ksEnd[s] = e + int32(run)
			}
		}
		for s := sessSegEnd[i]; s < sessSegEnd[i+1]; s++ {
			flat[slot[s]] = SessionReceivers{Session: i, Receivers: ks[ksOff[s]:ksEnd[s]:ksOff[s+1]]}
		}
	}
	for j := 0; j < nl; j++ {
		if segStart[j] == segStart[j+1] {
			continue
		}
		n.onLink[j] = flat[segStart[j]:segStart[j+1]:segStart[j+1]]
		c := 0
		for _, sr := range n.onLink[j] {
			c += len(sr.Receivers)
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

// Path returns r_{i,k}'s data-path as link indices. Callers must not
// modify the returned slice.
func (n *Network) Path(i, k int) []int { return n.paths[i][k] }

// OnLink returns R_{i,j} for all sessions i with receivers crossing link
// j. Callers must not modify the returned structures.
func (n *Network) OnLink(j int) []SessionReceivers { return n.onLink[j] }

// ReceiversCrossing returns |R_j|.
func (n *Network) ReceiversCrossing(j int) int { return n.crossing[j] }

// Crosses reports whether r_{i,k}'s data-path traverses link j.
func (n *Network) Crosses(i, k, j int) bool {
	for _, pj := range n.paths[i][k] {
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
	pa := n.paths[a.Session][a.Receiver]
	pb := n.paths[b.Session][b.Receiver]
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
// type types[i]. Everything else (graph, paths, caps, link-rate functions)
// is shared. It is the "replacement" operation of Lemma 3: same members,
// same topology, different Γ.
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
	return NewNetwork(n.graph, sessions, n.paths)
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
	return NewNetwork(n.graph, sessions, n.paths)
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
	sessions := make([]*Session, len(n.sessions))
	paths := make([][][]int, len(n.sessions))
	for si, ss := range n.sessions {
		if si != i {
			sessions[si] = ss
			paths[si] = n.paths[si]
			continue
		}
		c := *ss
		c.Receivers = append(append([]int{}, ss.Receivers[:k]...), ss.Receivers[k+1:]...)
		sessions[si] = &c
		paths[si] = append(append([][]int{}, n.paths[si][:k]...), n.paths[si][k+1:]...)
	}
	return NewNetwork(n.graph, sessions, paths)
}
