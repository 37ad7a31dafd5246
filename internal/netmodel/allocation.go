package netmodel

import (
	"fmt"
	"sort"
	"strings"
)

// Allocation assigns a rate a_{i,k} to every receiver of a network. It
// carries a reference to its network so link rates u_{i,j} and u_j can be
// derived on demand.
type Allocation struct {
	net *Network
	// rates[i][k] is a_{i,k}.
	rates [][]float64
}

// NewAllocation returns an all-zero allocation for net.
func NewAllocation(net *Network) *Allocation {
	r := make([][]float64, net.NumSessions())
	for i, s := range net.Sessions() {
		r[i] = make([]float64, s.NumReceivers())
	}
	return &Allocation{net: net, rates: r}
}

// AllocationFromRates wraps explicit per-session rate slices. The shape
// must match the network. The slices are copied.
func AllocationFromRates(net *Network, rates [][]float64) (*Allocation, error) {
	if len(rates) != net.NumSessions() {
		return nil, fmt.Errorf("netmodel: %d rate groups for %d sessions", len(rates), net.NumSessions())
	}
	a := NewAllocation(net)
	for i, rs := range rates {
		if len(rs) != net.Session(i).NumReceivers() {
			return nil, fmt.Errorf("netmodel: session %d: %d rates for %d receivers", i, len(rs), net.Session(i).NumReceivers())
		}
		copy(a.rates[i], rs)
	}
	return a, nil
}

// Network returns the network this allocation belongs to.
func (a *Allocation) Network() *Network { return a.net }

// Rate returns a_{i,k}.
func (a *Allocation) Rate(i, k int) float64 { return a.rates[i][k] }

// RateOf returns the rate of the identified receiver.
func (a *Allocation) RateOf(id ReceiverID) float64 { return a.rates[id.Session][id.Receiver] }

// SetRate sets a_{i,k}.
func (a *Allocation) SetRate(i, k int, r float64) { a.rates[i][k] = r }

// SessionRates returns the rates of session i's receivers. Callers must
// not modify the returned slice.
func (a *Allocation) SessionRates(i int) []float64 { return a.rates[i] }

// Clone returns a deep copy sharing the network.
func (a *Allocation) Clone() *Allocation {
	c := NewAllocation(a.net)
	for i := range a.rates {
		copy(c.rates[i], a.rates[i])
	}
	return c
}

// SessionLinkRate returns u_{i,j} = v_i({a_{i,k} : r_{i,k} in R_{i,j}}),
// the bandwidth session i consumes on link j (0 when no receiver of the
// session crosses the link).
func (a *Allocation) SessionLinkRate(i, j int) float64 {
	for _, sr := range a.net.OnLink(j) {
		if sr.Session != i {
			continue
		}
		return a.sessionLinkRate(sr)
	}
	return 0
}

func (a *Allocation) sessionLinkRate(sr SessionReceivers) float64 {
	rs := make([]float64, 0, sr.Len())
	for _, r := range sr.Ranges {
		rs = append(rs, a.rates[sr.Session][r.Lo:r.Hi]...)
	}
	return a.net.Session(sr.Session).EffectiveLinkRate(rs)
}

// LinkRate returns u_j, the total bandwidth consumed on link j.
func (a *Allocation) LinkRate(j int) float64 {
	u := 0.0
	for _, sr := range a.net.OnLink(j) {
		u += a.sessionLinkRate(sr)
	}
	return u
}

// FullyUtilized reports whether u_j = c_j within tolerance.
func (a *Allocation) FullyUtilized(j int) bool {
	return Geq(a.LinkRate(j), a.net.Capacity(j))
}

// Feasible verifies the paper's feasibility conditions: 0 <= a_{i,k} <=
// κ_i for every receiver, equal rates within single-rate sessions, and
// u_j <= c_j on every link. It returns nil if all hold (within Eps).
func (a *Allocation) Feasible() error {
	for i, s := range a.net.Sessions() {
		for k, r := range a.rates[i] {
			if Less(r, 0) {
				return fmt.Errorf("receiver r%d,%d has negative rate %v", i+1, k+1, r)
			}
			if Greater(r, s.MaxRate) {
				return fmt.Errorf("receiver r%d,%d rate %v exceeds κ=%v", i+1, k+1, r, s.MaxRate)
			}
			if s.Type == SingleRate && !Eq(r, a.rates[i][0]) {
				return fmt.Errorf("single-rate session %d has unequal rates %v and %v", i+1, a.rates[i][0], r)
			}
		}
	}
	for j := 0; j < a.net.NumLinks(); j++ {
		if u, c := a.LinkRate(j), a.net.Capacity(j); Greater(u, c) {
			return fmt.Errorf("link l%d overutilized: u=%v > c=%v", j+1, u, c)
		}
	}
	return nil
}

// OrderedVector returns all receiver rates sorted ascending — the vectors
// compared by the min-unfavorable relation (Definition 2).
func (a *Allocation) OrderedVector() []float64 {
	v := make([]float64, 0, a.net.NumReceivers())
	for i := range a.rates {
		v = append(v, a.rates[i]...)
	}
	sort.Float64s(v)
	return v
}

// TotalRate returns the sum of all receiver rates (a throughput summary,
// not part of the paper's model).
func (a *Allocation) TotalRate() float64 {
	t := 0.0
	for i := range a.rates {
		for _, r := range a.rates[i] {
			t += r
		}
	}
	return t
}

// MinRate returns the smallest receiver rate.
func (a *Allocation) MinRate() float64 {
	first := true
	m := 0.0
	for i := range a.rates {
		for _, r := range a.rates[i] {
			if first || r < m {
				m, first = r, false
			}
		}
	}
	return m
}

// String renders the allocation in the paper's per-session style:
// "S1[M]: 1.00 2.00 | S2[S]: 3.00".
func (a *Allocation) String() string {
	var b strings.Builder
	for i, s := range a.net.Sessions() {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "S%d[%s]:", i+1, s.Type)
		for _, r := range a.rates[i] {
			fmt.Fprintf(&b, " %.4g", r)
		}
	}
	return b.String()
}
