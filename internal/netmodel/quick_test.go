package netmodel

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// quickNet builds a deterministic small network whose receivers' rates
// are set from the fuzzer's input.
func quickNet(numLinks, numReceivers int) *Network {
	b := NewBuilder()
	links := make([]int, numLinks)
	for i := range links {
		links[i] = b.AddLink(1000) // ample; feasibility not under test here
	}
	s := b.AddSession(MultiRate, NoRateCap, numReceivers)
	rng := rand.New(rand.NewPCG(uint64(numLinks), uint64(numReceivers)))
	for k := 0; k < numReceivers; k++ {
		var p []int
		for _, l := range links {
			if rng.IntN(2) == 0 {
				p = append(p, l)
			}
		}
		if len(p) == 0 {
			p = []int{links[0]}
		}
		b.SetPath(s, k, p...)
	}
	return b.MustBuild()
}

func sanitize(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, r := range raw {
		if r < 0 {
			r = -r
		}
		for r > 100 {
			r /= 16
		}
		if r != r { // NaN
			r = 1
		}
		out[i] = r
	}
	return out
}

// TestQuickLinkRateIsSumOfSessionRates: u_j = Σ_i u_{i,j} for arbitrary
// rate assignments.
func TestQuickLinkRateIsSumOfSessionRates(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		rates := sanitize(raw)
		if len(rates) > 6 {
			rates = rates[:6]
		}
		net := quickNet(3, len(rates))
		a := NewAllocation(net)
		for k, r := range rates {
			a.SetRate(0, k, r)
		}
		for j := 0; j < net.NumLinks(); j++ {
			sum := 0.0
			for i := 0; i < net.NumSessions(); i++ {
				sum += a.SessionLinkRate(i, j)
			}
			if !Eq(sum, a.LinkRate(j)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderedVectorIsSortedPermutation: OrderedVector sorts without
// losing or inventing rates.
func TestQuickOrderedVectorIsSortedPermutation(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		rates := sanitize(raw)
		if len(rates) > 8 {
			rates = rates[:8]
		}
		net := quickNet(2, len(rates))
		a := NewAllocation(net)
		for k, r := range rates {
			a.SetRate(0, k, r)
		}
		v := a.OrderedVector()
		if !sort.Float64sAreSorted(v) {
			return false
		}
		want := append([]float64{}, rates...)
		sort.Float64s(want)
		for i := range want {
			if v[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSessionLinkRateDominatesReceivers: u_{i,j} >= every crossing
// receiver's rate, for the default and scaled link-rate functions.
func TestQuickSessionLinkRateDominatesReceivers(t *testing.T) {
	f := func(raw []float64, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		rates := sanitize(raw)
		if len(rates) > 6 {
			rates = rates[:6]
		}
		scale := 1 + float64(scaleRaw%4)
		net := quickNet(3, len(rates))
		net, err := net.WithLinkRates([]LinkRateFunc{ScaledMax(scale)})
		if err != nil {
			return false
		}
		a := NewAllocation(net)
		for k, r := range rates {
			a.SetRate(0, k, r)
		}
		for j := 0; j < net.NumLinks(); j++ {
			u := a.SessionLinkRate(0, j)
			for _, sr := range net.OnLink(j) {
				for k := range sr.All() {
					if Greater(a.Rate(0, k), u) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
