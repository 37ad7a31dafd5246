package redundancy_test

import (
	"fmt"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/redundancy"
)

// ExampleExpectedLinkRate evaluates the Appendix B formula: two
// receivers each taking half the layer's packets at random use 75% of
// the layer on a shared link.
func ExampleExpectedLinkRate() {
	fmt.Println(redundancy.ExpectedLinkRate([]float64{0.5, 0.5}, 1))
	// Output: 0.75
}

// ExampleSingleLayer shows the Figure 5 "All 0.5" point at two
// receivers: E[U]/max = 0.75/0.5.
func ExampleSingleLayer() {
	fmt.Println(redundancy.SingleLayer([]float64{0.5, 0.5}, 1))
	// Output: 1.5
}

// ExampleNormalizedFairRate reproduces a Figure 6 point: with all
// sessions multi-rate (β=1) at redundancy 2, fair rates halve.
func ExampleNormalizedFairRate() {
	fmt.Println(redundancy.NormalizedFairRate(1, 2))
	// Output: 0.5
}

// ExampleOfAllocation measures Definition 3 on an inefficient session:
// a multi-rate session using twice its fastest receiver's rate on the
// link its three receivers share.
func ExampleOfAllocation() {
	b := netmodel.NewBuilder()
	for _, c := range []float64{6, 5, 2, 3} {
		b.AddLink(c)
	}
	s := b.AddSession(netmodel.MultiRate, 100, 3)
	b.SetPath(s, 0, 0, 1)
	b.SetPath(s, 1, 0, 2)
	b.SetPath(s, 2, 0, 3)
	b.SetLinkRate(s, netmodel.SharedScaledMax(2))
	other := b.AddSession(netmodel.MultiRate, 100, 1)
	b.SetPath(other, 0, 0, 1)
	res, _ := maxmin.Allocate(b.MustBuild())
	r, _ := redundancy.OfAllocation(res.Alloc, s, 0)
	fmt.Printf("%.0f\n", r)
	// Output: 2
}
