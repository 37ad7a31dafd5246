package maxmin_test

import (
	"fmt"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
)

// ExampleAllocate computes the paper's Figure 2 allocation: the
// single-rate session S1 is held to its slowest receiver's rate, and the
// multi-rate session S2 takes the rest of the links it shares with S1.
func ExampleAllocate() {
	b := netmodel.NewBuilder()
	for _, c := range []float64{5, 2, 3, 6} {
		b.AddLink(c)
	}
	s1 := b.AddSession(netmodel.SingleRate, 100, 3)
	b.SetPath(s1, 0, 0, 3)
	b.SetPath(s1, 1, 1)
	b.SetPath(s1, 2, 2)
	s2 := b.AddSession(netmodel.MultiRate, 100, 1)
	b.SetPath(s2, 0, 0, 3)
	res, _ := maxmin.Allocate(b.MustBuild())
	fmt.Println(res.Alloc)
	// Output: S1[S]: 2 2 2 | S2[M]: 3
}
