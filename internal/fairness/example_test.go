package fairness_test

import (
	"fmt"

	"mlfair/internal/fairness"
	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
)

// ExampleCheck audits the four Section 2.1 properties on the max-min
// fair allocation of two multi-rate sessions sharing one link.
func ExampleCheck() {
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	for i := 0; i < 2; i++ {
		s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
		b.SetPath(s, 0, l)
	}
	res, _ := maxmin.Allocate(b.MustBuild())
	fmt.Println(fairness.Check(res.Alloc).AllHold())
	// Output: true
}
