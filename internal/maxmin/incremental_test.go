package maxmin

import (
	"math"
	"math/rand/v2"
	"testing"

	"mlfair/internal/netmodel"
)

// activeSubNetwork rebuilds the network restricted to the active
// receivers (sessions left with none are dropped), returning the
// sub-network and, per original session, the original receiver indices
// it kept (nil for dropped sessions) — the mapping compareEpochToBatch
// walks.
func activeSubNetwork(t *testing.T, net *netmodel.Network, active func(i, k int) bool) (*netmodel.Network, [][]int) {
	t.Helper()
	b := netmodel.NewBuilder()
	for j := 0; j < net.NumLinks(); j++ {
		b.AddLink(net.Capacity(j))
	}
	incl := make([][]int, net.NumSessions())
	for i, s := range net.Sessions() {
		var ks []int
		for k := 0; k < s.NumReceivers(); k++ {
			if active(i, k) {
				ks = append(ks, k)
			}
		}
		if len(ks) == 0 {
			continue
		}
		si := b.AddSession(s.Type, s.MaxRate, len(ks))
		if s.LinkRate != nil {
			b.SetLinkRate(si, s.LinkRate)
		}
		for x, k := range ks {
			b.SetPath(si, x, net.Path(i, k)...)
		}
		incl[i] = ks
	}
	sub, err := b.Build()
	if err != nil {
		t.Fatalf("sub-network build: %v", err)
	}
	return sub, incl
}

// compareEpochToBatch checks the incremental allocator's current
// allocation against references on the active sub-network, where
// "batch" means a cold fill from zero of that sub-network:
// it must be feasible and saturated (CheckSaturation), match a cold
// AllocateGeneric there (rates within netmodel.Eps; causes in kind,
// link and round) and, when every session uses v = max, match
// referenceFill within netmodel.Eps. Departed receivers must sit at 0.
func compareEpochToBatch(t *testing.T, trial, epoch int, net *netmodel.Network, inc *Incremental) {
	t.Helper()
	anyActive := false
	for i := 0; i < net.NumSessions(); i++ {
		for k := 0; k < net.Session(i).NumReceivers(); k++ {
			if inc.Active(i, k) {
				anyActive = true
			} else if inc.Rate(i, k) != 0 {
				t.Fatalf("trial %d epoch %d: departed r%d,%d has rate %v", trial, epoch, i+1, k+1, inc.Rate(i, k))
			}
		}
	}
	if !anyActive {
		return // nothing to compare: the sub-network has no sessions
	}
	sub, incl := activeSubNetwork(t, net, inc.Active)
	cold, err := AllocateGeneric(sub)
	if err != nil {
		t.Fatalf("trial %d epoch %d: cold fill: %v", trial, epoch, err)
	}
	got := netmodel.NewAllocation(sub)
	var ref *netmodel.Allocation
	if allMax(sub) {
		ref = referenceFill(t, sub)
	}
	si := 0
	for i := range incl {
		if incl[i] == nil {
			continue
		}
		for x, k := range incl[i] {
			r := inc.Rate(i, k)
			got.SetRate(si, x, r)
			if want := cold.Alloc.Rate(si, x); math.Abs(r-want) > netmodel.Eps {
				t.Fatalf("trial %d epoch %d r%d,%d: incremental %v, cold %v", trial, epoch, i+1, k+1, r, want)
			}
			if ref != nil && math.Abs(r-ref.Rate(si, x)) > netmodel.Eps {
				t.Fatalf("trial %d epoch %d r%d,%d: incremental %v, reference %v", trial, epoch, i+1, k+1, r, ref.Rate(si, x))
			}
			gc, ok := inc.Cause(i, k)
			if !ok {
				t.Fatalf("trial %d epoch %d r%d,%d: active receiver has no cause", trial, epoch, i+1, k+1)
			}
			if wc := cold.Causes[si][x]; gc != wc {
				t.Fatalf("trial %d epoch %d r%d,%d: cause %+v, cold %+v", trial, epoch, i+1, k+1, gc, wc)
			}
		}
		si++
	}
	if err := got.Feasible(); err != nil {
		t.Fatalf("trial %d epoch %d: infeasible: %v", trial, epoch, err)
	}
	if id, ok := CheckSaturation(got); !ok {
		t.Fatalf("trial %d epoch %d: %v can still rise", trial, epoch, id)
	}
}

// TestIncrementalMatchesBatchFullMembership: the initial fill passes
// compareEpochToBatch on the whole network.
func TestIncrementalMatchesBatchFullMembership(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 80; trial++ {
		net := randNetwork(rng)
		inc, err := NewIncremental(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Fill(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compareEpochToBatch(t, trial, 0, net, inc)
	}
}

// TestIncrementalMatchesBatchOnMembershipSequences is the
// epoch-incremental acceptance property: over random networks
// (occasionally with redundancy link-rate functions) and random
// join/leave sequences, every epoch's incremental allocation equals a
// cold AllocateGeneric on the active sub-network — rates
// and bottleneck causes.
func TestIncrementalMatchesBatchOnMembershipSequences(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 60; trial++ {
		net := randNetwork(rng)
		if rng.IntN(3) == 0 {
			fns := make([]netmodel.LinkRateFunc, net.NumSessions())
			for i := range fns {
				if rng.IntN(2) == 0 {
					fns[i] = netmodel.ScaledMax(1 + 2*rng.Float64())
				}
			}
			var err error
			net, err = net.WithLinkRates(fns)
			if err != nil {
				t.Fatal(err)
			}
		}
		inc, err := NewIncremental(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Fill(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compareEpochToBatch(t, trial, 0, net, inc)
		ids := net.ReceiverIDs()
		for epoch := 1; epoch <= 8; epoch++ {
			for toggles := 1 + rng.IntN(3); toggles > 0; toggles-- {
				id := ids[rng.IntN(len(ids))]
				inc.SetActive(id.Session, id.Receiver, rng.IntN(2) == 0)
			}
			if err := inc.Fill(); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}
			compareEpochToBatch(t, trial, epoch, net, inc)
		}
	}
}

// TestIncrementalMatchesBatchSharedRedundancy runs the membership
// property with v = SharedScaledMax on every session, whose link rate
// depends on how many receivers a link serves: a departed receiver must
// not count, or a link would keep charging the redundancy of a
// receiver that left.
func TestIncrementalMatchesBatchSharedRedundancy(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for trial := 0; trial < 60; trial++ {
		net := randNetwork(rng)
		fns := make([]netmodel.LinkRateFunc, net.NumSessions())
		for i := range fns {
			fns[i] = netmodel.SharedScaledMax(1 + 2*rng.Float64())
		}
		net, err := net.WithLinkRates(fns)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(net)
		if err != nil {
			t.Fatal(err)
		}
		ids := net.ReceiverIDs()
		for epoch := 0; epoch <= 8; epoch++ {
			if epoch > 0 {
				id := ids[rng.IntN(len(ids))]
				inc.SetActive(id.Session, id.Receiver, rng.IntN(2) == 0)
			}
			if err := inc.Fill(); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}
			compareEpochToBatch(t, trial, epoch, net, inc)
		}
	}
}

// TestIncrementalWarmStartLeaveOnly exercises the warm-started path
// specifically: pure leave sequences, one receiver per epoch, each
// epoch checked against the cold references.
func TestIncrementalWarmStartLeaveOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 60; trial++ {
		net := randNetwork(rng)
		inc, err := NewIncremental(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Fill(); err != nil {
			t.Fatal(err)
		}
		ids := net.ReceiverIDs()
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		for epoch, id := range ids {
			inc.SetActive(id.Session, id.Receiver, false)
			if err := inc.Fill(); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}
			compareEpochToBatch(t, trial, epoch+1, net, inc)
		}
	}
}

// TestIncrementalLeaveNeverLowersMinimum: the warm-start lemma — after
// a leave-only epoch, no remaining receiver's fair rate falls below
// the previous epoch's minimum active rate (individual rates CAN drop,
// e.g. when a single-rate session un-bottlenecks and rises into a
// shared link; only the minimum is invariant).
func TestIncrementalLeaveNeverLowersMinimum(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	for trial := 0; trial < 120; trial++ {
		net := randNetwork(rng)
		inc, err := NewIncremental(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Fill(); err != nil {
			t.Fatal(err)
		}
		ids := net.ReceiverIDs()
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		for _, gone := range ids[:1+rng.IntN(len(ids))] {
			oldMin := math.Inf(1)
			for i := range net.Sessions() {
				for k := 0; k < net.Session(i).NumReceivers(); k++ {
					if inc.Active(i, k) && inc.Rate(i, k) < oldMin {
						oldMin = inc.Rate(i, k)
					}
				}
			}
			inc.SetActive(gone.Session, gone.Receiver, false)
			if err := inc.Fill(); err != nil {
				t.Fatal(err)
			}
			for i := range net.Sessions() {
				for k := 0; k < net.Session(i).NumReceivers(); k++ {
					if inc.Active(i, k) && netmodel.Less(inc.Rate(i, k), oldMin) {
						t.Fatalf("trial %d: r%d,%d at %v fell below previous minimum %v after a leave",
							trial, i+1, k+1, inc.Rate(i, k), oldMin)
					}
				}
			}
		}
	}
}

// TestIncrementalFillAllocationFree: after the first fill warms the
// scratch buffers, an epoch (toggle + fill) performs zero allocations.
func TestIncrementalFillAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 40))
	net := randNetwork(rng)
	inc, err := NewIncremental(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Fill(); err != nil {
		t.Fatal(err)
	}
	ids := net.ReceiverIDs()
	join := false
	allocs := testing.AllocsPerRun(50, func() {
		id := ids[0]
		inc.SetActive(id.Session, id.Receiver, join)
		join = !join
		if err := inc.Fill(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("epoch fill allocates %v times", allocs)
	}
}

// TestTimelineEpochs: the timeline opens one epoch per distinct event
// time, folds time-0 events into the initial epoch, and zeroes
// departed receivers.
func TestTimelineEpochs(t *testing.T) {
	b := netmodel.NewBuilder()
	b.AddLink(12)
	s0 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 2)
	b.SetPath(s0, 0, 0)
	b.SetPath(s0, 1, 0)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, 0)
	net := b.MustBuild()

	epochs, err := Timeline(net, []MembershipEvent{
		{Time: 10, Session: 1, Receiver: 0, Join: false},
		{Time: 20, Session: 0, Receiver: 0, Join: true},
		{Time: 0, Session: 0, Receiver: 0, Join: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(epochs))
	}
	for x, want := range []float64{0, 10, 20} {
		if epochs[x].Time != want {
			t.Fatalf("epoch %d at %v, want %v", x, epochs[x].Time, want)
		}
	}
	// Epoch 0: r1,1 departed at t=0; the two remaining sessions split 12.
	if r := epochs[0].Rates[0][0]; r != 0 {
		t.Fatalf("epoch 0: departed r1,1 has rate %v", r)
	}
	if r := epochs[0].Rates[0][1]; !netmodel.Eq(r, 6) {
		t.Fatalf("epoch 0: r1,2 = %v, want 6", r)
	}
	if r := epochs[0].Rates[1][0]; !netmodel.Eq(r, 6) {
		t.Fatalf("epoch 0: r2,1 = %v, want 6", r)
	}
	// Epoch 1: session 2's receiver leaves; r1,2 takes the whole link.
	if r := epochs[1].Rates[0][1]; !netmodel.Eq(r, 12) {
		t.Fatalf("epoch 1: r1,2 = %v, want 12", r)
	}
	if r := epochs[1].Rates[1][0]; r != 0 {
		t.Fatalf("epoch 1: departed r2,1 has rate %v", r)
	}
	// Epoch 2: r1,1 rejoins its own session — multicast sharing under
	// v = max, so both of session 1's receivers ride the full 12.
	if r := epochs[2].Rates[0][0]; !netmodel.Eq(r, 12) {
		t.Fatalf("epoch 2: rejoined r1,1 = %v, want 12", r)
	}
	if r := epochs[2].Rates[0][1]; !netmodel.Eq(r, 12) {
		t.Fatalf("epoch 2: r1,2 = %v, want 12", r)
	}
}

// TestTimelineValidation rejects malformed membership events.
func TestTimelineValidation(t *testing.T) {
	b := netmodel.NewBuilder()
	b.AddLink(1)
	s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s, 0, 0)
	net := b.MustBuild()
	for _, ev := range []MembershipEvent{
		{Time: -1},
		{Time: math.NaN()},
		{Session: 9},
		{Receiver: 5},
		{Session: -1},
	} {
		if _, err := Timeline(net, []MembershipEvent{ev}); err == nil {
			t.Errorf("event %+v accepted", ev)
		}
	}
}
