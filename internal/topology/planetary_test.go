package topology

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

func planetaryTestOptions() PlanetaryOptions {
	return PlanetaryOptions{
		Regions: 3, CoreNodes: 16, PoPs: 8, ReceiversPerPoP: 4,
		CoreCap: 4096, AccessCap: 64,
	}
}

// TestPlanetaryShape pins the generator's counts and layered link
// order: per region CoreNodes-1 core links then one access link per
// PoP, with firstAccess at the boundary, and one session per region
// holding PoPs x ReceiversPerPoP receivers.
func TestPlanetaryShape(t *testing.T) {
	o := planetaryTestOptions()
	net, firstAccess, err := Planetary(rand.New(rand.NewPCG(7, 7)), o)
	if err != nil {
		t.Fatal(err)
	}
	wantCore := o.Regions * (o.CoreNodes - 1)
	if firstAccess != wantCore {
		t.Fatalf("firstAccess = %d, want %d", firstAccess, wantCore)
	}
	if got, want := net.NumLinks(), wantCore+o.Regions*o.PoPs; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	if net.NumSessions() != o.Regions {
		t.Fatalf("sessions = %d, want %d", net.NumSessions(), o.Regions)
	}
	total := 0
	for i := 0; i < net.NumSessions(); i++ {
		total += net.Session(i).NumReceivers()
	}
	if total != o.NumReceivers() {
		t.Fatalf("receivers = %d, want %d", total, o.NumReceivers())
	}
	for j := 0; j < net.NumLinks(); j++ {
		want := o.AccessCap
		if j < firstAccess {
			want = o.CoreCap
		}
		if net.Capacity(j) != want {
			t.Fatalf("link %d capacity %v, want %v", j, net.Capacity(j), want)
		}
	}
}

// TestPlanetaryRegionsLinkDisjoint: no link is crossed by more than one
// session — the property that makes every region an independent shard
// group for netsim's session-sharded execution.
func TestPlanetaryRegionsLinkDisjoint(t *testing.T) {
	net, _, err := Planetary(rand.New(rand.NewPCG(7, 7)), planetaryTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, net.NumLinks())
	for j := range owner {
		owner[j] = -1
	}
	for i := 0; i < net.NumSessions(); i++ {
		ns := net.Session(i)
		for k := range ns.Receivers {
			for _, j := range net.Path(i, k) {
				if owner[j] >= 0 && owner[j] != i {
					t.Fatalf("link %d crossed by sessions %d and %d", j, owner[j], i)
				}
				owner[j] = i
			}
		}
	}
}

// TestPlanetaryPathsAliasPerPoP: all receivers of one PoP share one
// path slice (the aliasing that keeps generation and indexing linear in
// PoPs rather than receivers), and every path walks sender to receiver.
func TestPlanetaryPathsAliasPerPoP(t *testing.T) {
	o := planetaryTestOptions()
	net, _, err := Planetary(rand.New(rand.NewPCG(7, 7)), o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.NumSessions(); i++ {
		ns := net.Session(i)
		for pp := 0; pp < o.PoPs; pp++ {
			base := pp * o.ReceiversPerPoP
			p0 := net.Path(i, base)
			for x := 1; x < o.ReceiversPerPoP; x++ {
				px := net.Path(i, base+x)
				if &p0[0] != &px[0] || len(p0) != len(px) {
					t.Fatalf("session %d PoP %d: receiver paths not aliased", i, pp)
				}
			}
			// The shared path must be a sender-to-PoP walk.
			g := net.Graph()
			cur := ns.Sender
			for _, j := range p0 {
				cur = g.Other(j, cur)
			}
			if cur != ns.Receivers[base] {
				t.Fatalf("session %d PoP %d: path ends at node %d, not receiver node %d", i, pp, cur, ns.Receivers[base])
			}
		}
	}
}

// TestPlanetaryDeterministic: equal seeds give byte-equal topologies;
// different seeds differ.
func TestPlanetaryDeterministic(t *testing.T) {
	o := planetaryTestOptions()
	a, fa, err := Planetary(rand.New(rand.NewPCG(7, 7)), o)
	if err != nil {
		t.Fatal(err)
	}
	b, fb, err := Planetary(rand.New(rand.NewPCG(7, 7)), o)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("firstAccess %d vs %d", fa, fb)
	}
	for i := 0; i < a.NumSessions(); i++ {
		for k := range a.Session(i).Receivers {
			pa, pb := a.Path(i, k), b.Path(i, k)
			if len(pa) != len(pb) {
				t.Fatalf("session %d receiver %d: path lengths differ", i, k)
			}
			for x := range pa {
				if pa[x] != pb[x] {
					t.Fatalf("session %d receiver %d: paths differ", i, k)
				}
			}
		}
	}
	c, _, err := Planetary(rand.New(rand.NewPCG(8, 8)), o)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; same && i < a.NumSessions(); i++ {
		for k := range a.Session(i).Receivers {
			pa, pc := a.Path(i, k), c.Path(i, k)
			if len(pa) != len(pc) {
				same = false
				break
			}
			for x := range pa {
				if pa[x] != pc[x] {
					same = false
					break
				}
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

// TestPlanetaryValidate rejects each degenerate option.
func TestPlanetaryValidate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, o := range []PlanetaryOptions{
		{Regions: 0, CoreNodes: 16, PoPs: 8, ReceiversPerPoP: 4, CoreCap: 1, AccessCap: 1},
		{Regions: 1, CoreNodes: 1, PoPs: 8, ReceiversPerPoP: 4, CoreCap: 1, AccessCap: 1},
		{Regions: 1, CoreNodes: 16, PoPs: 0, ReceiversPerPoP: 4, CoreCap: 1, AccessCap: 1},
		{Regions: 1, CoreNodes: 16, PoPs: 8, ReceiversPerPoP: 0, CoreCap: 1, AccessCap: 1},
		{Regions: 1, CoreNodes: 16, PoPs: 8, ReceiversPerPoP: 4, CoreCap: 0, AccessCap: 1},
		{Regions: 1, CoreNodes: 16, PoPs: 8, ReceiversPerPoP: 4, CoreCap: 1, AccessCap: 0},
	} {
		if _, _, err := Planetary(rng, o); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
}

// TestPlanetaryPresets pins the preset receiver counts the ROADMAP and
// benchmark names promise.
func TestPlanetaryPresets(t *testing.T) {
	if n := PlanetaryOptions1M().NumReceivers(); n != 1048576 {
		t.Fatalf("1M preset = %d receivers", n)
	}
	if n := PlanetaryOptions10M().NumReceivers(); n != 10485760 {
		t.Fatalf("10M preset = %d receivers", n)
	}
}

// TestPlanetaryNetworkBytes is the network's memory guard: a
// 65,536-receiver planetary network (the 1M preset at 128 PoPs per
// region) must retain at most 24 bytes per receiver once built. The
// network keeps each receiver's host and run index; paths and the
// per-link receiver sets are per run, so they cost almost nothing per
// receiver. A network storing R_{i,j} one int per receiver-hop and a
// path header per receiver fails it at ~63 B/receiver.
func TestPlanetaryNetworkBytes(t *testing.T) {
	o := PlanetaryOptions1M()
	o.PoPs = 128
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net, _, err := Planetary(rand.New(rand.NewPCG(5, 5)), o)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	perR := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(o.NumReceivers())
	t.Logf("network retains %.1f B/receiver at %d receivers", perR, o.NumReceivers())
	if perR > 24 {
		t.Fatalf("network retains %.1f B/receiver at %d receivers, want <= 24", perR, o.NumReceivers())
	}
}
