package netmodel_test

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mlfair/internal/netmodel"
	"mlfair/internal/routing"
	"mlfair/internal/topology"
)

// sameSlice is the run rule's slice identity: equal length over the
// same backing elements.
func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkIndex compares net's run table and incidence with brute-force
// scans over the per-receiver data-paths it was built from (paths[i][k]
// as handed to NewNetwork; slice identity decides runs):
//   - Path(i, k) has the input's links and PathRun(i, k) the length of
//     the same-host, same-slice scan from k, for every k;
//   - OnLink(j) lists, session-ascending, exactly the sessions some
//     receiver path crosses j on, and each entry's ranges are ascending,
//     disjoint and maximal and expand to the ascending list of receivers
//     whose path contains j;
//   - ReceiversCrossing(j) is the ranges' total.
func checkIndex(t testing.TB, net *netmodel.Network, paths [][][]int) {
	t.Helper()
	for i := range paths {
		hosts := net.Session(i).Receivers
		for k, p := range paths[i] {
			if got := net.Path(i, k); !slices.Equal(got, p) {
				t.Fatalf("Path(%d, %d) = %v, want %v", i, k, got, p)
			}
			run := 1
			for k+run < len(hosts) && hosts[k+run] == hosts[k] && sameSlice(paths[i][k+run], p) {
				run++
			}
			if got := net.PathRun(i, k); got != run {
				t.Fatalf("PathRun(%d, %d) = %d, scan finds %d", i, k, got, run)
			}
		}
	}
	for j := 0; j < net.NumLinks(); j++ {
		on := net.OnLink(j)
		x, total := 0, 0
		for i := range paths {
			var ks []int
			for k, p := range paths[i] {
				if slices.Contains(p, j) {
					ks = append(ks, k)
				}
			}
			if len(ks) == 0 {
				continue
			}
			if x >= len(on) || on[x].Session != i {
				t.Fatalf("link %d: OnLink %v lacks session %d", j, on, i)
			}
			sr := on[x]
			x++
			for y, r := range sr.Ranges {
				if r.Lo >= r.Hi || (y > 0 && r.Lo <= sr.Ranges[y-1].Hi) {
					t.Fatalf("link %d session %d: ranges %v are not ascending, disjoint and maximal", j, i, sr.Ranges)
				}
			}
			if got := slices.Collect(sr.All()); !slices.Equal(got, ks) {
				t.Fatalf("link %d session %d: ranges %v expand to %v, scan finds %v", j, i, sr.Ranges, got, ks)
			}
			if sr.Len() != len(ks) {
				t.Fatalf("link %d session %d: Len %d, scan finds %d", j, i, sr.Len(), len(ks))
			}
			total += len(ks)
		}
		if x != len(on) {
			t.Fatalf("link %d: OnLink %v has sessions no receiver path crosses", j, on)
		}
		if got := net.ReceiversCrossing(j); got != total {
			t.Fatalf("link %d: ReceiversCrossing %d, scan finds %d", j, got, total)
		}
	}
}

// checkCopiedTwin rebuilds net with every data-path deep-copied, so
// every run has length one, and requires the same incidence: maximal
// ranges do not depend on how receivers were grouped into runs.
func checkCopiedTwin(t testing.TB, net *netmodel.Network, paths [][][]int) {
	t.Helper()
	copied := make([][][]int, len(paths))
	for i := range paths {
		copied[i] = make([][]int, len(paths[i]))
		for k, p := range paths[i] {
			copied[i][k] = slices.Clone(p)
		}
	}
	c, err := netmodel.NewNetwork(net.Graph(), net.Sessions(), copied)
	if err != nil {
		t.Fatalf("copied twin rejected: %v", err)
	}
	checkIndex(t, c, copied)
	for j := 0; j < net.NumLinks(); j++ {
		if !reflect.DeepEqual(net.OnLink(j), c.OnLink(j)) {
			t.Fatalf("link %d: OnLink %v aliased, %v copied", j, net.OnLink(j), c.OnLink(j))
		}
	}
}

// pathsOf reads back a network's per-receiver data-paths: each run's
// receivers get its one slice, as a generator that aliases them would
// hand them in.
func pathsOf(net *netmodel.Network) [][][]int {
	paths := make([][][]int, net.NumSessions())
	for i := range paths {
		paths[i] = make([][]int, net.Session(i).NumReceivers())
		for k := range paths[i] {
			paths[i][k] = net.Path(i, k)
		}
	}
	return paths
}

// randomGraph builds a connected graph on nn nodes: a random spanning
// tree plus extra links, parallel links included.
func randomGraph(rng *rand.Rand, nn, extra int) *netmodel.Graph {
	g := netmodel.NewGraph(nn)
	for v := 1; v < nn; v++ {
		g.AddLink(v, rng.IntN(v), 1+rng.Float64()*9)
	}
	for range extra {
		a, b := rng.IntN(nn), rng.IntN(nn)
		if a != b {
			g.AddLink(a, b, 1+rng.Float64()*9)
		}
	}
	return g
}

// aliasRepeats makes runs out of routed paths: a receiver at the same
// node as the previous one takes the previous path slice (routing on
// one tree gives them equal contents) when the coin says so.
func aliasRepeats(rng *rand.Rand, hosts []int, ps [][]int) {
	for k := 1; k < len(ps); k++ {
		if hosts[k] == hosts[k-1] && rng.IntN(3) > 0 {
			ps[k] = ps[k-1]
		}
	}
}

// TestRunLengthIndex checks the run table and the range form of R_{i,j}
// against brute-force scans over the per-receiver inputs (checkIndex),
// with each network's copied twin (checkCopiedTwin), over seeded routed
// graphs, planetary networks, abstract Builder networks with a link
// repeated inside one path, multi-sender sessions, and networks derived
// with RemoveReceiver and WithSessionTypes.
func TestRunLengthIndex(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		nn := 3 + rng.IntN(14)
		g := randomGraph(rng, nn, rng.IntN(nn))
		var sessions []*netmodel.Session
		var paths [][][]int
		for range 1 + rng.IntN(3) {
			nr := 1 + rng.IntN(16)
			hosts := make([]int, nr)
			for k := range hosts {
				// Repeat the previous host often, so runs form.
				if k > 0 && rng.IntN(2) == 0 {
					hosts[k] = hosts[k-1]
				} else {
					hosts[k] = rng.IntN(nn)
				}
			}
			s := &netmodel.Session{Sender: rng.IntN(nn), Receivers: hosts, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
			ps, err := routing.SessionPaths(g, s)
			if err != nil {
				t.Fatal(err)
			}
			aliasRepeats(rng, hosts, ps)
			sessions = append(sessions, s)
			paths = append(paths, ps)
		}
		net, err := netmodel.NewNetwork(g, sessions, paths)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkIndex(t, net, paths)
		checkCopiedTwin(t, net, paths)

		// Derived networks: a removed receiver (mid-run ones included)
		// and a retyped network keep the index consistent.
		i := rng.IntN(len(sessions))
		if nr := len(paths[i]); nr > 1 {
			k := rng.IntN(nr)
			rm, err := net.RemoveReceiver(netmodel.ReceiverID{Session: i, Receiver: k})
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(paths)
			want[i] = slices.Delete(slices.Clone(paths[i]), k, k+1)
			checkIndex(t, rm, want)
		}
		types := make([]netmodel.SessionType, len(sessions))
		for x := range types {
			types[x] = netmodel.SessionType(rng.IntN(2))
		}
		typed, err := net.WithSessionTypes(types)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, typed, paths)
		for x := range types {
			if typed.Session(x).Type != types[x] {
				t.Fatalf("seed %d: session %d type %v, want %v", seed, x, typed.Session(x).Type, types[x])
			}
		}
	}

	t.Run("planetary", func(t *testing.T) {
		for seed := uint64(1); seed <= 4; seed++ {
			pl, _, err := topology.Planetary(rand.New(rand.NewPCG(seed, seed)), topology.PlanetaryOptions{
				Regions: 2, CoreNodes: 10, PoPs: 24, ReceiversPerPoP: 1 + int(seed)*3, CoreCap: 64, AccessCap: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			paths := pathsOf(pl)
			checkIndex(t, pl, paths)
			checkCopiedTwin(t, pl, paths)
			// One PoP's access link is one range: its receivers are one run.
			if pl.PathRun(0, 0) != 1+int(seed)*3 {
				t.Fatalf("seed %d: PoP run %d", seed, pl.PathRun(0, 0))
			}
		}
	})

	t.Run("abstract-repeated-link", func(t *testing.T) {
		for seed := uint64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewPCG(seed, 43))
			b := netmodel.NewBuilder()
			nl := 1 + rng.IntN(5)
			for range nl {
				b.AddLink(1 + rng.Float64()*9)
			}
			var paths [][][]int
			for range 1 + rng.IntN(3) {
				nr := 1 + rng.IntN(8)
				s := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, nr)
				ps := make([][]int, nr)
				for k := range ps {
					p := []int{rng.IntN(nl)}
					for range rng.IntN(4) {
						p = append(p, rng.IntN(nl))
					}
					if k == 0 {
						p = append(p, p[0]) // always one repeated link
					}
					b.SetPath(s, k, p...)
					ps[k] = p
				}
				paths = append(paths, ps)
			}
			net, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, net, paths)
			checkCopiedTwin(t, net, paths)
		}
	})

	t.Run("multi-sender", func(t *testing.T) {
		for seed := uint64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewPCG(seed, 47))
			nn := 4 + rng.IntN(12)
			g := randomGraph(rng, nn, rng.IntN(nn))
			hosts := make([]int, 1+rng.IntN(12))
			for k := range hosts {
				if k > 0 && rng.IntN(2) == 0 {
					hosts[k] = hosts[k-1]
				} else {
					hosts[k] = rng.IntN(nn)
				}
			}
			s := &netmodel.Session{Sender: rng.IntN(nn), ExtraSenders: []int{rng.IntN(nn), rng.IntN(nn)},
				Receivers: hosts, Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
			ps, _, err := routing.MultiSenderPaths(g, s)
			if err != nil {
				t.Fatal(err)
			}
			aliasRepeats(rng, hosts, ps)
			net, err := netmodel.NewNetwork(g, []*netmodel.Session{s}, [][][]int{ps})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkIndex(t, net, [][][]int{ps})
			checkCopiedTwin(t, net, [][][]int{ps})
		}
		// One link, a sender at each end: the same one-hop slice reaches
		// receivers at both nodes. Another host ends the run, but not
		// the range, which spans both runs.
		g := netmodel.NewGraph(2)
		g.AddLink(0, 1, 5)
		p := []int{0}
		ps := [][]int{p, p, p, p}
		s := &netmodel.Session{Sender: 0, ExtraSenders: []int{1}, Receivers: []int{1, 1, 0, 0},
			Type: netmodel.MultiRate, MaxRate: netmodel.NoRateCap}
		net, err := netmodel.NewNetwork(g, []*netmodel.Session{s}, [][][]int{ps})
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, net, [][][]int{ps})
		if net.PathRun(0, 0) != 2 || net.PathRun(0, 2) != 2 || len(net.OnLink(0)[0].Ranges) != 1 {
			t.Fatalf("runs %d/%d, ranges %v; want 2/2 and one range", net.PathRun(0, 0), net.PathRun(0, 2), net.OnLink(0)[0].Ranges)
		}
	})
}

// FuzzNetworkIndex feeds NewNetwork random graphs, random walks and
// random aliasing patterns. Each input is either rejected or passes
// checkIndex and checkCopiedTwin, and so does a network derived from it
// with RemoveReceiver. The low bit of mode picks an abstract network
// (unvalidated link sequences, repeated links included) over a graph
// with walks from the sender.
func FuzzNetworkIndex(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint8(5), uint8(2))
	f.Add(uint64(7), uint8(9), uint8(20), uint8(12), uint8(4))
	// Abstract, one link: every path longer than one hop repeats it.
	f.Add(uint64(3), uint8(0), uint8(0), uint8(6), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, links, recv, mode uint8) {
		rng := rand.New(rand.NewPCG(seed, 53))
		abstract := mode&1 == 1
		var g *netmodel.Graph
		if abstract {
			nl := 1 + int(links%6)
			g = netmodel.NewGraph(1 + 2*nl)
			for j := 0; j < nl; j++ {
				g.AddLink(1+2*j, 2+2*j, 1+rng.Float64()*8)
			}
		} else {
			nn := 2 + int(nodes%12)
			g = netmodel.NewGraph(nn)
			for range 1 + int(links%24) {
				a, b := rng.IntN(nn), rng.IntN(nn)
				if a != b {
					g.AddLink(a, b, 1+rng.Float64()*8)
				}
			}
			if g.NumLinks() == 0 {
				return
			}
		}
		// walk draws one receiver's host and path: a link sequence with
		// repeats on abstract networks, otherwise a random walk from the
		// sender of up to 6 hops that stops before reusing a link.
		walk := func(sender int) (int, []int) {
			if abstract {
				p := make([]int, 1+rng.IntN(4))
				for x := range p {
					p[x] = rng.IntN(g.NumLinks())
				}
				return -1, p
			}
			cur := sender
			var p []int
			seen := map[int]bool{}
			for range 6 {
				inc := g.Incident(cur)
				if len(inc) == 0 {
					break
				}
				j := inc[rng.IntN(len(inc))]
				if seen[j] {
					break
				}
				seen[j] = true
				p = append(p, j)
				cur = g.Other(j, cur)
			}
			return cur, p
		}
		alias := int(mode>>1) % 4 // how often a receiver reuses an earlier one
		var sessions []*netmodel.Session
		var paths [][][]int
		for range 1 + rng.IntN(3) {
			sender := -1
			if !abstract {
				sender = rng.IntN(g.NumNodes())
			}
			nr := 1 + int(recv%24)
			hosts := make([]int, nr)
			ps := make([][]int, nr)
			for k := range ps {
				switch c := rng.IntN(4); {
				case k > 0 && c < alias:
					// Reuse the previous receiver's host and slice (a run),
					// or an earlier receiver's slice and host (a run only
					// if adjacent), or a copy of its contents (never a run).
					src := k - 1
					if rng.IntN(3) == 0 {
						src = rng.IntN(k)
					}
					hosts[k], ps[k] = hosts[src], ps[src]
					if rng.IntN(4) == 0 {
						ps[k] = slices.Clone(ps[src])
					}
				default:
					hosts[k], ps[k] = walk(sender)
				}
			}
			sessions = append(sessions, &netmodel.Session{Sender: sender, Receivers: hosts,
				Type: netmodel.SessionType(rng.IntN(2)), MaxRate: netmodel.NoRateCap})
			paths = append(paths, ps)
		}
		net, err := netmodel.NewNetwork(g, sessions, paths)
		if err != nil {
			return
		}
		checkIndex(t, net, paths)
		checkCopiedTwin(t, net, paths)
		i := rng.IntN(len(paths))
		if nr := len(paths[i]); nr > 1 {
			k := rng.IntN(nr)
			rm, err := net.RemoveReceiver(netmodel.ReceiverID{Session: i, Receiver: k})
			if err != nil {
				t.Fatalf("RemoveReceiver(%d, %d): %v", i, k, err)
			}
			want := slices.Clone(paths)
			want[i] = slices.Delete(slices.Clone(paths[i]), k, k+1)
			checkIndex(t, rm, want)
		}
	})
}
