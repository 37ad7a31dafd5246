package dynamics

import (
	"math/rand/v2"
	"testing"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
	"mlfair/internal/topology"
)

// figure3aTimeline rebuilds the Figure 3(a) experiment as a timeline:
// all three sessions arrive, then r3,2 is removed.
func figure3aTimeline() *Timeline {
	return &Timeline{
		Population: topology.Figure3a().Network,
		Events: []Event{
			{Kind: SessionArrival, Session: 0},
			{Kind: SessionArrival, Session: 1},
			{Kind: SessionArrival, Session: 2},
			{Kind: ReceiverRemoval, Session: 2, Receiver: 1},
		},
	}
}

func TestReplayFigure3a(t *testing.T) {
	reps, err := Replay(figure3aTimeline())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("got %d reports", len(reps))
	}
	final := reps[3]
	if final.Event.Kind != ReceiverRemoval {
		t.Fatal("wrong final event")
	}
	// Figure 3(a): the removal raises r1,1 (3->5) and r2,1 (2->4) but
	// lowers r3,1 (8->6): two winners, one loser, max swing 2.
	if final.Winners != 2 || final.Losers != 1 {
		t.Fatalf("winners=%d losers=%d, want 2/1", final.Winners, final.Losers)
	}
	if !netmodel.Eq(final.MaxSwing, 2) {
		t.Fatalf("MaxSwing = %v, want 2", final.MaxSwing)
	}
	if !netmodel.Eq(final.MinRate, 4) {
		t.Fatalf("MinRate = %v, want 4", final.MinRate)
	}
	if final.ActiveSessions != 3 {
		t.Fatalf("ActiveSessions = %d", final.ActiveSessions)
	}
}

func TestArrivalsSqueezeIncumbents(t *testing.T) {
	// Two unicast sessions on one link: the second arrival halves the
	// first's rate.
	b := netmodel.NewBuilder()
	l := b.AddLink(10)
	s1 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	s2 := b.AddSession(netmodel.MultiRate, netmodel.NoRateCap, 1)
	b.SetPath(s1, 0, l)
	b.SetPath(s2, 0, l)
	tl := &Timeline{
		Population: b.MustBuild(),
		Events: []Event{
			{Kind: SessionArrival, Session: 0},
			{Kind: SessionArrival, Session: 1},
			{Kind: SessionDeparture, Session: 1},
		},
	}
	reps, err := Replay(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !netmodel.Eq(reps[0].MinRate, 10) {
		t.Fatalf("solo rate = %v", reps[0].MinRate)
	}
	if reps[1].Losers != 1 || !netmodel.Eq(reps[1].MinRate, 5) {
		t.Fatalf("arrival: %+v", reps[1])
	}
	if reps[2].Winners != 1 || !netmodel.Eq(reps[2].MinRate, 10) {
		t.Fatalf("departure: %+v", reps[2])
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(nil); err == nil {
		t.Fatal("nil timeline accepted")
	}
	pop := topology.Figure3a().Network
	cases := [][]Event{
		{{Kind: SessionArrival, Session: 99}},
		{{Kind: SessionDeparture, Session: 0}},                                                 // not active
		{{Kind: SessionArrival, Session: 0}, {Kind: SessionArrival, Session: 0}},               // double arrival
		{{Kind: ReceiverRemoval, Session: 0}},                                                  // removal from inactive
		{{Kind: SessionArrival, Session: 0}, {Kind: ReceiverRemoval, Session: 0, Receiver: 0}}, // last receiver
		{{Kind: SessionArrival, Session: 2}, {Kind: ReceiverRemoval, Session: 2, Receiver: 1},
			{Kind: ReceiverRemoval, Session: 2, Receiver: 1}}, // double removal
		{{Kind: EventKind(9), Session: 0}},
	}
	for i, evs := range cases {
		if _, err := Replay(&Timeline{Population: pop, Events: evs}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDepartureResetsRemovals(t *testing.T) {
	pop := topology.Figure3a().Network
	tl := &Timeline{
		Population: pop,
		Events: []Event{
			{Kind: SessionArrival, Session: 2},
			{Kind: ReceiverRemoval, Session: 2, Receiver: 1},
			{Kind: SessionDeparture, Session: 2},
			{Kind: SessionArrival, Session: 2},
			// Fresh arrival restored both receivers: removal legal again.
			{Kind: ReceiverRemoval, Session: 2, Receiver: 1},
		},
	}
	if _, err := Replay(tl); err != nil {
		t.Fatal(err)
	}
}

// TestChurnStressRandom: long random timelines over a random population
// replay without error and keep allocations feasible at every step.
func TestChurnStressRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(301, 302))
	opts := topology.DefaultRandomOptions()
	opts.Sessions = 6
	pop := topology.RandomNetwork(rng, opts)

	active := make([]bool, pop.NumSessions())
	removedCount := make([]int, pop.NumSessions())
	var events []Event
	for step := 0; step < 60; step++ {
		i := rng.IntN(pop.NumSessions())
		switch {
		case !active[i]:
			events = append(events, Event{Kind: SessionArrival, Session: i})
			active[i] = true
			removedCount[i] = 0
		case rng.IntN(3) == 0:
			events = append(events, Event{Kind: SessionDeparture, Session: i})
			active[i] = false
		case pop.Session(i).NumReceivers()-removedCount[i] > 1:
			events = append(events, Event{
				Kind: ReceiverRemoval, Session: i,
				Receiver: pop.Session(i).NumReceivers() - 1 - removedCount[i],
			})
			removedCount[i]++
		default:
			events = append(events, Event{Kind: SessionDeparture, Session: i})
			active[i] = false
		}
	}
	reps, err := Replay(&Timeline{Population: pop, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(events) {
		t.Fatalf("reports %d for %d events", len(reps), len(events))
	}
	// Reference: a cold Allocate on the sub-network of the receivers
	// present after each event.
	present := make([][]bool, pop.NumSessions())
	for x, ev := range events {
		switch ev.Kind {
		case SessionArrival:
			present[ev.Session] = make([]bool, pop.Session(ev.Session).NumReceivers())
			for k := range present[ev.Session] {
				present[ev.Session][k] = true
			}
		case SessionDeparture:
			present[ev.Session] = nil
		case ReceiverRemoval:
			present[ev.Session][ev.Receiver] = false
		}
		r := reps[x]
		if r.MinRate < 0 || r.TotalRate < 0 {
			t.Fatalf("negative rates in %+v", r)
		}
		minRate, total, sessions := coldSummary(t, pop, present)
		if r.ActiveSessions != sessions || !netmodel.Eq(r.MinRate, minRate) || !netmodel.Eq(r.TotalRate, total) {
			t.Fatalf("event %d: report %+v, cold fill min %v total %v over %d sessions", x, r, minRate, total, sessions)
		}
	}
}

// coldSummary allocates the sub-network of pop's present receivers from
// scratch and returns its minimum and total rate and session count.
func coldSummary(t *testing.T, pop *netmodel.Network, present [][]bool) (minRate, total float64, sessions int) {
	t.Helper()
	b := netmodel.NewBuilder()
	for j := 0; j < pop.NumLinks(); j++ {
		b.AddLink(pop.Capacity(j))
	}
	for i, ks := range present {
		var paths [][]int
		for k, in := range ks {
			if in {
				paths = append(paths, pop.Path(i, k))
			}
		}
		if len(paths) == 0 {
			continue
		}
		s := pop.Session(i)
		si := b.AddSession(s.Type, s.MaxRate, len(paths))
		for x, p := range paths {
			b.SetPath(si, x, p...)
		}
		sessions++
	}
	if sessions == 0 {
		return 0, 0, 0
	}
	res, err := maxmin.Allocate(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return res.Alloc.MinRate(), res.Alloc.TotalRate(), sessions
}

// TestReplayRejectsOutOfRangeReceiver: a removal must name one of the
// session's receivers. Figure 3(a)'s S3 has two; removing receiver 99
// or -1 is an error, and the valid removal of receiver 0 still works.
func TestReplayRejectsOutOfRangeReceiver(t *testing.T) {
	pop := topology.Figure3a().Network
	for _, bad := range []int{99, 2, -1} {
		evs := []Event{{Kind: SessionArrival, Session: 2}, {Kind: ReceiverRemoval, Session: 2, Receiver: bad}}
		if _, err := Replay(&Timeline{Population: pop, Events: evs}); err == nil {
			t.Errorf("removal of receiver %d accepted", bad)
		}
	}
	evs := []Event{{Kind: SessionArrival, Session: 2}, {Kind: ReceiverRemoval, Session: 2, Receiver: 0}}
	if _, err := Replay(&Timeline{Population: pop, Events: evs}); err != nil {
		t.Fatalf("valid removal rejected: %v", err)
	}
}

func TestEventKindString(t *testing.T) {
	if SessionArrival.String() != "arrival" || SessionDeparture.String() != "departure" ||
		ReceiverRemoval.String() != "receiver-removal" {
		t.Fatal("kind strings wrong")
	}
	if EventKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
