// Package dynamics studies max-min fairness under session churn — the
// Section 5 question of how fair allocations behave "in networks like
// the Internet, where a session's fair allocation may vary due to
// startup and/or termination of other sessions", and the Section 2.5
// observation that membership changes move other receivers' fair rates
// in non-obvious directions.
//
// A Timeline is a sequence of events (session joins/leaves, receiver
// removals) over a fixed population of sessions. Replaying it toggles
// receivers of one maxmin.Incremental over the whole population,
// refills it after every event, and reports churn metrics: how much
// surviving receivers' rates moved, in which directions, and how the
// minimum rate evolved. The Figure 3 networks show single events moving
// rates both ways; this package quantifies the effect at scale.
package dynamics

import (
	"fmt"
	"math"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
)

// EventKind says what changed.
type EventKind int

const (
	// SessionArrival activates a (pre-declared) session.
	SessionArrival EventKind = iota
	// SessionDeparture deactivates a session.
	SessionDeparture
	// ReceiverRemoval removes one receiver from an active session (the
	// Section 2.5 operation); the session must keep >= 1 receiver.
	ReceiverRemoval
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case SessionArrival:
		return "arrival"
	case SessionDeparture:
		return "departure"
	case ReceiverRemoval:
		return "receiver-removal"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one timeline step.
type Event struct {
	Kind EventKind
	// Session indexes the full session population.
	Session int
	// Receiver is the receiver index for ReceiverRemoval.
	Receiver int
}

// Timeline couples a session population (over one graph, with routed
// paths) with an event sequence. Sessions all start inactive; arrivals
// activate them.
type Timeline struct {
	// Population is the full network containing every session that may
	// ever be active.
	Population *netmodel.Network
	Events     []Event
}

// StepReport describes the allocation after one event.
type StepReport struct {
	Event Event
	// ActiveSessions counts sessions active after the event.
	ActiveSessions int
	// MinRate and TotalRate summarize the new allocation (over active
	// receivers).
	MinRate, TotalRate float64
	// Winners / Losers count surviving receivers whose rate rose/fell
	// versus the previous step (receivers present in both).
	Winners, Losers int
	// MaxSwing is the largest absolute per-receiver rate change among
	// survivors.
	MaxSwing float64
}

// Replay runs the timeline, recomputing the max-min fair allocation
// after every event: one maxmin.Incremental holds the whole population,
// an arrival or departure toggles all of the session's receivers, a
// removal toggles one, and each event is one Fill.
func Replay(tl *Timeline) ([]StepReport, error) {
	if tl == nil || tl.Population == nil {
		return nil, fmt.Errorf("dynamics: nil timeline")
	}
	pop := tl.Population
	inc, err := maxmin.NewIncremental(pop)
	if err != nil {
		return nil, err
	}
	// left[i] counts session i's present receivers; 0 means inactive.
	// prev[i][k] is r_{i,k}'s rate after the previous event, NaN while
	// the receiver is absent.
	left := make([]int, pop.NumSessions())
	prev := make([][]float64, pop.NumSessions())
	for i := range prev {
		prev[i] = make([]float64, pop.Session(i).NumReceivers())
		for k := range prev[i] {
			inc.SetActive(i, k, false)
			prev[i][k] = math.NaN()
		}
	}
	setSession := func(i int, on bool) {
		for k := range prev[i] {
			inc.SetActive(i, k, on)
		}
		left[i] = 0
		if on {
			left[i] = len(prev[i])
		}
	}
	active := 0
	var out []StepReport
	for _, ev := range tl.Events {
		if ev.Session < 0 || ev.Session >= pop.NumSessions() {
			return nil, fmt.Errorf("dynamics: event session %d out of range", ev.Session)
		}
		switch ev.Kind {
		case SessionArrival:
			if left[ev.Session] > 0 {
				return nil, fmt.Errorf("dynamics: session %d already active", ev.Session)
			}
			setSession(ev.Session, true)
			active++
		case SessionDeparture:
			// A departing session's removals are forgotten; a re-arrival
			// starts fresh.
			if left[ev.Session] == 0 {
				return nil, fmt.Errorf("dynamics: session %d not active", ev.Session)
			}
			setSession(ev.Session, false)
			active--
		case ReceiverRemoval:
			switch {
			case left[ev.Session] == 0:
				return nil, fmt.Errorf("dynamics: removal from inactive session %d", ev.Session)
			case ev.Receiver < 0 || ev.Receiver >= len(prev[ev.Session]):
				return nil, fmt.Errorf("dynamics: session %d has no receiver %d", ev.Session, ev.Receiver)
			case !inc.Active(ev.Session, ev.Receiver):
				return nil, fmt.Errorf("dynamics: receiver %d already removed", ev.Receiver)
			case left[ev.Session] == 1:
				return nil, fmt.Errorf("dynamics: session %d cannot lose its last receiver", ev.Session)
			}
			inc.SetActive(ev.Session, ev.Receiver, false)
			left[ev.Session]--
		default:
			return nil, fmt.Errorf("dynamics: unknown event kind %v", ev.Kind)
		}
		if err := inc.Fill(); err != nil {
			return nil, err
		}
		rep := StepReport{Event: ev, ActiveSessions: active}
		first := true
		for i := range prev {
			for k, p := range prev[i] {
				prev[i][k] = math.NaN()
				if !inc.Active(i, k) {
					continue
				}
				r := inc.Rate(i, k)
				prev[i][k] = r
				if first || r < rep.MinRate {
					rep.MinRate, first = r, false
				}
				rep.TotalRate += r
				if math.IsNaN(p) {
					continue
				}
				d := r - p
				if d > netmodel.Eps {
					rep.Winners++
				} else if d < -netmodel.Eps {
					rep.Losers++
				}
				if a := math.Abs(d); a > rep.MaxSwing {
					rep.MaxSwing = a
				}
			}
		}
		out = append(out, rep)
	}
	return out, nil
}
