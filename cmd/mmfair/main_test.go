package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mlfair/internal/maxmin"
	"mlfair/internal/netmodel"
)

func TestParseExample(t *testing.T) {
	net, err := Parse([]byte(exampleJSON))
	if err != nil {
		t.Fatalf("Parse(example): %v", err)
	}
	if net.NumSessions() != 2 || net.NumLinks() != 4 {
		t.Fatalf("sessions=%d links=%d", net.NumSessions(), net.NumLinks())
	}
	if net.Session(0).Type != netmodel.SingleRate {
		t.Fatal("session 1 should be single-rate")
	}
	if net.Session(1).Type != netmodel.MultiRate {
		t.Fatal("session 2 should be multi-rate")
	}
}

func TestParseDefaults(t *testing.T) {
	net, err := Parse([]byte(`{"links":[10],"sessions":[{"paths":[[0]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Untyped = multi; maxRate 0 = unbounded.
	if net.Session(0).Type != netmodel.MultiRate {
		t.Fatal("default type should be multi")
	}
	if !netmodel.Geq(net.Session(0).MaxRate, 1e18) {
		t.Fatalf("default κ = %v, want +Inf", net.Session(0).MaxRate)
	}
}

func TestParseRedundancy(t *testing.T) {
	net, err := Parse([]byte(`{"links":[12],"sessions":[
		{"redundancy": 2, "paths":[[0],[0]]},
		{"paths":[[0]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := netmodel.AllocationFromRates(net, [][]float64{{1, 1}, {1}})
	if got := a.SessionLinkRate(0, 0); !netmodel.Eq(got, 2) {
		t.Fatalf("redundant session link rate = %v, want 2", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no links":       `{"links":[],"sessions":[]}`,
		"negative cap":   `{"links":[-1],"sessions":[]}`,
		"bad type":       `{"links":[1],"sessions":[{"type":"zigzag","paths":[[0]]}]}`,
		"no receivers":   `{"links":[1],"sessions":[{"paths":[]}]}`,
		"empty path":     `{"links":[1],"sessions":[{"paths":[[]]}]}`,
		"bad link index": `{"links":[1],"sessions":[{"paths":[[7]]}]}`,
		"redundancy <1":  `{"links":[1],"sessions":[{"redundancy":0.5,"paths":[[0]]}]}`,
		"negative link":  `{"links":[1],"sessions":[{"paths":[[-1]]}]}`,
	}
	for name, js := range cases {
		if _, err := Parse([]byte(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReportOutput(t *testing.T) {
	net, err := Parse([]byte(exampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Report(&b, net); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Max-min fair receiver rates",
		"Link utilization",
		"r1,1", "r2,1",
		"single-rate-peer",
		"same-path violation",
		"fairness:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report:\n%s", want, out)
		}
	}
}

func TestParseWeighted(t *testing.T) {
	net, w, err := ParseWeighted([]byte(`{"links":[10],"sessions":[
		{"paths":[[0]],"weights":[3]},
		{"paths":[[0]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if w == nil || w[0][0] != 3 || w[1][0] != 1 {
		t.Fatalf("weights = %v", w)
	}
	if net.NumSessions() != 2 {
		t.Fatal("sessions wrong")
	}
	// No weights anywhere -> nil.
	_, w2, err := ParseWeighted([]byte(`{"links":[10],"sessions":[{"paths":[[0]]}]}`))
	if err != nil || w2 != nil {
		t.Fatalf("w2 = %v err = %v", w2, err)
	}
	// Wrong weight count.
	if _, _, err := ParseWeighted([]byte(`{"links":[10],"sessions":[{"paths":[[0]],"weights":[1,2]}]}`)); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
}

func TestReportWeighted(t *testing.T) {
	net, w, err := ParseWeighted([]byte(`{"links":[12],"sessions":[
		{"paths":[[0]],"weights":[1]},
		{"paths":[[0]],"weights":[3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ReportWeighted(&b, net, w); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "3") || !strings.Contains(out, "9") {
		t.Fatalf("weighted rates 3 and 9 missing:\n%s", out)
	}
}

// TestRunSpec: -spec compiles a scenario.Spec and reports on its
// analytic benchmark network (here the scenario corpus' analytic tree).
func TestRunSpec(t *testing.T) {
	var b strings.Builder
	path := filepath.Join("..", "..", "internal", "scenario", "testdata", "paths-analytic.json")
	if err := runSpec(&b, path, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Max-min fair receiver rates", "Link utilization", "fairness:"} {
		if !strings.Contains(out, want) {
			t.Errorf("spec report missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := runSpec(&b, path, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "graph mlfair") {
		t.Errorf("spec DOT output missing graph:\n%s", b.String())
	}
	if err := runSpec(&b, filepath.Join("testdata", "no-such-file.json"), false); err == nil {
		t.Error("missing spec file accepted")
	}
}

// tieNetwork is a single-rate session whose first three receivers
// freeze in the same round on l1, l2 and l3, while r1,4 follows them as
// a single-rate peer.
const tieNetwork = `{"links":[1,1,1,10],"sessions":[{"type":"single","paths":[[0],[1],[2],[3]]}]}`

// TestReportPeerCause: a single-rate peer is attributed the link of the
// lowest-index receiver of its session that froze, on every run.
func TestReportPeerCause(t *testing.T) {
	net, err := Parse([]byte(tieNetwork))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		var b strings.Builder
		if err := Report(&b, net); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, line := range strings.Split(b.String(), "\n") {
			if f := strings.Fields(line); len(f) == 5 && f[0] == "r1,4" {
				found = true
				if f[3] != "single-rate-peer" || f[4] != "l1" {
					t.Fatalf("run %d: r1,4 bound by %s %s, want single-rate-peer l1", run, f[3], f[4])
				}
			}
		}
		if !found {
			t.Fatalf("run %d: no r1,4 row in report:\n%s", run, b.String())
		}
	}
}

// FuzzReport feeds network JSON through ParseWeighted and
// ReportWeighted. On a parsed network of bounded size and magnitude the
// allocation must be feasible and saturated, and two reports of it must
// print the same bytes.
func FuzzReport(f *testing.F) {
	for _, seed := range []string{
		exampleJSON,
		tieNetwork,
		`{"links":[12],"sessions":[{"paths":[[0]],"weights":[1]},{"paths":[[0]],"weights":[3]}]}`,
		`{"links":[12],"sessions":[{"redundancy":2,"paths":[[0],[0]]},{"paths":[[0]]}]}`,
		`{"links":[12,100],"sessions":[{"paths":[[0],[0,1]],"weights":[2,1]},{"paths":[[0]]}]}`,
		`{"links":[5,2,3,6],"sessions":[{"type":"single","maxRate":4,"paths":[[0,3],[1],[2]],"weights":[2,2,2]},{"redundancy":1.5,"paths":[[0,3],[1]],"weights":[0.5,3]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, w, err := ParseWeighted(data)
		if err != nil || !bounded(net, w) {
			return
		}
		res, err := maxmin.AllocateWeighted(net, w)
		if err != nil {
			t.Fatalf("allocation failed: %v", err)
		}
		if err := res.Alloc.Feasible(); err != nil {
			t.Fatalf("infeasible allocation: %v", err)
		}
		if id, ok := maxmin.CheckSaturation(res.Alloc); !ok {
			t.Fatalf("%v can still rise in %s", id, res.Alloc)
		}
		var a, b strings.Builder
		if err := ReportWeighted(&a, net, w); err != nil {
			t.Fatal(err)
		}
		if err := ReportWeighted(&b, net, w); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("two reports differ:\n%s\n---\n%s", a.String(), b.String())
		}
	})
}

// bounded admits the networks FuzzReport checks: at most 8 links and 4
// sessions of at most 4 receivers, capacities and finite κ at most 100,
// redundancy at most 4, and valid weights (within [1/4, 4], equal
// within a single-rate session), so that the fill's rounding stays
// below netmodel.Eps.
func bounded(net *netmodel.Network, w maxmin.Weights) bool {
	if net.NumLinks() > 8 || net.NumSessions() > 4 {
		return false
	}
	for j := 0; j < net.NumLinks(); j++ {
		if net.Capacity(j) > 100 {
			return false
		}
	}
	for i, s := range net.Sessions() {
		if s.NumReceivers() > 4 || (s.MaxRate != netmodel.NoRateCap && s.MaxRate > 100) {
			return false
		}
		if s.LinkRate != nil && s.LinkRate([]float64{1, 1}) > 4 {
			return false
		}
		if w == nil {
			continue
		}
		for _, x := range w[i] {
			if x < 0.25 || x > 4 || (s.Type == netmodel.SingleRate && x != w[i][0]) {
				return false
			}
		}
	}
	return true
}
