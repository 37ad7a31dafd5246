package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz caps: a fuzzed spec that asks for more than this is skipped
// before Compile, so the harness explores the loader and the compiler
// without ever building a large run. The committed specs and sweeps
// fit.
const (
	fuzzMaxSize      = 256     // receivers, nodes, sessions, list lengths
	fuzzMaxPackets   = 1 << 16 // per replication
	fuzzMaxReps      = 8
	fuzzMaxChurn     = 64 // periodic rounds, and explicit events
	fuzzMaxBuffer    = 1024
	fuzzMaxSamples   = 1024
	fuzzMinPeriod    = 0.1 // signal period and probe time window
	fuzzMaxDepth     = 8
	fuzzMaxFatTreeK  = 8
	fuzzMaxSweepRuns = 16 // points compiled per sweep
)

// denseChurnSpec asks for 1e20 churn rounds; Decode must refuse it.
const denseChurnSpec = `{"topology":{"kind":"star","receivers":4},"sessions":[{"protocol":"Deterministic","layers":4}],"packets":100,"churn":{"interval":1e-20,"downtime":1,"horizon":1},"replications":{"n":1},"seed":1}`

// fuzzSeeds adds every committed file matching the globs (relative to
// this package) to f's corpus, plus the extra inputs.
func fuzzSeeds(f *testing.F, globs []string, extra ...string) {
	n := 0
	for _, g := range globs {
		files, err := filepath.Glob(g)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
			n++
		}
	}
	if n == 0 {
		f.Fatalf("no committed files match %v", globs)
	}
	for _, s := range extra {
		f.Add([]byte(s))
	}
}

// tinySpec reports whether s stays under the fuzz caps.
func tinySpec(s *Spec) bool {
	t := &s.Topology
	for _, n := range []int{
		t.Receivers, t.Sessions, t.Nodes, t.Attach, t.MaxReceivers, t.ExtraLinks,
		len(t.FanoutCapacities), len(t.Capacities), len(t.Parent), len(t.ReceiverNodes),
		len(t.LinkCapacities), len(s.Sessions), len(s.Links),
	} {
		if n > fuzzMaxSize {
			return false
		}
	}
	if t.Depth > fuzzMaxDepth || t.K > fuzzMaxFatTreeK {
		return false
	}
	if s.Packets > fuzzMaxPackets || s.Replications.N > fuzzMaxReps {
		return false
	}
	if s.SignalPeriod != 0 && s.SignalPeriod < fuzzMinPeriod {
		return false
	}
	if c := s.Churn; c != nil {
		if len(c.Events) > fuzzMaxChurn || (c.Interval > 0 && c.Horizon/c.Interval > fuzzMaxChurn) {
			return false
		}
	}
	if p := s.Probe; p != nil {
		if p.MaxSamples > fuzzMaxSamples || (p.Window > 0 && p.Window < fuzzMinPeriod) {
			return false
		}
	}
	if s.DefaultLink != nil && s.DefaultLink.Buffer > fuzzMaxBuffer {
		return false
	}
	for _, ov := range s.Links {
		if ov.Buffer > fuzzMaxBuffer {
			return false
		}
	}
	return true
}

// runTiny compiles s and, when it simulates, runs it with one
// replication on one worker. Compile and run errors are valid outcomes
// for fuzzed input; panics and hangs are not.
func runTiny(s *Spec) {
	c, err := Compile(s)
	if err != nil {
		return
	}
	one := *s
	if one.Replications.N > 0 {
		one.Replications = ReplicationSpec{N: 1, Workers: 1}
	}
	c.Spec = &one
	_, _ = RunCompiled(c)
}

// FuzzSpec drives arbitrary bytes through the spec loader: a spec that
// Decode accepts must re-encode to a fixed point (Decode → Encode →
// Decode → Encode gives the same bytes), then compile and run one tiny
// replication without panicking.
//
// Run the seed corpus with the normal test suite, or explore with:
//
//	go test -fuzz FuzzSpec ./internal/scenario
func FuzzSpec(f *testing.F) {
	fuzzSeeds(f, []string{
		filepath.Join("testdata", "*.json"),
		filepath.Join("..", "..", "cmd", "netsim", "testdata", "*.json"),
	}, denseChurnSpec)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := s.Encode(&a); err != nil {
			t.Fatalf("encode of a decoded spec: %v", err)
		}
		s2, err := Decode(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("decode of an encoded spec: %v\n%s", err, a.Bytes())
		}
		if err := s2.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", a.Bytes(), b.Bytes())
		}
		if tinySpec(s2) {
			runTiny(s2)
		}
	})
}

// FuzzSweep drives arbitrary bytes through the sweep loader: a sweep
// that DecodeSweep accepts must expand, and its first points must
// compile, without panicking. Points over the fuzz caps are skipped.
//
//	go test -fuzz FuzzSweep ./internal/scenario
func FuzzSweep(f *testing.F) {
	fuzzSeeds(f, []string{
		filepath.Join("..", "..", "cmd", "netsim", "testdata", "sweeps", "*.json"),
	}, `{"base":`+denseChurnSpec+`,"axes":[{"field":"packets","values":[100,200]}]}`)
	f.Fuzz(func(t *testing.T, raw []byte) {
		sw, err := DecodeSweep(bytes.NewReader(raw))
		if err != nil {
			return
		}
		x, err := sw.Expander()
		if err != nil {
			t.Fatalf("a decoded sweep does not expand: %v", err)
		}
		for id := 0; id < min(x.Len(), fuzzMaxSweepRuns); id++ {
			p, err := x.PointAt(id)
			if err != nil || !tinySpec(p.Spec) {
				continue
			}
			_, _ = Compile(p.Spec)
		}
	})
}
