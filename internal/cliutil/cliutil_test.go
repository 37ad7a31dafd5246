package cliutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRegisterSimDefaultsAndQuick(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterSim(fs, SimDefaults{Receivers: 50, Packets: 50000, Trials: 8, Seed: 777, Quick: true})
	if err := fs.Parse([]string{"-trials", "4", "-workers", "2", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if f.Receivers != 50 || f.Packets != 50000 || f.Trials != 4 || f.Workers != 2 || f.Seed != 777 {
		t.Fatalf("parsed flags %+v", f)
	}
	f.ApplyQuick(10, 10000, 3)
	if f.Receivers != 10 || f.Packets != 10000 || f.Trials != 3 {
		t.Fatalf("quick sizes not applied: %+v", f)
	}
	// Without -quick, ApplyQuick leaves the sizing alone.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	f2 := RegisterSim(fs2, SimDefaults{Receivers: 100, Packets: 100000, Trials: 30, Seed: 1999})
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	f2.ApplyQuick(10, 10000, 3)
	if f2.Receivers != 100 || f2.Packets != 100000 || f2.Trials != 30 {
		t.Fatalf("sizing changed without -quick: %+v", f2)
	}
	// -quick is only registered when asked for; -workers always exists
	// (every declarative binary's sweep path takes a worker budget).
	if fs2.Lookup("quick") != nil {
		t.Fatal("quick registered without being requested")
	}
	if fs2.Lookup("workers") == nil {
		t.Fatal("workers not registered")
	}
}

const testSpec = `{
  "topology": {"kind": "star", "receivers": 3},
  "defaultLink": {"kind": "bernoulli", "loss": 0.05},
  "packets": 1500,
  "replications": {"n": 2, "workers": 2},
  "seed": 11
}
`

const testSweep = `{
  "base": {
    "topology": {"kind": "star", "receivers": 3},
    "defaultLink": {"kind": "bernoulli", "loss": 0.05},
    "packets": 1500,
    "replications": {"n": 2, "workers": 2},
    "seed": 11
  },
  "axes": [{"field": "defaultLink.loss", "values": [0.01, 0.05]}]
}
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDeclarativeRun(t *testing.T) {
	specPath := writeFile(t, "spec.json", testSpec)
	sweepPath := writeFile(t, "sweep.json", testSweep)

	var b strings.Builder
	d := &Declarative{}
	if ran, err := d.Run(&b); ran || err != nil {
		t.Fatalf("empty flags ran: %v %v", ran, err)
	}

	d = &Declarative{Spec: specPath}
	ran, err := d.Run(&b)
	if !ran || err != nil {
		t.Fatalf("spec run: ran=%v err=%v", ran, err)
	}
	if !strings.Contains(b.String(), "receiver goodput") {
		t.Errorf("spec output missing report:\n%s", b.String())
	}

	b.Reset()
	d = &Declarative{Sweep: sweepPath, Format: "csv"}
	ran, err = d.Run(&b)
	if !ran || err != nil {
		t.Fatalf("sweep run: ran=%v err=%v", ran, err)
	}
	if !strings.HasPrefix(b.String(), "defaultLink.loss,goodput_mean") {
		t.Errorf("sweep CSV missing header:\n%s", b.String())
	}
	if got := strings.Count(b.String(), "\n"); got != 3 {
		t.Errorf("sweep CSV has %d lines, want 3:\n%s", got, b.String())
	}

	// Mutually exclusive flags are an error that counts as handled.
	d = &Declarative{Spec: specPath, Sweep: sweepPath}
	if ran, err := d.Run(&b); !ran || err == nil {
		t.Fatalf("spec+sweep: ran=%v err=%v", ran, err)
	}
	// Errors propagate.
	d = &Declarative{Sweep: specPath} // a Spec file is not a Sweep
	if ran, err := d.Run(&b); !ran || err == nil {
		t.Fatalf("bad sweep file: ran=%v err=%v", ran, err)
	}
}

func TestDeclarativeSpecRejectsFormat(t *testing.T) {
	specPath := writeFile(t, "spec.json", testSpec)
	var b strings.Builder
	d := &Declarative{Spec: specPath, Format: "json"}
	if ran, err := d.Run(&b); !ran || err == nil {
		t.Fatalf("-spec with -format json: ran=%v err=%v", ran, err)
	}
	// The registered default ("csv") stays accepted.
	d = &Declarative{Spec: specPath, Format: "csv"}
	if ran, err := d.Run(&b); !ran || err != nil {
		t.Fatalf("-spec with default format: ran=%v err=%v", ran, err)
	}
}

// TestDeclarativeDistributed drives the sweepexec CLI paths: a sharded
// 3-process run whose merged table matches the in-process run byte for
// byte, checkpoint/resume plumbing, and flag validation.
func TestDeclarativeDistributed(t *testing.T) {
	sweepPath := writeFile(t, "sweep.json", testSweep)

	var single strings.Builder
	if ran, err := (&Declarative{Sweep: sweepPath, Format: "csv"}).Run(&single); !ran || err != nil {
		t.Fatalf("single run: ran=%v err=%v", ran, err)
	}

	dir := t.TempDir()
	var shards []string
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.shard", i))
		d := &Declarative{Sweep: sweepPath, Format: "csv", Shard: fmt.Sprintf("%d/3", i), ShardFile: path}
		var b strings.Builder
		if ran, err := d.Run(&b); !ran || err != nil {
			t.Fatalf("shard %d: ran=%v err=%v", i, ran, err)
		}
		if b.Len() != 0 {
			t.Fatalf("shard %d wrote a table to stdout:\n%s", i, b.String())
		}
		shards = append(shards, path)
	}
	var merged strings.Builder
	d := &Declarative{Sweep: sweepPath, Format: "csv", Merge: strings.Join(shards, ",")}
	if ran, err := d.Run(&merged); !ran || err != nil {
		t.Fatalf("merge: ran=%v err=%v", ran, err)
	}
	if merged.String() != single.String() {
		t.Fatalf("merged table differs from single run:\n--- merged ---\n%s--- single ---\n%s", merged.String(), single.String())
	}

	// Checkpoint + resume round trip through the flags.
	ckdir := filepath.Join(t.TempDir(), "ck")
	var b strings.Builder
	if ran, err := (&Declarative{Sweep: sweepPath, Format: "csv", Checkpoint: ckdir}).Run(&b); !ran || err != nil {
		t.Fatalf("checkpointed run: ran=%v err=%v", ran, err)
	}
	if b.String() != single.String() {
		t.Fatal("checkpointed run differs from single run")
	}
	b.Reset()
	if ran, err := (&Declarative{Sweep: sweepPath, Format: "csv", Checkpoint: ckdir, Resume: true}).Run(&b); !ran || err != nil {
		t.Fatalf("resume: ran=%v err=%v", ran, err)
	}
	if b.String() != single.String() {
		t.Fatal("resumed run differs from single run")
	}

	// Validation: distributed flags without -sweep; bad -shard syntax;
	// a sharded table run with nowhere to write its slice.
	if ran, err := (&Declarative{Shard: "0/3"}).Run(&b); !ran || err == nil {
		t.Fatalf("-shard without -sweep: ran=%v err=%v", ran, err)
	}
	for _, bad := range []string{"3", "a/b", "3/3", "-1/3", "0/0"} {
		if _, err := (&Declarative{Sweep: sweepPath, Shard: bad}).Run(&b); err == nil {
			t.Fatalf("-shard %q accepted", bad)
		}
	}
	if _, err := (&Declarative{Sweep: sweepPath, Shard: "0/3"}).Run(&b); err == nil {
		t.Fatal("sharded run without -shardfile accepted")
	}
}

// TestDistributedSweepLoadError: malformed sweep JSON reaching the
// shard/checkpoint path reports with the loader's file:line:col
// prefix, same as a plain -sweep run.
func TestDistributedSweepLoadError(t *testing.T) {
	bad := writeFile(t, "bad.json", "{\n  \"base\": {},\n  \"axes\": [,]\n}\n")
	var b strings.Builder
	_, err := (&Declarative{Sweep: bad, Shard: "0/2", ShardFile: filepath.Join(t.TempDir(), "s.shard")}).Run(&b)
	if err == nil {
		t.Fatal("malformed sweep accepted")
	}
	if !strings.Contains(err.Error(), "bad.json:3:13:") {
		t.Fatalf("error lacks file:line:col: %v", err)
	}
}

// TestDeclarativeWorkersReachSweep: -workers is the budget of a plain
// -sweep run. A sweep of GOMAXPROCS+1 points (at least 3) whose file
// asks for 1 worker runs GOMAXPROCS+1 point workers, as the final
// progress line reports.
func TestDeclarativeWorkersReachSweep(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 1
	seeds := make([]string, max(3, workers))
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	sweepPath := writeFile(t, "sweep.json", fmt.Sprintf(`{
  "base": {
    "topology": {"kind": "star", "receivers": 2},
    "defaultLink": {"kind": "bernoulli", "loss": 0.05},
    "packets": 200,
    "replications": {"n": 1, "workers": 1},
    "seed": 11
  },
  "axes": [{"field": "seed", "values": [%s]}]
}
`, strings.Join(seeds, ", ")))
	o := &Observability{Progress: true}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	var status strings.Builder
	o.progress.W = &status
	var b strings.Builder
	if ran, err := (&Declarative{Sweep: sweepPath, Workers: workers}).RunObserved(&b, o); !ran || err != nil {
		t.Fatalf("sweep run: ran=%v err=%v", ran, err)
	}
	if err := o.Stop(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(status.String()), "\r")
	final := lines[len(lines)-1]
	if !strings.Contains(final, "done in") || !strings.Contains(final, fmt.Sprintf("| %d workers ", workers)) {
		t.Fatalf("final progress line %q does not report %d workers", final, workers)
	}
}

// TestDeclarativeLoadSpecWorkers: a nonzero -workers replaces the
// spec's replications.workers, 0 keeps the file's, and a negative one
// fails validation.
func TestDeclarativeLoadSpecWorkers(t *testing.T) {
	specPath := writeFile(t, "spec.json", testSpec)
	for _, c := range []struct{ flag, want int }{{0, 2}, {1, 1}, {5, 5}} {
		spec, err := (&Declarative{Spec: specPath, Workers: c.flag}).LoadSpec()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Replications.Workers != c.want {
			t.Fatalf("-workers %d: spec runs %d workers, want %d", c.flag, spec.Replications.Workers, c.want)
		}
	}
	if _, err := (&Declarative{Spec: specPath, Workers: -1}).LoadSpec(); err == nil {
		t.Fatal("-workers -1 accepted")
	}
}

// TestDeclarativeRejectsNegativeWorkers: a negative -workers is an
// error on every declarative path, never a silent default budget.
func TestDeclarativeRejectsNegativeWorkers(t *testing.T) {
	specPath := writeFile(t, "spec.json", testSpec)
	sweepPath := writeFile(t, "sweep.json", testSweep)
	for _, d := range []*Declarative{
		{Spec: specPath, Workers: -3},
		{Sweep: sweepPath, Workers: -3},
		{Sweep: sweepPath, Workers: -3, Shard: "0/1"},
		{Sweep: sweepPath, Workers: -3, Checkpoint: filepath.Join(t.TempDir(), "ck")},
	} {
		var b strings.Builder
		if ran, err := d.Run(&b); !ran || err == nil || b.Len() != 0 {
			t.Fatalf("%+v: ran=%v err=%v output %q", *d, ran, err, b.String())
		}
	}
}
