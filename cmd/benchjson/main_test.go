package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"mlfair/internal/obs"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: mlfair
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNetsimLargeStar-8   286   3999265 ns/op   0.0000894 allocs/event   201378085 events/sec   152488 B/op   72 allocs/op
BenchmarkNetsimParallelRunner   170   7114865 ns/op   191842994 events/sec
PASS
ok  	mlfair	9.192s
some unrelated noise
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env["goos"] != "linux" || doc.Env["cpu"] == "" {
		t.Fatalf("env not captured: %v", doc.Env)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	star := doc.Benchmarks[0]
	if star.Name != "BenchmarkNetsimLargeStar-8" || star.Iterations != 286 {
		t.Fatalf("bad first benchmark: %+v", star)
	}
	if star.GOMAXPROCS != 8 {
		t.Fatalf("GOMAXPROCS = %d, want 8", star.GOMAXPROCS)
	}
	if doc.Benchmarks[1].GOMAXPROCS != 0 {
		t.Fatalf("suffix-less benchmark GOMAXPROCS = %d, want 0", doc.Benchmarks[1].GOMAXPROCS)
	}
	if star.Metrics["events/sec"] != 201378085 {
		t.Fatalf("events/sec = %v", star.Metrics["events/sec"])
	}
	if star.Metrics["allocs/event"] != 0.0000894 {
		t.Fatalf("allocs/event = %v", star.Metrics["allocs/event"])
	}
	if doc.Benchmarks[1].Metrics["ns/op"] != 7114865 {
		t.Fatalf("runner ns/op = %v", doc.Benchmarks[1].Metrics["ns/op"])
	}
}

func TestParseEmptyAndMalformed(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkBroken-8 notanint 12 ns/op\nBenchmarkOdd-8 3 12\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("malformed lines accepted: %+v", doc.Benchmarks)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkNetsimLargeStar-8": "BenchmarkNetsimLargeStar",
		"BenchmarkNetsimLargeStar-2": "BenchmarkNetsimLargeStar",
		"BenchmarkNetsimLargeStar":   "BenchmarkNetsimLargeStar",
		"BenchmarkFoo-bar":           "BenchmarkFoo-bar",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func benchDoc(pairs map[string]float64) *Doc {
	d := &Doc{Env: map[string]string{}}
	for name, v := range pairs {
		d.Benchmarks = append(d.Benchmarks, Bench{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"events/sec": v},
		})
	}
	return d
}

func TestCheckRegression(t *testing.T) {
	baseline := benchDoc(map[string]float64{"BenchmarkA-8": 100, "BenchmarkB-8": 200})

	// Within tolerance at equal core counts: passes.
	rep, failed := checkRegression(baseline, benchDoc(map[string]float64{"BenchmarkA-8": 80, "BenchmarkB-8": 210}), 0.25)
	if failed {
		t.Fatalf("within-tolerance run failed:\n%s", rep)
	}
	// Across core-count suffixes the throughput gate downgrades to a
	// WARNING: even a drop far beyond tolerance must not fail, because
	// a 2-core runner legitimately runs a multi-core benchmark slower
	// than an 8-core baseline.
	rep, failed = checkRegression(baseline, benchDoc(map[string]float64{"BenchmarkA-2": 30, "BenchmarkB-8": 210}), 0.25)
	if failed {
		t.Fatalf("cross-core run mis-gated:\n%s", rep)
	}
	if !strings.Contains(rep, "WARNING    BenchmarkA") || !strings.Contains(rep, "GOMAXPROCS=8") {
		t.Fatalf("cross-core warning missing:\n%s", rep)
	}
	// A >25% drop fails.
	rep, failed = checkRegression(baseline, benchDoc(map[string]float64{"BenchmarkA-8": 74, "BenchmarkB-8": 210}), 0.25)
	if !failed || !strings.Contains(rep, "REGRESSION BenchmarkA") {
		t.Fatalf("regression not flagged:\n%s", rep)
	}
	// A baseline benchmark missing from the run fails.
	rep, failed = checkRegression(baseline, benchDoc(map[string]float64{"BenchmarkA-8": 100}), 0.25)
	if !failed || !strings.Contains(rep, "MISSING    BenchmarkB") {
		t.Fatalf("missing benchmark not flagged:\n%s", rep)
	}
	// A baseline entry without a positive events/sec metric fails the
	// gate: a corrupt or hand-edited baseline must not silently shrink
	// coverage.
	noEv := &Doc{Benchmarks: []Bench{{Name: "BenchmarkC-8", Iterations: 1, Metrics: map[string]float64{"ns/op": 5}}}}
	rep, failed = checkRegression(noEv, benchDoc(nil), 0.25)
	if !failed || !strings.Contains(rep, "BADBASE    BenchmarkC") {
		t.Fatalf("metric-less baseline entry not flagged:\n%s", rep)
	}
	zeroEv := benchDoc(map[string]float64{"BenchmarkD-8": 0})
	rep, failed = checkRegression(zeroEv, benchDoc(map[string]float64{"BenchmarkD-8": 100}), 0.25)
	if !failed || !strings.Contains(rep, "BADBASE    BenchmarkD") {
		t.Fatalf("zero-throughput baseline entry not flagged:\n%s", rep)
	}
}

func allocDoc(pairs map[string]float64) *Doc {
	d := &Doc{Env: map[string]string{}}
	for name, v := range pairs {
		d.Benchmarks = append(d.Benchmarks, Bench{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"allocs/event": v},
		})
	}
	return d
}

// TestDocManifestRoundTrip: a Doc with an embedded manifest survives
// the JSON round trip, and manifest-less documents (the committed
// baseline predating provenance) still load with a nil Manifest.
func TestDocManifestRoundTrip(t *testing.T) {
	man := obs.NewManifest("benchjson")
	in := &Doc{Env: map[string]string{"goos": "linux"}, Manifest: &man, Benchmarks: []Bench{}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Doc
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Manifest == nil || out.Manifest.Tool != "benchjson" || out.Manifest.GoVersion != runtime.Version() {
		t.Fatalf("manifest did not round-trip: %+v", out.Manifest)
	}
	var old Doc
	if err := json.Unmarshal([]byte(`{"env":{},"benchmarks":[]}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Manifest != nil {
		t.Fatalf("manifest-less doc grew a manifest: %+v", old.Manifest)
	}
}

// TestEnvWarnings: go-version and GOARCH mismatches between baseline
// and current produce WARNING lines (never a failure); matching or
// unknown environments stay silent.
func TestEnvWarnings(t *testing.T) {
	man := func(goVersion, goarch string) *obs.Manifest {
		return &obs.Manifest{GoVersion: goVersion, GOARCH: goarch}
	}
	cur := &Doc{Env: map[string]string{}, Manifest: man("go1.24.0", "amd64")}

	if w := envWarnings(&Doc{Env: map[string]string{}, Manifest: man("go1.24.0", "amd64")}, cur); w != "" {
		t.Fatalf("matching envs warned:\n%s", w)
	}
	w := envWarnings(&Doc{Env: map[string]string{}, Manifest: man("go1.22.1", "arm64")}, cur)
	if !strings.Contains(w, "WARNING") || !strings.Contains(w, "go1.22.1") || !strings.Contains(w, "arm64") {
		t.Fatalf("mismatched env not warned:\n%s", w)
	}
	// A manifest-less baseline falls back to the env header for GOARCH
	// and skips the go-version comparison entirely.
	w = envWarnings(&Doc{Env: map[string]string{"goarch": "arm64"}}, cur)
	if strings.Contains(w, "go1") {
		t.Fatalf("go version warned without baseline data:\n%s", w)
	}
	if !strings.Contains(w, "arm64") {
		t.Fatalf("env-header goarch mismatch not warned:\n%s", w)
	}
	if w := envWarnings(&Doc{Env: map[string]string{}}, cur); w != "" {
		t.Fatalf("unknown baseline env warned:\n%s", w)
	}
}

func TestParseOverhead(t *testing.T) {
	specs, err := parseOverhead("BenchmarkAInstrumented=BenchmarkA:0.02, BenchmarkB2=BenchmarkB:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].instr != "BenchmarkAInstrumented" ||
		specs[0].base != "BenchmarkA" || specs[0].maxFrac != 0.02 || specs[1].maxFrac != 0.1 {
		t.Fatalf("parsed %+v", specs)
	}
	if specs, err := parseOverhead(""); err != nil || specs != nil {
		t.Fatalf("empty spec: %v %v", specs, err)
	}
	for _, bad := range []string{"BenchmarkA:0.02", "BenchmarkA=BenchmarkB", "A=B:1.5", "A=B:x"} {
		if _, err := parseOverhead(bad); err == nil {
			t.Errorf("parseOverhead(%q) accepted", bad)
		}
	}
}

func overheadDoc(pairs map[string][2]float64) *Doc {
	d := &Doc{Env: map[string]string{}}
	for name, v := range pairs {
		d.Benchmarks = append(d.Benchmarks, Bench{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"events/sec": v[0], "allocs/event": v[1]},
		})
	}
	return d
}

func TestCheckOverhead(t *testing.T) {
	specs := []overheadSpec{{instr: "BenchmarkAInstrumented", base: "BenchmarkA", maxFrac: 0.02}}

	// Within budget (1% slower, same allocs): passes across -N suffixes.
	rep, failed := checkOverhead(overheadDoc(map[string][2]float64{
		"BenchmarkA-8": {100e6, 0.0001}, "BenchmarkAInstrumented-8": {99e6, 0.0001},
	}), specs)
	if failed {
		t.Fatalf("within-budget pair failed:\n%s", rep)
	}
	// 5% slower with a 2% budget fails.
	rep, failed = checkOverhead(overheadDoc(map[string][2]float64{
		"BenchmarkA-8": {100e6, 0.0001}, "BenchmarkAInstrumented-8": {95e6, 0.0001},
	}), specs)
	if !failed || !strings.Contains(rep, "OVERHEAD") {
		t.Fatalf("throughput overhead not flagged:\n%s", rep)
	}
	// Added per-event allocations fail even when throughput holds.
	rep, failed = checkOverhead(overheadDoc(map[string][2]float64{
		"BenchmarkA-8": {100e6, 0.0001}, "BenchmarkAInstrumented-8": {100e6, 0.01},
	}), specs)
	if !failed || !strings.Contains(rep, "ALLOCS") {
		t.Fatalf("alloc overhead not flagged:\n%s", rep)
	}
	// Either twin missing from the run fails — a renamed benchmark must
	// not silently disable the gate.
	rep, failed = checkOverhead(overheadDoc(map[string][2]float64{"BenchmarkA-8": {100e6, 0}}), specs)
	if !failed || !strings.Contains(rep, "MISSING    BenchmarkAInstrumented") {
		t.Fatalf("missing instrumented twin not flagged:\n%s", rep)
	}
	// No specs: trivially green.
	if rep, failed := checkOverhead(overheadDoc(nil), nil); failed {
		t.Fatalf("empty overhead gate failed:\n%s", rep)
	}
}

func TestCheckAllocs(t *testing.T) {
	// Under budget: passes.
	rep, failed := checkAllocs(allocDoc(map[string]float64{"BenchmarkA-8": 0.001, "BenchmarkB-8": 0.019}), 0.02)
	if failed {
		t.Fatalf("under-budget run failed:\n%s", rep)
	}
	// Over budget fails — including for benchmarks absent from any
	// baseline (new benchmarks must not leak per-event allocations).
	rep, failed = checkAllocs(allocDoc(map[string]float64{"BenchmarkA-8": 0.001, "BenchmarkNew-8": 0.5}), 0.02)
	if !failed || !strings.Contains(rep, "ALLOCS") || !strings.Contains(rep, "BenchmarkNew") {
		t.Fatalf("alloc overage not flagged:\n%s", rep)
	}
	// Benchmarks without the metric are ignored.
	noMetric := &Doc{Benchmarks: []Bench{{Name: "BenchmarkC-8", Iterations: 1, Metrics: map[string]float64{"ns/op": 5}}}}
	if rep, failed := checkAllocs(noMetric, 0.02); failed {
		t.Fatalf("metric-less benchmark failed the alloc gate:\n%s", rep)
	}
}

func rssDoc(pairs map[string]float64) *Doc {
	d := &Doc{Env: map[string]string{}}
	for name, v := range pairs {
		d.Benchmarks = append(d.Benchmarks, Bench{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"peak-RSS-bytes": v},
		})
	}
	return d
}

func TestCheckRSS(t *testing.T) {
	// Under budget: passes.
	rep, failed := checkRSS(rssDoc(map[string]float64{"BenchmarkA-8": 1 << 30}), 2<<30)
	if failed {
		t.Fatalf("under-budget run failed:\n%s", rep)
	}
	// Over budget fails.
	rep, failed = checkRSS(rssDoc(map[string]float64{"BenchmarkA-8": 3 << 30}), 2<<30)
	if !failed || !strings.Contains(rep, "RSS") || !strings.Contains(rep, "BenchmarkA") {
		t.Fatalf("RSS overage not flagged:\n%s", rep)
	}
	// Budget 0 disables the gate entirely.
	if rep, failed := checkRSS(rssDoc(map[string]float64{"BenchmarkA-8": 3 << 30}), 0); failed || rep != "" {
		t.Fatalf("disabled RSS gate produced output:\n%s", rep)
	}
	// Benchmarks without the metric are ignored.
	noMetric := &Doc{Benchmarks: []Bench{{Name: "BenchmarkC-8", Iterations: 1, Metrics: map[string]float64{"ns/op": 5}}}}
	if rep, failed := checkRSS(noMetric, 2<<30); failed {
		t.Fatalf("metric-less benchmark failed the RSS gate:\n%s", rep)
	}
}

// TestEnvWarningsNumCPU: a host-CPU-count mismatch between manifests
// warns (multi-core throughput is machine-size dependent) but never
// fails by itself.
func TestEnvWarningsNumCPU(t *testing.T) {
	base := &Doc{Env: map[string]string{}, Manifest: &obs.Manifest{NumCPU: 8}}
	cur := &Doc{Env: map[string]string{}, Manifest: &obs.Manifest{NumCPU: 2}}
	if rep := envWarnings(base, cur); !strings.Contains(rep, "8 CPUs") || !strings.Contains(rep, "WARNING") {
		t.Fatalf("CPU-count mismatch not warned:\n%s", rep)
	}
	cur.Manifest.NumCPU = 8
	if rep := envWarnings(base, cur); strings.Contains(rep, "CPUs") {
		t.Fatalf("equal CPU counts warned:\n%s", rep)
	}
}
