// Command benchjson converts `go test -bench` text output on stdin
// into a machine-readable JSON document on stdout, for CI artifacts
// (BENCH_netsim.json) and regression dashboards.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkNetsim -benchmem . | go run ./cmd/benchjson > BENCH_netsim.json
//	go test -run '^$' -bench BenchmarkNetsim -benchmem . | go run ./cmd/benchjson -check BENCH_netsim.json
//
// Every benchmark result line ("BenchmarkX-8  N  v1 unit1  v2 unit2 ...")
// becomes an entry with its iteration count and a unit-keyed metric
// map; goos/goarch/pkg/cpu header lines become the env map. Unknown
// lines are ignored, so the tool is safe to feed full `go test` output.
//
// With -check, the parsed run is additionally compared against a
// committed baseline document: the gate fails (exit 1) when any
// baseline benchmark's events/sec throughput regresses by more than
// -max-regress (default 0.25), when any benchmark reporting
// allocs/event exceeds the absolute -max-allocs-per-event budget
// (default 0.02 — the hot path must stay allocation-free even as
// probe hooks and other instrumentation land), when any benchmark
// reporting peak-RSS-bytes exceeds the absolute -max-rss-bytes budget
// (0 disables — the planetary-scale memory gate), when a baseline
// benchmark disappears from the run entirely, or when a baseline
// entry carries no positive events/sec metric (a corrupt baseline
// must not silently shrink the gate's coverage). Benchmark names are
// compared with the -GOMAXPROCS suffix stripped, so a baseline
// travels across machines with different core counts; when the suffix
// differs between baseline and run, that benchmark's throughput
// comparison downgrades to a WARNING (multi-core events/sec scales
// with the core count — a smaller runner must not mis-gate), while
// the absolute allocs and RSS budgets still apply. When the baseline
// was produced under a different go version, GOARCH, or host CPU
// count the check still runs but prints a WARNING first — absolute
// throughput comparisons across toolchains, architectures, or
// machine sizes are advisory, not authoritative.
//
// -overhead gates instrumentation cost within the current run alone,
// independent of any baseline (and usable without -check): each
// "Instr=Base:frac" pair requires the instrumented benchmark to hold
// at least (1-frac) of its base twin's events/sec and to add no
// per-event allocations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mlfair/internal/obs"
)

// Bench is one benchmark result. GOMAXPROCS is the parallelism the
// benchmark ran under, recovered from the -N name suffix (0 when the
// name carries none) — recorded per entry because multi-core
// benchmarks' events/sec is only comparable at equal core counts.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the emitted document. Manifest carries run provenance (go
// version, host CPU, VCS revision) so a committed baseline records
// where its numbers came from; older documents without one still load.
type Doc struct {
	Env        map[string]string `json:"env"`
	Manifest   *obs.Manifest     `json:"manifest,omitempty"`
	Benchmarks []Bench           `json:"benchmarks"`
}

func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Env: map[string]string{}, Benchmarks: []Bench{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "goos" || k == "goarch" || k == "pkg" || k == "cpu") {
			doc.Env[k] = v
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		_, b.GOMAXPROCS = splitProcs(fields[0])
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// splitProcs splits a benchmark name into its base name and the
// trailing -GOMAXPROCS suffix ("BenchmarkNetsimLargeStar-8" →
// "BenchmarkNetsimLargeStar", 8); procs is 0 when the name carries no
// numeric suffix.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 0
}

// normalizeName strips the trailing -GOMAXPROCS suffix from a
// benchmark name ("BenchmarkNetsimLargeStar-8" →
// "BenchmarkNetsimLargeStar").
func normalizeName(name string) string {
	base, _ := splitProcs(name)
	return base
}

// checkRegression compares the current run's events/sec throughput
// against the baseline and returns a per-benchmark report plus whether
// the gate fails: a benchmark regresses when its throughput drops
// below (1 - maxRegress) of the baseline, and a baseline benchmark
// missing from the run is a failure too (a silently deleted benchmark
// must not pass the gate). When the two runs executed a benchmark at
// different GOMAXPROCS (the -N name suffix), the throughput comparison
// is a WARNING instead of a gate — a multi-core benchmark's events/sec
// scales with the core count, so a 4-core runner must not flag a
// "regression" against an 8-core baseline (the absolute allocs and RSS
// gates still apply; they are core-count independent).
func checkRegression(baseline, current *Doc, maxRegress float64) (string, bool) {
	type entry struct {
		v     float64
		procs int
	}
	cur := map[string]entry{}
	for _, b := range current.Benchmarks {
		if v, ok := b.Metrics["events/sec"]; ok {
			name, procs := splitProcs(b.Name)
			cur[name] = entry{v, procs}
		}
	}
	var rep strings.Builder
	failed := false
	for _, base := range baseline.Benchmarks {
		want, ok := base.Metrics["events/sec"]
		name, baseProcs := splitProcs(base.Name)
		if !ok || want <= 0 {
			// A baseline entry without a positive throughput metric is a
			// corrupt or hand-edited document; skipping it would silently
			// shrink the gate's coverage.
			fmt.Fprintf(&rep, "BADBASE    %s: baseline entry has no positive events/sec metric\n", name)
			failed = true
			continue
		}
		got, ok := cur[name]
		if !ok {
			fmt.Fprintf(&rep, "MISSING    %s: in baseline, absent from this run\n", name)
			failed = true
			continue
		}
		if baseProcs > 0 && got.procs > 0 && baseProcs != got.procs {
			fmt.Fprintf(&rep, "WARNING    %s: baseline at GOMAXPROCS=%d, this run at %d: %.4g -> %.4g events/sec (%+.1f%%) not gated\n",
				name, baseProcs, got.procs, want, got.v, (got.v/want-1)*100)
			continue
		}
		status := "ok"
		if got.v < want*(1-maxRegress) {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(&rep, "%-10s %s: %.4g -> %.4g events/sec (%+.1f%%)\n",
			status, name, want, got.v, (got.v/want-1)*100)
	}
	return rep.String(), failed
}

// checkAllocs gates allocs/event absolutely: every benchmark in the
// current run that reports the metric must stay at or below the
// budget. The gate reads the current run (not just the baseline) on
// purpose — a freshly added benchmark that leaks per-event allocations
// must fail before it ever becomes a baseline.
func checkAllocs(current *Doc, maxAllocs float64) (string, bool) {
	var rep strings.Builder
	failed := false
	for _, b := range current.Benchmarks {
		got, ok := b.Metrics["allocs/event"]
		if !ok {
			continue
		}
		status := "ok"
		if got > maxAllocs {
			status = "ALLOCS"
			failed = true
		}
		fmt.Fprintf(&rep, "%-10s %s: %.4g allocs/event (budget %.4g)\n",
			status, normalizeName(b.Name), got, maxAllocs)
	}
	return rep.String(), failed
}

// checkRSS gates peak-RSS-bytes absolutely, like checkAllocs: every
// benchmark in the current run that reports the metric must stay at or
// below the byte budget. The metric is the kernel's per-process peak
// (obs.ReadPeakRSS), so later benchmarks inherit earlier ones' high
// water — the planetary suite orders its benchmarks smallest-first and
// budgets the largest. 0 disables the gate.
func checkRSS(current *Doc, maxRSS int64) (string, bool) {
	if maxRSS <= 0 {
		return "", false
	}
	var rep strings.Builder
	failed := false
	for _, b := range current.Benchmarks {
		got, ok := b.Metrics["peak-RSS-bytes"]
		if !ok {
			continue
		}
		status := "ok"
		if got > float64(maxRSS) {
			status = "RSS"
			failed = true
		}
		fmt.Fprintf(&rep, "%-10s %s: %.0f peak-RSS-bytes (budget %d)\n",
			status, normalizeName(b.Name), got, maxRSS)
	}
	return rep.String(), failed
}

// envWarnings compares the baseline's recorded environment (manifest
// when present, env header as fallback) against the current run's and
// returns WARNING lines for go-version or GOARCH mismatches. These
// warn rather than fail: absolute throughput numbers measured under a
// different toolchain or architecture are a weaker signal, but the
// relative gates are still worth running.
func envWarnings(baseline, current *Doc) string {
	baseGo, baseArch := "", baseline.Env["goarch"]
	if baseline.Manifest != nil {
		baseGo = baseline.Manifest.GoVersion
		if baseline.Manifest.GOARCH != "" {
			baseArch = baseline.Manifest.GOARCH
		}
	}
	curGo, curArch := "", current.Env["goarch"]
	if current.Manifest != nil {
		curGo = current.Manifest.GoVersion
		if current.Manifest.GOARCH != "" {
			curArch = current.Manifest.GOARCH
		}
	}
	var rep strings.Builder
	if baseGo != "" && curGo != "" && baseGo != curGo {
		fmt.Fprintf(&rep, "WARNING    baseline built with %s, this run with %s: throughput comparison is advisory\n", baseGo, curGo)
	}
	if baseArch != "" && curArch != "" && baseArch != curArch {
		fmt.Fprintf(&rep, "WARNING    baseline measured on %s, this run on %s: throughput comparison is advisory\n", baseArch, curArch)
	}
	if baseline.Manifest != nil && current.Manifest != nil &&
		baseline.Manifest.NumCPU > 0 && current.Manifest.NumCPU > 0 &&
		baseline.Manifest.NumCPU != current.Manifest.NumCPU {
		fmt.Fprintf(&rep, "WARNING    baseline host had %d CPUs, this host has %d: multi-core throughput comparison is advisory\n",
			baseline.Manifest.NumCPU, current.Manifest.NumCPU)
	}
	return rep.String()
}

// overheadSpec is one parsed -overhead pair: the instrumented
// benchmark must hold at least (1-maxFrac) of the base benchmark's
// events/sec within the same run.
type overheadSpec struct {
	instr, base string
	maxFrac     float64
}

// parseOverhead parses a comma-separated list of "Instr=Base:frac"
// pairs ("BenchmarkXInstrumented=BenchmarkX:0.02").
func parseOverhead(s string) ([]overheadSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []overheadSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		instr, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("overhead spec %q: want Instr=Base:frac", part)
		}
		base, fracStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("overhead spec %q: want Instr=Base:frac", part)
		}
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil || frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("overhead spec %q: bad fraction %q", part, fracStr)
		}
		specs = append(specs, overheadSpec{instr: instr, base: base, maxFrac: frac})
	}
	return specs, nil
}

// overheadAllocsEpsilon bounds how much allocs/event the instrumented
// twin may add over its base. The stats flush is a handful of atomic
// adds once per run, so the true delta is zero; the epsilon only
// absorbs measurement noise from differing events/op denominators.
const overheadAllocsEpsilon = 1e-4

// checkOverhead gates instrumented-vs-base benchmark pairs within the
// current run: both twins measured on the same machine in the same
// invocation, so the comparison is machine-independent and needs no
// committed baseline. A pair with either side missing fails — the gate
// must not silently pass because a benchmark was renamed away.
func checkOverhead(current *Doc, specs []overheadSpec) (string, bool) {
	byName := map[string]Bench{}
	for _, b := range current.Benchmarks {
		byName[normalizeName(b.Name)] = b
	}
	var rep strings.Builder
	failed := false
	for _, sp := range specs {
		instr, iok := byName[normalizeName(sp.instr)]
		base, bok := byName[normalizeName(sp.base)]
		if !iok || !bok {
			for name, ok := range map[string]bool{sp.instr: iok, sp.base: bok} {
				if !ok {
					fmt.Fprintf(&rep, "MISSING    %s: required by -overhead, absent from this run\n", normalizeName(name))
				}
			}
			failed = true
			continue
		}
		iv, bv := instr.Metrics["events/sec"], base.Metrics["events/sec"]
		if bv <= 0 {
			fmt.Fprintf(&rep, "MISSING    %s: no events/sec metric for -overhead base\n", normalizeName(sp.base))
			failed = true
			continue
		}
		status := "ok"
		if iv < bv*(1-sp.maxFrac) {
			status = "OVERHEAD"
			failed = true
		}
		fmt.Fprintf(&rep, "%-10s %s vs %s: %.4g -> %.4g events/sec (%+.1f%%, budget -%.1f%%)\n",
			status, normalizeName(sp.instr), normalizeName(sp.base), bv, iv, (iv/bv-1)*100, sp.maxFrac*100)
		ia, iok2 := instr.Metrics["allocs/event"]
		ba := base.Metrics["allocs/event"]
		if iok2 && ia > ba+overheadAllocsEpsilon {
			fmt.Fprintf(&rep, "ALLOCS     %s: %.4g allocs/event vs base %.4g (instrumentation must not allocate)\n",
				normalizeName(sp.instr), ia, ba)
			failed = true
		}
	}
	return rep.String(), failed
}

func main() {
	check := flag.String("check", "", "baseline JSON document to gate events/sec regressions against")
	overhead := flag.String("overhead", "", "comma-separated Instr=Base:frac pairs gating instrumented overhead within this run (independent of -check)")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated fractional events/sec regression vs the baseline")
	maxAllocs := flag.Float64("max-allocs-per-event", 0.02, "absolute allocs/event budget for every benchmark reporting the metric (with -check)")
	maxRSS := flag.Int64("max-rss-bytes", 0, "absolute peak-RSS-bytes budget for every benchmark reporting the metric (with -check; 0 disables)")
	flag.Parse()
	overheads, err := parseOverhead(*overhead)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	man := obs.NewManifest("benchjson")
	doc.Manifest = &man
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// The gates are independent: -check compares against a committed
	// baseline (and brings the allocs budget with it), while -overhead
	// compares twin benchmarks within this run alone.
	var failed, allocFailed, rssFailed bool
	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var baseline Doc
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, envWarnings(&baseline, doc))
		var report string
		report, failed = checkRegression(&baseline, doc, *maxRegress)
		fmt.Fprint(os.Stderr, report)
		var allocReport string
		allocReport, allocFailed = checkAllocs(doc, *maxAllocs)
		fmt.Fprint(os.Stderr, allocReport)
		var rssReport string
		rssReport, rssFailed = checkRSS(doc, *maxRSS)
		fmt.Fprint(os.Stderr, rssReport)
	}
	overReport, overFailed := checkOverhead(doc, overheads)
	fmt.Fprint(os.Stderr, overReport)
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: events/sec regression gate failed (max tolerated %.0f%%)\n", *maxRegress*100)
	}
	if allocFailed {
		fmt.Fprintf(os.Stderr, "benchjson: allocs/event gate failed (budget %g)\n", *maxAllocs)
	}
	if rssFailed {
		fmt.Fprintf(os.Stderr, "benchjson: peak-RSS gate failed (budget %d bytes)\n", *maxRSS)
	}
	if overFailed {
		fmt.Fprintf(os.Stderr, "benchjson: instrumented-overhead gate failed\n")
	}
	if failed || allocFailed || rssFailed || overFailed {
		os.Exit(1)
	}
}
