// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process for a fixed time, as a closed loop of
// batch jobs one at a time, and prints every metric BENCHMARK.json
// names for that mode as a JSON object on its last output line.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload sweep-lossy --seed 1 --seconds 20 --trace 0
//
// The first job of a run is the workload's committed job (committed
// seed and size), checked byte for byte against the committed golden
// where one exists, and left out of the timings: it also absorbs the
// process's cold start. The timed jobs that follow run the
// workload at the given seed and are checked against invariants (or
// the golden, when the seed and size are the committed ones). With
// --trace 0 the run reports the end-to-end metrics, medians over its
// timed jobs; with --trace 1 it alternates untraced and traced jobs and
// reports the per-layer metrics, medians over its traced jobs, and the
// tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runDeadline bounds one whole run: a hung job must not keep the
// benchmark from exiting within three minutes.
const runDeadline = 170 * time.Second

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	root     string
	work     string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, " | "))
	fs.Uint64Var(&o.seed, "seed", committedSeed, "seed the timed jobs' inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting timed jobs")
	trace := fs.Int("trace", 0, "1 runs traced jobs and reports the per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every input and skip the committed job (for the benchmark's own tests)")
	fs.StringVar(&o.root, "root", ".", "repository checkout")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for checkpoint directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	bench, err := loadBenchmark(o.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Past runDeadline the run fails without printing a result.
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded", runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()
	res := runWorkload(o, stderr)
	wanted := bench.EndToEnd
	if o.trace {
		wanted = bench.PerLayer
	}
	return report(stdout, stderr, res, wanted)
}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metrics it must print, with their units.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "netsim", "testdata", "planetary.golden.out")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runResult is one run's tally and its metrics by name.
type runResult struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	jobs              int
}

// runWorkload runs the workload in this process: the committed job
// first, then timed jobs until the run's time is up, one at a time.
// It reduces their records to the run's metrics.
func runWorkload(o options, log io.Writer) *runResult {
	res := &runResult{}
	spec := jobSpec{Workload: o.workload, Seed: o.seed, Tiny: o.tiny, Root: o.root, Work: o.work}
	tally := func(r record) {
		res.attempted += r.Attempted
		res.failed += r.Failed
		res.problems = append(res.problems, r.Problems...)
	}
	if !o.tiny {
		committed := spec
		committed.Golden = true
		tally(runJob(committed))
	}
	var plain, traced []record
	var setups []float64
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= 1 && (!o.trace || len(traced) >= 1)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		// Every job starts from a collected heap, so garbage an earlier
		// job left behind is not collected on a later job's time.
		runtime.GC()
		spec.Trace = o.trace && i%2 == 1
		r := runJob(spec)
		fmt.Fprintf(log, "perfbench: job %d traced=%v wall %.4fs setup %.5fs events %d\n",
			i, spec.Trace, r.Wall, r.Setup, r.Events)
		tally(r)
		if spec.Trace {
			traced = append(traced, r)
			continue
		}
		plain = append(plain, r)
		setups = append(setups, r.Setup)
		if !o.trace {
			setupOnly := spec
			setupOnly.SetupOnly = true
			for k := 0; k < setupRepeats[o.workload]; k++ {
				setups = append(setups, runJob(setupOnly).Setup)
			}
		}
	}
	res.jobs = len(plain) + len(traced)
	res.metrics = map[string]float64{}
	pick := func(rs []record, f func(record) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	if !o.trace {
		res.metrics["wall_s"] = pick(plain, func(r record) float64 { return r.Wall })
		res.metrics["setup_s"] = median(setups)
		res.metrics["events_per_s"] = pick(plain, func(r record) float64 { return float64(r.Events) / (r.Wall - r.Setup) })
		res.metrics["peak_rss_bytes"] = float64(peakRSS())
		return res
	}
	for name := range traced[0].Layers {
		res.metrics[name] = pick(traced, func(r record) float64 { return r.Layers[name] })
	}
	res.metrics["trace.untraced_wall_s"] = pick(plain, func(r record) float64 { return r.Wall })
	res.metrics["trace.overhead_s"] = res.metrics["trace.wall_s"] - res.metrics["trace.untraced_wall_s"]
	return res
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints a readable summary and then the result object as the
// last line. A metric BENCHMARK.json names that the run did not
// produce is an error: nothing is printed on stdout and the exit code
// is 1.
func report(stdout, stderr io.Writer, res *runResult, wanted []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var summary strings.Builder
	for _, d := range wanted {
		v, ok := res.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(&summary, "%-36s %.6g %s\n", d.Name, v, d.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%d jobs, %d operations, %d failed\n%s\n", summary.String(), res.jobs, res.attempted, res.failed, b)
	return 0
}
