// Command perfbench is the repository's benchmark: it measures how long a
// user waits for a correct persistency-race verdict, end to end and layer
// by layer, on four workloads (see README.md):
//
//	perfbench --workload table3|deep|random-mt|serve --seed N --seconds S --trace 0|1
//
// Every verdict is checked against its known answer. The last line of
// standard output is one JSON object: correct, attempted, failed, and the
// declared metrics — the end-to-end ones with --trace 0, the per-layer
// ones with --trace 1. A full report (every metric, provenance, and with
// --trace 1 the span file) is written under --out.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Seeds recorded with every output: the default seed, and a hold-out seed
// kept for confirming a claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	holdoutSeed = 9973
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// order the result line carries them.
var endToEnd = []string{"setup_s", "peak_rss_mb", "verdicts_per_s", "verdict_ms.p50", "verdict_ms.p75"}

var perLayer = []string{
	"suite.concurrency", "suite.straggler_share", "suite.json_ms", "suite.json_kb",
	"engine.simulated_ops", "engine.executions", "engine.crash_points", "engine.dedup_share",
	"engine.snapshot_mb", "engine.journal_ops", "engine.handoff_share", "engine.ns_per_simop",
	"engine.budget_busy", "engine.self_ms",
	"program.instantiations", "program.setup_ms", "program.worker_ms", "program.recovery_ms",
	"core.detect_share", "tso.ns_per_op", "vclock.epoch_hit_share",
	"runtime.alloc_mb", "runtime.allocs", "runtime.gc_cpu_share", "runtime.sched_latency_us.p90",
	"bench.trace_overhead_share",
}

// watchdog ends a run that has not finished in time.
const watchdog = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	// setupOnly makes the process a set-up probe: it does the workload's
	// set-up, prints nothing and exits.
	setupOnly bool
}

// outcome is what a workload run produced.
type outcome struct {
	tally   tally
	metrics metricSet
	rec     *recorder      // traced runs only
	params  map[string]any // workload parameters for the report
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"table3":    batchWorkloads["table3"].run,
	"deep":      batchWorkloads["deep"].run,
	"random-mt": batchWorkloads["random-mt"].run,
	"serve":     runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the full report")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "do the workload's set-up and exit (a set-up probe)")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		flag.Usage()
		return 2
	}
	o.trace = trace == 1
	// A run that hangs must still end, without a result line.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v\n", o.workload, watchdog)
		os.Exit(1)
	})

	if o.setupOnly {
		// Wrong set-up verdicts are counted by the measured run, which
		// checks the same ones.
		if _, err := w(context.Background(), o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	setups, err := probeSetup(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	out, err := w(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	out.metrics.set("setup_s", median(setups), "s")
	if out.tally.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no verdict attempted\n", o.workload)
		return 1
	}
	out.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	out.metrics.set("error_share", float64(out.tally.failed)/float64(out.tally.attempted), "share")

	if err := writeReport(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		return 1
	}
	printTable(o, out)

	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.tally.failed == 0, out.tally.attempted, out.tally.failed, map[string]metric{}}
	for _, name := range declared {
		if v, ok := out.metrics[name]; ok && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			line.Metrics[name] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// setupProbes is how many fresh processes time the set-up; setup_s is
// their median.
const setupProbes = 5

// probeSetup times the workload's set-up in fresh processes of this
// binary, from start to exit, so that package initialisation and every
// first-use cost count, and returns the times in seconds. A probe that
// cannot set up is an error: the run's own set-up would fail the same way.
func probeSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--setup-only")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// provenance describes where and how a run was made.
func provenance(o options, out *outcome) map[string]any {
	p := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"default_seed": defaultSeed,
		"holdout_seed": holdoutSeed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range out.params {
		p[k] = v
	}
	return p
}

// commit identifies the measured source: BENCH_COMMIT, which run.py sets
// from git, or from a hash of the Go sources in a checkout without git.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeReport writes the full report, and with --trace 1 the spans, under
// o.out.
func writeReport(o options, out *outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	traced := 0
	if o.trace {
		traced = 1
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, traced))
	metrics := map[string]metric{}
	for k, v := range out.metrics {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			metrics[k] = v
		}
	}
	report := map[string]any{
		"provenance": provenance(o, out),
		"attempted":  out.tally.attempted,
		"failed":     out.tally.failed,
		"failures":   out.tally.errors,
		"metrics":    metrics,
	}
	if out.rec != nil {
		spans := base + "-spans.json"
		if err := out.rec.writeFile(spans); err != nil {
			return err
		}
		report["spans"] = spans
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", b, 0o644)
}

// printTable prints every metric to standard error.
func printTable(o options, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v: %d attempted, %d failed\n",
		o.workload, o.seed, o.seconds, o.trace, out.tally.attempted, out.tally.failed)
	for _, e := range out.tally.errors {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", e)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
}
