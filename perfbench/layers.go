package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"yashme/internal/engine"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// resultCounters reads a suite result's counters through its JSON keys —
// executions, crash points, every engine.Stats counter as "stats.<key>",
// window points — so a counter the engine stops emitting makes its metric
// absent instead of breaking the build. It also returns each run's
// elapsed_ns.
func resultCounters(body []byte) (map[string]float64, []float64, error) {
	var doc struct {
		Benchmarks []struct {
			Runs []struct {
				Executions  float64            `json:"executions"`
				CrashPoints float64            `json:"crash_points"`
				ElapsedNs   float64            `json:"elapsed_ns"`
				Stats       map[string]float64 `json:"stats"`
				Window      []struct {
					Races int `json:"races"`
				} `json:"window"`
			} `json:"runs"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, fmt.Errorf("decode result: %w", err)
	}
	c := map[string]float64{}
	var elapsed []float64
	for _, b := range doc.Benchmarks {
		for _, r := range b.Runs {
			c["executions"] += r.Executions
			c["crash_points"] += r.CrashPoints
			for k, v := range r.Stats {
				c["stats."+k] += v
			}
			for _, w := range r.Window {
				c["window_points"]++
				if w.Races > 0 {
					c["window_revealing"]++
				}
			}
			elapsed = append(elapsed, r.ElapsedNs)
		}
	}
	return c, elapsed, nil
}

// statsCounters reads an engine.Stats through its JSON keys.
func statsCounters(s engine.Stats) map[string]float64 {
	b, err := json.Marshal(s)
	if err != nil { // a struct of integers cannot fail to encode
		panic(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		panic(err)
	}
	return m
}

// engineOptions mirrors the suite's races variant for one spec (Table 3
// model checking, or Table 4's 40 random executions) with otherwise
// default options, for the paired detector-on/off engine runs.
func engineOptions(spec workload.Spec, seed int64, analyses []string, budget *engine.Budget) engine.Options {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, Budget: budget, Workers: budget.Size(), Analyses: analyses}
	if !spec.HasTag(workload.TagTable3) {
		opts.Mode, opts.Seed, opts.Executions = engine.RandomMode, 1, 40
	}
	if seed != 0 {
		opts.Seed = seed
	}
	return opts
}

// layerAcc accumulates the per-layer figures of a traced run.
type layerAcc struct {
	rec *recorder

	// untraced and traced verdict wall times (ms) of the paired inputs.
	untraced, traced []float64
	// counters sums resultCounters over traced verdicts.
	counters map[string]float64
	// suite layer: Σ run elapsed, Σ slowest run ÷ verdict wall, JSON cost.
	runElapsedNs, stragglerShare float64
	jsonMs, jsonKB               float64
	budgetBusy                   float64
	// program layer and engine self time, summed over traced verdicts.
	prog programBreakdown
	// runtime allocation around the untraced verdicts.
	allocBytes, allocObjects float64
	// detector-on/off pairs.
	onNs, offNs, offOps float64
	// runtime over the whole measured phase.
	gcShare, schedP90us float64
}

func newLayerAcc(rec *recorder) *layerAcc {
	return &layerAcc{rec: rec, counters: map[string]float64{}}
}

// pairedInput measures one input three ways: once untraced (timed as the
// untraced run times it, with allocation sampled around it), once traced
// with wrapped program callbacks, and as detector-on/off engine pairs.
// The order of the first two alternates with i.
func (a *layerAcc) pairedInput(ctx context.Context, budget *engine.Budget, i int, cfg suite.Config, check func(*suite.Result) error, t *tally, what string) {
	specs := cfg.Specs
	untraced := func() {
		r0 := readRuntime()
		_, d, err := runVerdict(ctx, cfg, check)
		r1 := readRuntime()
		t.record(what, err)
		a.untraced = append(a.untraced, ms(d))
		a.allocBytes += r1.allocBytes - r0.allocBytes
		a.allocObjects += r1.allocObjects - r0.allocObjects
	}
	if i%2 == 0 {
		untraced()
	}
	t.record(what+" (traced)", a.tracedVerdict(ctx, budget, cfg, check))
	if i%2 == 1 {
		untraced()
	}
	if err := a.detectorPair(budget, specs, cfg.Seed, cfg.Analyses, i%2 == 0); err != nil {
		t.record(what+" (detector pair)", err)
	}
}

// tracedVerdict runs one verdict inside a suite.RunContext span, with the
// program callbacks wrapped in child spans and the budget sampled.
func (a *layerAcc) tracedVerdict(ctx context.Context, budget *engine.Budget, cfg suite.Config, check func(*suite.Result) error) error {
	id := a.rec.start("suite.RunContext", 0)
	cfg.Specs = wrapSpecs(a.rec, id, cfg.Specs)
	sampler := startBusySampler(budget)
	res, d, err := runVerdict(ctx, cfg, check)
	a.budgetBusy += sampler.Stop()
	a.rec.end(id)
	if res == nil {
		return err
	}
	a.traced = append(a.traced, ms(d))

	spans := a.rec.from(id)
	b := breakdown(spans[0], spans[1:])
	a.prog.instantiations += b.instantiations
	a.prog.setup += b.setup
	a.prog.worker += b.worker
	a.prog.recovery += b.recovery
	a.prog.self += b.self

	start := time.Now()
	body, jerr := res.Canonical().JSON()
	a.jsonMs += ms(time.Since(start))
	a.jsonKB += float64(len(body)) / 1024
	if jerr != nil {
		return jerr
	}
	raw, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	c, elapsed, jerr := resultCounters(raw)
	if jerr != nil {
		return jerr
	}
	for k, v := range c {
		a.counters[k] += v
	}
	slowest := 0.0
	for _, e := range elapsed {
		a.runElapsedNs += e
		slowest = max(slowest, e)
	}
	a.stragglerShare += slowest / float64(d.Nanoseconds())
	return err
}

// detectorPair runs every spec through engine.Run with the detector on and
// off (the paper's Jaaru column), in the given order.
func (a *layerAcc) detectorPair(budget *engine.Budget, specs []workload.Spec, seed int64, analyses []string, onFirst bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	for _, spec := range specs {
		on := engineOptions(spec, seed, analyses, budget)
		off := on
		off.DetectorOff = true
		timed := func(o engine.Options) (time.Duration, *engine.Result) {
			start := time.Now()
			r := engine.Run(spec.Make, o)
			return time.Since(start), r
		}
		var dOn, dOff time.Duration
		var rOff *engine.Result
		if onFirst {
			dOn, _ = timed(on)
			dOff, rOff = timed(off)
		} else {
			dOff, rOff = timed(off)
			dOn, _ = timed(on)
		}
		a.onNs += float64(dOn.Nanoseconds())
		a.offNs += float64(dOff.Nanoseconds())
		a.offOps += statsCounters(rOff.Stats)["simulated_ops"]
	}
	return nil
}

// runtimePhase records the runtime's GC CPU share and scheduling latency
// over the measured phase.
func (a *layerAcc) runtimePhase(r0, r1 rtSample) {
	a.gcShare = ratio(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)
	a.schedP90us = schedP90us(r0, r1)
}

// report adds the per-layer metrics to m. Counters the engine no longer
// emits are left out.
func (a *layerAcc) report(m metricSet) {
	n := float64(len(a.traced))
	if n == 0 {
		return
	}
	c := a.counters
	perVerdict := func(name, key, unit string, scale float64) {
		if v, ok := c[key]; ok {
			m.set(name, v/n*scale, unit)
		}
	}
	share := func(name, num, den string) {
		if v, ok := c[num]; ok {
			if d, ok := c[den]; ok {
				m.set(name, ratio(v, d), "share")
			}
		}
	}
	tracedMs, untracedMs := sum(a.traced), sum(a.untraced)

	m.set("suite.concurrency", ratio(a.runElapsedNs/1e6, tracedMs), "x")
	m.set("suite.straggler_share", a.stragglerShare/n, "share")
	m.set("suite.json_ms", a.jsonMs/n, "ms")
	m.set("suite.json_kb", a.jsonKB/n, "KB")

	perVerdict("engine.simulated_ops", "stats.simulated_ops", "count", 1)
	perVerdict("engine.executions", "executions", "count", 1)
	perVerdict("engine.crash_points", "crash_points", "count", 1)
	share("engine.revealing_point_share", "window_revealing", "window_points")
	share("engine.dedup_share", "stats.deduped_scenarios", "executions")
	perVerdict("engine.snapshot_mb", "stats.snapshot_bytes", "MB", 1.0/(1<<20))
	perVerdict("engine.journal_ops", "stats.journal_ops", "count", 1)
	share("engine.handoff_share", "stats.handoffs", "stats.simulated_ops")
	if ops := c["stats.simulated_ops"]; ops > 0 {
		m.set("engine.ns_per_simop", untracedMs*1e6/ops, "ns")
	}
	m.set("engine.budget_busy", a.budgetBusy/n, "share")
	m.set("engine.self_ms", ms(a.prog.self)/n, "ms")

	m.set("program.instantiations", float64(a.prog.instantiations)/n, "count")
	m.set("program.setup_ms", ms(a.prog.setup)/n, "ms")
	m.set("program.worker_ms", ms(a.prog.worker)/n, "ms")
	m.set("program.recovery_ms", ms(a.prog.recovery)/n, "ms")

	m.set("core.detect_share", 1-ratio(a.offNs, a.onNs), "share")
	m.set("tso.ns_per_op", ratio(a.offNs, a.offOps), "ns")
	if hits, ok := c["stats.epoch_hits"]; ok {
		m.set("vclock.epoch_hit_share", ratio(hits, hits+c["stats.epoch_misses"]), "share")
	}

	nu := float64(len(a.untraced))
	m.set("runtime.alloc_mb", a.allocBytes/nu/(1<<20), "MB")
	m.set("runtime.allocs", a.allocObjects/nu, "count")
	m.set("runtime.gc_cpu_share", a.gcShare, "share")
	m.set("runtime.sched_latency_us.p90", a.schedP90us, "us")

	m.set("bench.trace_overhead_share", median(a.traced)/median(a.untraced)-1, "share")
}
