package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/metrics"
	"testing"
	"time"

	"yashme/internal/engine"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

func firstInputs(w *batchWorkload, seed int64, rounds int) []batchInput {
	g := newGenerator(seed)
	var out []batchInput
	for i := 0; i < rounds; i++ {
		out = append(out, w.round(g)...)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range batchWorkloads {
		a, b := firstInputs(w, 42, 12), firstInputs(w, 42, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different input sequences", name)
		}
		if c := firstInputs(w, 43, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", name)
		}
	}
	s1, s2 := newServeGen(42), newServeGen(42)
	for _, rate := range []float64{serveRateLow, serveRateHigh, rungRate(40)} {
		a, b := s1.schedule(rate, 3*time.Second), s2.schedule(rate, 3*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("serve: seed 42 gave two different schedules at %g/s", rate)
		}
	}
	if a, c := newServeGen(42).schedule(serveRateHigh, time.Second), newServeGen(43).schedule(serveRateHigh, time.Second); reflect.DeepEqual(a, c) {
		t.Error("serve: seeds 42 and 43 gave the same schedule")
	}
}

func TestInputsStayInRange(t *testing.T) {
	for _, in := range firstInputs(batchWorkloads["deep"], 7, 20) {
		if in.Keys < 16 || in.Keys > 48 || in.Seed != 0 {
			t.Fatalf("deep input out of range: %v", in)
		}
	}
	for _, in := range firstInputs(batchWorkloads["random-mt"], 7, 20) {
		if in.Keys < 8 || in.Keys > 16 || in.Seed <= 0 {
			t.Fatalf("random-mt input out of range: %v", in)
		}
	}
}

func TestScheduleMixAndRate(t *testing.T) {
	sched := newServeGen(5).schedule(50, 4*time.Second)
	if len(sched) != 200 {
		t.Fatalf("got %d arrivals, want exactly 50/s × 4 s = 200", len(sched))
	}
	cold, seeds := 0, map[int64]bool{}
	var last time.Duration
	for _, a := range sched {
		if a.Due < last || a.Due > 4*time.Second {
			t.Fatalf("arrival due %v out of order or past the window", a.Due)
		}
		last = a.Due
		if a.Cold {
			cold++
			if seeds[a.Seed] || a.Seed <= 0 {
				t.Fatalf("cold seed %d repeated or not positive", a.Seed)
			}
			seeds[a.Seed] = true
		}
	}
	if cold != 60 {
		t.Errorf("got %d cold arrivals, want 30%% of 200", cold)
	}
}

func table3Result(t *testing.T) *suite.Result {
	t.Helper()
	return suite.Run(suite.Config{Tags: []string{workload.TagTable3}, Variants: []string{suite.VariantRaces}})
}

func TestOracleFlagsAlteredRaceField(t *testing.T) {
	res := table3Result(t)
	if err := checkFields(res, table3Fields); err != nil {
		t.Fatalf("oracle rejects a correct Table 3 sweep: %v", err)
	}
	if err := checkCold("table3", res); err != nil {
		t.Fatalf("cold oracle rejects a correct Table 3 sweep: %v", err)
	}
	run := res.Bench("Fast_Fair").Run(suite.RunRaces)
	run.Races[0].Field = "entry.value"
	if err := checkFields(res, table3Fields); err == nil {
		t.Fatal("oracle accepted a result with one race field altered")
	}
	if err := checkCold("table3", res); err == nil {
		t.Fatal("cold oracle accepted a result with one race field altered")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

// A burst that slows one window of a run moves none of its figures; a
// slowdown of every window moves them all; a short last stretch joins the
// window before it.
func TestWindowsAreMediansOverWindows(t *testing.T) {
	// run feeds verdict times (ms), one verdict per round, and reports.
	run := func(verdicts []float64) metricSet {
		now := time.Unix(0, 0)
		ws := newWindows(now)
		for _, v := range verdicts {
			ws.add(v)
			now = now.Add(time.Duration(v * float64(time.Millisecond)))
			ws.endRound(now)
		}
		ws.end(now)
		m := metricSet{}
		ws.report(m)
		return m
	}
	repeat := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// Five 1 s windows of 100 ms verdicts and a 100 ms tail.
	base := run(repeat(100, 51))
	if got := base["windows"].Value; got != 5 {
		t.Fatalf("windows = %g, want 5 (the short last stretch joins the fifth)", got)
	}
	if got := base["verdicts"].Value; got != 51 {
		t.Fatalf("verdicts = %g, want 51", got)
	}
	// The third second runs at half speed.
	burst := append(append(repeat(100, 20), repeat(200, 5)...), repeat(100, 21)...)
	got := run(burst)
	for _, k := range []string{"verdicts_per_s", "verdict_ms.p50", "verdict_ms.p75"} {
		if math.Abs(got[k].Value-base[k].Value) > 1e-9 {
			t.Errorf("%s moved with a one-window burst: %g -> %g", k, base[k].Value, got[k].Value)
		}
	}
	slow := run(repeat(200, 26))
	if got, want := slow["verdicts_per_s"].Value, base["verdicts_per_s"].Value/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("verdicts_per_s with every verdict twice as slow = %g, want %g", got, want)
	}
	if got := slow["verdict_ms.p50"].Value; math.Abs(got-200) > 1e-9 {
		t.Errorf("verdict_ms.p50 with every verdict twice as slow = %g, want 200", got)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// verdict [0,100); children [10,30) and [20,50) overlap (union 40),
	// [60,70) is disjoint, [90,120) is clipped to the verdict (10), and an
	// unfinished child counts to the verdict's end.
	verdict := span{ID: 1, Name: "suite.RunContext", Start: 0, End: 100}
	kids := []span{
		{ID: 2, Parent: 1, Name: spanWorker, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: spanRecovery, Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: spanSetup, Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: spanRecovery, Start: 90, End: 120},
		{ID: 6, Parent: 1, Name: spanMake, Start: 5, End: 6},
	}
	if got := selfTime(verdict, kids); got != 100-40-10-10-1 {
		t.Errorf("selfTime = %d, want 39", got)
	}
	b := breakdown(verdict, kids)
	if b.self != 39 || b.instantiations != 1 || b.setup != 10 || b.worker != 20 || b.recovery != 30+30 {
		t.Errorf("breakdown = %+v", b)
	}
	unfinished := []span{{ID: 2, Parent: 1, Name: spanWorker, Start: 80}}
	if b := breakdown(verdict, unfinished); b.worker != 20 || b.self != 80 {
		t.Errorf("unfinished child: breakdown = %+v", b)
	}
}

func TestSchedP90(t *testing.T) {
	h := func(counts ...uint64) rtSample {
		return rtSample{sched: &metrics.Float64Histogram{Counts: counts, Buckets: []float64{0, 1e-6, 2e-6, 3e-6, math.Inf(1)}}}
	}
	// 10 new samples: 8 in [0,1us), 1 in [1,2us), 1 in [2,3us): p90 is
	// the 9th, in the second bucket, reported at its upper edge.
	if got := schedP90us(h(1, 0, 0, 0), h(9, 1, 1, 0)); math.Abs(got-2) > 1e-9 {
		t.Errorf("schedP90us = %g, want 2", got)
	}
}

func TestWrappedSpecsByteIdentical(t *testing.T) {
	cfg := suite.Config{Specs: workload.Tagged(workload.TagTable3), Variants: []string{suite.VariantRaces}, Budget: engine.NewBudget(2)}
	plain, err := suite.Run(cfg).Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	id := rec.start("suite.RunContext", 0)
	cfg.Specs = wrapSpecs(rec, id, cfg.Specs)
	got, err := suite.Run(cfg).Canonical().JSON()
	rec.end(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, got) {
		t.Fatal("wrapped specs changed the Canonical() JSON")
	}
	spans := rec.from(id)
	if b := breakdown(spans[0], spans[1:]); b.instantiations == 0 || b.worker == 0 || b.recovery == 0 || b.setup == 0 {
		t.Errorf("wrapped callbacks recorded no spans: %+v", b)
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Work     []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
	if got := names(doc.Work); !reflect.DeepEqual(got, []string{"table3", "deep", "random-mt", "serve"}) {
		t.Errorf("BENCHMARK.json workloads %v", got)
	}
}

func TestServePhase(t *testing.T) {
	h, err := startHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	budget := engine.NewBudget(2)
	if err := h.prime(budget); err != nil {
		t.Fatal(err)
	}
	rs, _ := h.phase(newServeGen(3).schedule(20, time.Second), newRecorder())
	var tl tally
	h.verify(rs, &tl)
	if tl.attempted != 20 || tl.failed != 0 {
		t.Fatalf("%d attempted, %d failed: %v", tl.attempted, tl.failed, tl.errors)
	}
	for _, s := range rs {
		if s.cacheHit == s.Cold || s.latency <= 0 {
			t.Errorf("arrival %+v: cache hit %v, latency %v", s.arrival, s.cacheHit, s.latency)
		}
	}
}
