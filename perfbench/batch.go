package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"yashme/internal/engine"
	"yashme/internal/memcachedpm"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
	"yashme/internal/progs/fastfair"
	"yashme/internal/progs/part"
	"yashme/internal/progs/pbwtree"
	"yashme/internal/progs/pclht"
	"yashme/internal/progs/pmasstree"
	"yashme/internal/redispm"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// batchInput is one verdict's input: the programs handed to the suite (in
// that order), their key count (0 = the registered paper-size program) and
// the suite seed (0 = the paper's seed).
type batchInput struct {
	Programs []string
	Keys     int
	Seed     int64
}

func (in batchInput) String() string {
	s := strings.Join(in.Programs, "+")
	if in.Keys > 0 {
		s += fmt.Sprintf("/k=%d", in.Keys)
	}
	if in.Seed != 0 {
		s += fmt.Sprintf("/seed=%d", in.Seed)
	}
	return s
}

// The six Table 3 indexes, scalable through their public constructors.
var indexCtors = map[string]func(int) func() pmm.Program{
	"CCEH":       func(n int) func() pmm.Program { return cceh.New(n, nil) },
	"Fast_Fair":  func(n int) func() pmm.Program { return fastfair.New(n, nil) },
	"P-ART":      func(n int) func() pmm.Program { return part.New(n, nil) },
	"P-BwTree":   func(n int) func() pmm.Program { return pbwtree.New(n, nil) },
	"P-CLHT":     func(n int) func() pmm.Program { return pclht.New(n, nil) },
	"P-Masstree": func(n int) func() pmm.Program { return pmasstree.New(n, nil) },
}

// The multi-threaded constructors of the random-mt workload.
var mtCtors = map[string]func(int) func() pmm.Program{
	"CCEH-mt":      func(n int) func() pmm.Program { return cceh.NewConcurrent(n, nil) },
	"Memcached-mt": func(n int) func() pmm.Program { return memcachedpm.NewClientServer(n, nil) },
	"Redis-mt":     func(n int) func() pmm.Program { return redispm.NewClientServer(n, nil) },
	"P-CLHT-mt":    func(n int) func() pmm.Program { return pclht.New(n, nil) },
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stratum is an inclusive key-count range.
type stratum struct{ lo, hi int }

// Key-count strata. Every round draws one size per (program, stratum), so
// each round carries the same spread of sizes; within a stratum sizes are
// drawn without replacement, so a run covers each stratum evenly.
var (
	deepStrata = []stratum{{16, 19}, {20, 23}, {24, 27}, {28, 31}, {32, 35}, {36, 39}, {40, 43}, {44, 48}}
	mtStrata   = []stratum{{8, 10}, {11, 13}, {14, 16}}
)

// batchWorkload is a closed loop of verdicts over generated inputs.
type batchWorkload struct {
	// round returns the next round of inputs from the generator.
	round func(g *generator) []batchInput
	// warmup is the fixed, seed-independent input set-up runs once.
	warmup []batchInput
	specs  func(in batchInput) []workload.Spec
	want   func(in batchInput) map[string][]string
}

// generator makes a workload's inputs from its seed.
type generator struct {
	rng   *rand.Rand
	pools map[string][]int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), pools: map[string][]int{}}
}

// draw returns the next size of a (program, stratum) pool: a seeded
// permutation of the stratum, refilled when used up.
func (g *generator) draw(key string, s stratum) int {
	p := g.pools[key]
	if len(p) == 0 {
		p = make([]int, 0, s.hi-s.lo+1)
		for k := s.lo; k <= s.hi; k++ {
			p = append(p, k)
		}
		g.rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	g.pools[key] = p[1:]
	return p[0]
}

// stratifiedRound draws one input per (program, stratum), shuffled.
func (g *generator) stratifiedRound(programs []string, strata []stratum, seeded bool) []batchInput {
	var out []batchInput
	for _, p := range programs {
		for i, s := range strata {
			in := batchInput{Programs: []string{p}, Keys: g.draw(fmt.Sprintf("%s/%d", p, i), s)}
			if seeded {
				in.Seed = g.rng.Int63n(1<<40) + 1
			}
			out = append(out, in)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var batchWorkloads = map[string]*batchWorkload{
	"table3": {
		round: func(g *generator) []batchInput {
			names := sortedKeys(table3Fields)
			g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			return []batchInput{{Programs: names}}
		},
		warmup: []batchInput{{Programs: sortedKeys(table3Fields)}},
		specs: func(in batchInput) []workload.Spec {
			out := make([]workload.Spec, len(in.Programs))
			for i, n := range in.Programs {
				s, ok := workload.Lookup(n)
				if !ok {
					panic("perfbench: unregistered workload " + n)
				}
				out[i] = s
			}
			return out
		},
		want: func(batchInput) map[string][]string { return table3Fields },
	},
	"deep": {
		round: func(g *generator) []batchInput {
			return g.stratifiedRound(sortedKeys(indexCtors), deepStrata, false)
		},
		warmup: func() []batchInput {
			var out []batchInput
			for _, n := range sortedKeys(indexCtors) {
				out = append(out, batchInput{Programs: []string{n}, Keys: deepStrata[0].lo})
			}
			return out
		}(),
		specs: func(in batchInput) []workload.Spec {
			n := in.Programs[0]
			return []workload.Spec{{Name: n, Make: indexCtors[n](in.Keys), ModelCheck: true, Tags: []string{workload.TagTable3}}}
		},
		want: func(in batchInput) map[string][]string {
			return map[string][]string{in.Programs[0]: table3Fields[in.Programs[0]]}
		},
	},
	"random-mt": {
		round: func(g *generator) []batchInput {
			return g.stratifiedRound(sortedKeys(mtCtors), mtStrata, true)
		},
		warmup: func() []batchInput {
			var out []batchInput
			for _, n := range sortedKeys(mtCtors) {
				out = append(out, batchInput{Programs: []string{n}, Keys: mtStrata[0].lo, Seed: 1})
			}
			return out
		}(),
		specs: func(in batchInput) []workload.Spec {
			n := in.Programs[0]
			return []workload.Spec{{Name: n, Make: mtCtors[n](in.Keys), Tags: []string{workload.TagTable4}}}
		},
		want: func(in batchInput) map[string][]string {
			return map[string][]string{in.Programs[0]: multiThreadFields[in.Programs[0]]}
		},
	},
}

// config is the suite call of one verdict: the races variant of the
// input's specs on the benchmark's budget, default engine options.
func (w *batchWorkload) config(in batchInput, budget *engine.Budget) suite.Config {
	return suite.Config{Specs: w.specs(in), Variants: []string{suite.VariantRaces}, Budget: budget, Seed: in.Seed}
}

// check is the oracle of one input's verdict.
func (w *batchWorkload) check(in batchInput) func(*suite.Result) error {
	want := w.want(in)
	return func(r *suite.Result) error { return checkFields(r, want) }
}

// runVerdict runs one verdict and checks it. A panic is a failed verdict.
func runVerdict(ctx context.Context, cfg suite.Config, check func(*suite.Result) error) (res *suite.Result, d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	start := time.Now()
	res = suite.RunContext(ctx, cfg)
	d = time.Since(start)
	return res, d, check(res)
}

// tally counts verdicts and keeps the first few failures for the report.
type tally struct {
	attempted, failed int
	errors            []string
}

func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errors) < 10 {
			t.errors = append(t.errors, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (w *batchWorkload) run(ctx context.Context, o options) (*outcome, error) {
	budget := engine.NewBudget(runtime.NumCPU())
	out := newOutcome()
	verdict := func(in batchInput) time.Duration {
		_, d, err := runVerdict(ctx, w.config(in, budget), w.check(in))
		out.tally.record(in.String(), err)
		return d
	}

	// Set-up: the generator and the warm-up verdicts, which let lazy
	// initialisation and the allocator settle before timing.
	gen := newGenerator(o.seed)
	for _, in := range w.warmup {
		verdict(in)
	}
	if o.setupOnly {
		return out, nil
	}
	resetPeakRSS()

	var layers *layerAcc
	if o.trace {
		layers = newLayerAcc(newRecorder())
	}
	rt0 := readRuntime()
	var lat []float64 // traced runs
	start := time.Now()
	ws := newWindows(start) // untraced runs
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; {
		for _, in := range w.round(gen) {
			if layers == nil {
				ws.add(ms(verdict(in)))
				continue
			}
			layers.pairedInput(ctx, budget, i, w.config(in, budget), w.check(in), &out.tally, in.String())
			lat = append(lat, layers.untraced[len(layers.untraced)-1])
			i++
		}
		ws.endRound(time.Now())
	}
	ws.end(time.Now())
	rt1 := readRuntime()

	m := out.metrics
	if layers == nil {
		ws.report(m)
	} else { // traced runs interleave other work, so only latency is kept
		m.set("verdict_ms.p50", percentile(lat, 0.5), "ms")
		m.set("verdict_ms.p75", percentile(lat, 0.75), "ms")
		m.set("verdict_ms.p90", percentile(lat, 0.9), "ms")
		m.set("verdicts", float64(len(lat)), "count")
	}
	if layers != nil {
		layers.runtimePhase(rt0, rt1)
		layers.report(out.metrics)
		out.rec = layers.rec
	}
	return out, nil
}
