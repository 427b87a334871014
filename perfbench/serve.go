package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yashme/internal/engine"
	"yashme/internal/service"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// Frozen serve rates (requests per second). low and high are about 1/4 and
// 2/3 of max_rate_per_s as measured when the benchmark was defined (2-vCPU
// Xeon container, Go 1.24); they stay fixed so that later changes are
// compared at the same offered load.
const (
	serveRateLow  = 26.0
	serveRateHigh = 70.0
)

// The capacity ladder: rung k offers ladderBase·ladderStep^k requests per
// second. A rung passes when cold p90 stays within coldLimitMs and the
// cold backlog does not grow across it.
const (
	ladderBase  = 10.0
	ladderStep  = 1.05
	coldLimitMs = 100.0
	// backlogGrowth is how much the mean cold backlog of a rung's second
	// half may exceed its first half's before the queue counts as growing.
	backlogGrowth = 1.5
)

// requestTimeout bounds every job; a job that exceeds it fails.
const requestTimeout = 30 * time.Second

// The mix: in every block of mixBlock arrivals, mixCold are cold.
const (
	mixBlock = 10
	mixCold  = 3
)

// serveKinds are the request shapes of the mix. Repeat requests are
// answered from the cache after set-up primes it; cold requests carry a
// fresh seed, so each is unique.
var (
	repeatKinds = []string{"table3", "stacked", "table4", "table5", "registry"}
	coldKinds   = []string{"table3", "stacked", "table4"}
)

func serveRequest(kind string, seed int64) service.Request {
	var r service.Request
	switch kind {
	case "table3":
		r = service.Request{Tags: []string{workload.TagTable3}, Variants: []string{suite.VariantRaces}}
	case "stacked":
		r = service.Request{Tags: []string{workload.TagTable3}, Variants: []string{suite.VariantRaces}, Analyses: []string{analysisMain, analysisXFD}}
	case "table4":
		r = service.Request{Tags: []string{workload.TagTable4}, Variants: []string{suite.VariantRaces}}
	case "table5":
		r = service.Request{Tags: []string{workload.TagTable5}, Variants: []string{suite.VariantTable5}}
	case "registry":
		// The zero request: the full registry, every variant group.
	default:
		panic("perfbench: unknown serve kind " + kind)
	}
	r.Seed = seed
	r.TimeoutMs = requestTimeout.Milliseconds() // not part of the cache identity
	return r
}

// suiteConfigFor is the suite call equivalent to a request, with the
// registry specs listed explicitly (so they can be wrapped for tracing).
func suiteConfigFor(req service.Request, budget *engine.Budget) suite.Config {
	return suite.Config{
		Specs:    workload.Tagged(req.Tags...),
		Variants: req.Variants,
		Analyses: req.Analyses,
		Seed:     req.Seed,
		Budget:   budget,
	}
}

// checkCold is the oracle of a cold job's result.
func checkCold(kind string, res *suite.Result) error {
	switch kind {
	case "table3":
		return checkFields(res, table3Fields)
	case "stacked":
		if err := checkFields(res, table3Fields); err != nil {
			return err
		}
		if n := passTotal(res, analysisXFD); n != stackedXFD {
			return fmt.Errorf("xfd races %d, want %d", n, stackedXFD)
		}
	case "table4":
		if res.Cancelled {
			return errors.New("result cancelled")
		}
		if n := res.TotalRaces(suite.RunRaces); n != table4Races {
			return fmt.Errorf("table4 races %d, want %d", n, table4Races)
		}
	}
	return nil
}

// arrival is one scheduled request.
type arrival struct {
	Due  time.Duration // since the phase start
	Kind string
	Cold bool
	Seed int64 // cold requests only
}

// serveGen makes the serve workload's arrivals and cold seeds from its
// seed.
type serveGen struct {
	rng      *rand.Rand
	nextSeed int64
	pools    map[string][]string
}

// pick returns the next kind from a seeded permutation of kinds, refilled
// when used up, so every stretch of the schedule carries an even mix.
func (g *serveGen) pick(pool string, kinds []string) string {
	p := g.pools[pool]
	if len(p) == 0 {
		p = append([]string(nil), kinds...)
		g.rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	g.pools[pool] = p[1:]
	return p[0]
}

func newServeGen(seed int64) *serveGen {
	rng := rand.New(rand.NewSource(seed))
	return &serveGen{rng: rng, nextSeed: rng.Int63n(1<<40) + 1, pools: map[string][]string{}}
}

// schedule returns round(rate·dur) arrivals over dur: exponential gaps
// rescaled to span the window exactly (a Poisson process conditioned on
// its count, so offered load is exact), mixed in blocks of mixBlock with
// mixCold cold requests at random positions and kinds drawn evenly.
func (g *serveGen) schedule(rate float64, dur time.Duration) []arrival {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = g.rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, n)
	t := 0.0
	var cold []bool
	for i := range out {
		t += gaps[i]
		if len(cold) == 0 {
			cold = make([]bool, mixBlock)
			for j := 0; j < mixCold; j++ {
				cold[j] = true
			}
			g.rng.Shuffle(len(cold), func(a, b int) { cold[a], cold[b] = cold[b], cold[a] })
		}
		a := arrival{Due: time.Duration(t / total * float64(dur)), Cold: cold[0]}
		cold = cold[1:]
		if a.Cold {
			a.Kind = g.pick("cold", coldKinds)
			a.Seed = g.nextSeed
			g.nextSeed++
		} else {
			a.Kind = g.pick("repeat", repeatKinds)
		}
		out[i] = a
	}
	return out
}

// harness is an in-process service on a loopback listener, with the
// benchmark's two client connections: one for submissions, one for result
// fetches.
type harness struct {
	mgr         *service.Manager
	srv         *http.Server
	serveErr    chan error
	base        string
	post, fetch *http.Client
	refs        map[string][]byte // repeat kind → canonical result bytes
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 2 * time.Minute}
}

// startHarness starts a manager with the yashme-serve defaults behind a
// loopback listener.
func startHarness() (*harness, error) {
	mgr := service.NewManager(service.Config{
		Jobs:           2,
		QueueDepth:     64,
		Budget:         engine.NewBudget(runtime.NumCPU()),
		CacheBytes:     64 << 20,
		DefaultTimeout: 10 * time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		mgr:      mgr,
		srv:      &http.Server{Handler: service.NewHandler(mgr)},
		serveErr: make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		post:     oneConnClient(),
		fetch:    oneConnClient(),
	}
	go func() { h.serveErr <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the listener and the manager and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // a stuck connection is cut by the deadline
	<-h.serveErr
	h.mgr.Shutdown(ctx)
	h.post.CloseIdleConnections()
	h.fetch.CloseIdleConnections()
}

// submit POSTs a request on the submission connection.
func (h *harness) submit(req service.Request, wait bool) (service.JobStatus, int, error) {
	var st service.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, 0, err
	}
	url := h.base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := h.post.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // status already says it failed
		return st, resp.StatusCode, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

// result GETs a job's result bytes on the fetch connection.
func (h *harness) result(id string) ([]byte, error) {
	resp, err := h.fetch.Get(h.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	return b, nil
}

// metrics GETs /metrics on the fetch connection.
func (h *harness) metrics() (service.Metrics, error) {
	var mm service.Metrics
	resp, err := h.fetch.Get(h.base + "/metrics")
	if err != nil {
		return mm, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return mm, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return mm, json.NewDecoder(resp.Body).Decode(&mm)
}

// prime computes each repeat request's reference bytes with a direct
// suite run, then submits it once so the cache holds it, and checks the
// served bytes against the reference.
func (h *harness) prime(budget *engine.Budget) error {
	h.refs = map[string][]byte{}
	for _, kind := range repeatKinds {
		req := serveRequest(kind, 0)
		ref, err := suite.Run(suite.Config{Tags: req.Tags, Variants: req.Variants, Analyses: req.Analyses, Budget: budget}).Canonical().JSON()
		if err != nil {
			return err
		}
		h.refs[kind] = ref
		st, _, err := h.submit(req, true)
		if err != nil {
			return fmt.Errorf("prime %s: %w", kind, err)
		}
		got, err := h.result(st.ID)
		if err != nil {
			return fmt.Errorf("prime %s: %w", kind, err)
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("prime %s: served bytes differ from a direct suite run", kind)
		}
	}
	return nil
}

// served is the outcome of one arrival.
type served struct {
	arrival
	err           error
	cacheHit      bool
	late          time.Duration // send time − due
	latency       time.Duration // due → result bytes received
	submit        time.Duration
	runNs         int64 // the job's elapsed_ns (cold)
	body          []byte
	jobID         string
	dueAt, sentAt time.Time
	status        int // HTTP status of the submission
	resultKB      float64
}

// phase offers a schedule to the service open-loop and returns every
// arrival's outcome, plus the cold backlog sampled every 10 ms.
func (h *harness) phase(sched []arrival, rec *recorder) ([]served, []int) {
	out := make([]served, len(sched))
	var backlog atomic.Int64
	fetches := make(chan int, len(sched)) // one send per arrival at most
	var waiters sync.WaitGroup

	stopSampling := make(chan struct{})
	var samples []int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				samples = append(samples, int(backlog.Load()))
			}
		}
	}()

	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		for i := range fetches {
			s := &out[i]
			start := time.Now()
			body, err := h.result(s.jobID)
			if err != nil {
				s.err = err
			}
			s.body = body
			end := time.Now()
			s.latency = end.Sub(s.dueAt)
			if rec != nil {
				job := rec.add("serve.job", 0, s.dueAt, end)
				rec.add("serve.submit", job, s.sentAt, s.sentAt.Add(s.submit))
				rec.add("serve.fetch", job, start, end)
			}
		}
	}()

	t0 := time.Now()
	for i, a := range sched {
		s := &out[i]
		s.arrival = a
		s.dueAt = t0.Add(a.Due)
		if d := time.Until(s.dueAt); d > 0 {
			time.Sleep(d)
		}
		s.sentAt = time.Now()
		s.late = s.sentAt.Sub(s.dueAt)
		st, code, err := h.submit(serveRequest(a.Kind, a.Seed), false)
		s.submit = time.Since(s.sentAt)
		s.status = code
		if err != nil {
			s.err = err
			continue
		}
		s.jobID = st.ID
		s.cacheHit = st.CacheHit
		if !a.Cold && !st.CacheHit {
			s.err = errors.New("repeat request missed the cache")
		}
		if st.State.Terminal() {
			fetches <- i
			continue
		}
		job, err := h.mgr.Job(st.ID)
		if err != nil {
			s.err = err
			continue
		}
		backlog.Add(1)
		waiters.Add(1)
		go func(i int) {
			defer waiters.Done()
			<-job.Done()
			backlog.Add(-1)
			out[i].runNs = job.Status().ElapsedNs
			fetches <- i
		}(i)
	}
	waiters.Wait()
	close(fetches)
	<-fetched
	close(stopSampling)
	<-sampled
	return out, samples
}

// verify checks every served body against its oracle, counts it, and
// drops the body.
func (h *harness) verify(rs []served, t *tally) {
	for i := range rs {
		s := &rs[i]
		what := fmt.Sprintf("%s/cold=%v/seed=%d", s.Kind, s.Cold, s.Seed)
		err := s.err
		if err == nil && !s.Cold && !bytes.Equal(s.body, h.refs[s.Kind]) {
			err = errors.New("served bytes differ from a direct suite run")
		}
		if err == nil && s.Cold {
			var res suite.Result
			if err = json.Unmarshal(s.body, &res); err == nil {
				err = checkCold(s.Kind, &res)
			}
		}
		if err != nil {
			s.err = err
		}
		t.record(what, err)
		s.resultKB = float64(len(s.body)) / 1024
		s.body = nil
	}
}

// latencies returns the ms latencies of the successful arrivals that pass
// keep.
func latencies(rs []served, keep func(*served) bool) []float64 {
	var out []float64
	for i := range rs {
		if rs[i].err == nil && keep(&rs[i]) {
			out = append(out, ms(rs[i].latency))
		}
	}
	return out
}

func all(*served) bool      { return true }
func cold(s *served) bool   { return s.Cold }
func repeat(s *served) bool { return !s.Cold }

// rungPasses applies the capacity criteria to one offered rate: no failed
// request, cold p90 within the limit, and a cold backlog that does not
// grow across the rung.
func rungPasses(rs []served, backlog []int) bool {
	for i := range rs {
		if rs[i].err != nil {
			return false
		}
	}
	if p := percentile(latencies(rs, cold), 0.9); math.IsNaN(p) || p > coldLimitMs {
		return false
	}
	half := len(backlog) / 2
	if half == 0 {
		return true
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(backlog[half:])-mean(backlog[:half]) <= backlogGrowth
}

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// climbLadder finds max_rate_per_s: it climbs from the high rate in steps
// of four rungs until a rung fails, then bisects, one short rung per
// probe, until the bracket closes or the time is spent. It returns the
// highest passing rung, or -1.
func climbLadder(ctx context.Context, run func(float64, time.Duration, *recorder) ([]served, []int), high []served, highBacklog []int, spend time.Duration) int {
	kHigh := int(math.Round(math.Log(serveRateHigh/ladderBase) / math.Log(ladderStep)))
	lo, hi := -1, -1
	if rungPasses(high, highBacklog) {
		lo = kHigh
	} else {
		hi = kHigh
	}
	rung := spend / 5
	end := time.Now().Add(spend)
	for time.Now().Before(end) && ctx.Err() == nil && !(lo >= 0 && hi >= 0 && hi-lo <= 1) && hi != 0 {
		var k int
		switch {
		case lo >= 0 && hi >= 0:
			k = (lo + hi) / 2
		case lo >= 0:
			k = lo + 4
		default:
			k = max(hi-4, 0)
		}
		if rs, backlog := run(rungRate(k), rung, nil); rungPasses(rs, backlog) {
			lo = k
		} else {
			hi = k
		}
	}
	return lo
}

func runServe(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	budget := engine.NewBudget(runtime.NumCPU())

	// Set-up: start the service, compute the repeat set's reference bytes
	// and prime the cache with them.
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()
	out.tally.record("prime", h.prime(budget))
	if o.setupOnly {
		return out, nil
	}
	resetPeakRSS()

	gen := newServeGen(o.seed)
	secs := float64(o.seconds)
	dur := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }
	var everything []served
	check := func(rs []served) {
		h.verify(rs, &out.tally)
		everything = append(everything, rs...)
	}
	run := func(rate float64, d time.Duration, rec *recorder) ([]served, []int) {
		rs, backlog := h.phase(gen.schedule(rate, d), rec)
		check(rs)
		return rs, backlog
	}

	// The untraced run offers the low rate throughout. Its latency and
	// CPU samples are taken before the oracle runs, so they hold the
	// service's work and not the oracle's.
	rt0, cpu0 := readRuntime(), processCPU()
	low, _ := h.phase(gen.schedule(serveRateLow, dur(1)), nil)
	rt1, cpu1 := readRuntime(), processCPU()
	check(low)

	// Verdict latency is that of the cold jobs at the low rate: the
	// verdicts the service computes, with the service far from saturation.
	// In the 70/30 mix the overall median falls in the sparse tail of the
	// cache hits (it spread 34% between runs, against 16% for the cold
	// median), and at the high rate a host slowed by its neighbours nears
	// capacity, so queueing raised the cold p50 up to 2.7-fold in some
	// runs. Hits and the high rate are reported apart as hit_ms.* and
	// cold_ms.*.high.
	m := out.metrics
	coldLow := latencies(low, cold)
	m.set("verdict_ms.p50", percentile(coldLow, 0.5), "ms")
	m.set("verdict_ms.p75", percentile(coldLow, 0.75), "ms")
	m.set("verdict_ms.p90", percentile(coldLow, 0.9), "ms")
	m.set("verdicts", float64(len(coldLow)), "count")
	// Capacity as the CPUs see it: requests of the mix answered per second
	// of every CPU's time.
	m.set("verdicts_per_s", float64(len(latencies(low, all)))*float64(runtime.NumCPU())/(cpu1-cpu0).Seconds(), "1/s")
	phases := []namedPhase{{"low", low}}

	if o.trace {
		// The high rate, the capacity ladder, a traced repeat of the low
		// rate (for the job, submit and fetch spans) and a paired side run
		// of the cold requests through the suite (for the engine and
		// program layers of the cold verdicts, and the tracing overhead
		// measured on the same inputs).
		busy := startBusySampler(h.mgr.Budget())
		high, highBacklog := run(serveRateHigh, dur(0.5), nil)
		m.set("service.budget_busy", busy.Stop(), "share")
		phases = append(phases, namedPhase{"high", high})
		serviceLayer(m, high)
		if lo := climbLadder(ctx, run, high, highBacklog, dur(0.45)); lo >= 0 {
			m.set("max_rate_per_s", rungRate(lo), "1/s")
		}
		layers := newLayerAcc(newRecorder())
		run(serveRateLow, dur(0.5), layers.rec)
		sideEnd := time.Now().Add(dur(0.25))
		for i := 0; time.Now().Before(sideEnd) && ctx.Err() == nil; i++ {
			kind := coldKinds[i%len(coldKinds)]
			req := serveRequest(kind, gen.nextSeed)
			gen.nextSeed++
			layers.pairedInput(ctx, budget, i, suiteConfigFor(req, budget), func(r *suite.Result) error { return checkCold(kind, r) }, &out.tally, fmt.Sprintf("side %s/seed=%d", kind, req.Seed))
		}
		layers.runtimePhase(rt0, rt1)
		layers.report(m)
		out.rec = layers.rec
	}

	for _, p := range phases {
		for _, q := range []struct {
			name string
			keep func(*served) bool
		}{{"cold_ms", cold}, {"hit_ms", repeat}} {
			xs := latencies(p.rs, q.keep)
			m.set(fmt.Sprintf("%s.p50.%s", q.name, p.name), percentile(xs, 0.5), "ms")
			m.set(fmt.Sprintf("%s.p90.%s", q.name, p.name), percentile(xs, 0.9), "ms")
			m.set(fmt.Sprintf("%s.n.%s", q.name, p.name), float64(len(xs)), "count")
		}
	}

	hits, rejected := 0, 0
	late := 0.0
	for i := range everything {
		s := &everything[i]
		if s.cacheHit {
			hits++
		}
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		late = max(late, ms(s.late))
	}
	m.set("service.cache_hit_share", ratio(float64(hits), float64(len(everything))), "share")
	m.set("service.rejected", float64(rejected), "count")
	mm, err := h.metrics()
	if err != nil {
		return nil, err
	}
	jobs := 0
	for _, n := range mm.Jobs {
		jobs += n
	}
	runtime.GC() // so the live-heap figure is current
	m.set("service.jobs_retained", float64(jobs), "count")
	m.set("service.heap_mb_per_kjob", readRuntime().heapLive/(1<<20)/(float64(jobs)/1000), "MB")
	m.set("bench.late_ms.max", late, "ms")
	out.params = map[string]any{
		"rate_low_per_s": serveRateLow, "rate_high_per_s": serveRateHigh,
		"ladder": fmt.Sprintf("%g·%g^k req/s", ladderBase, ladderStep), "cold_limit_ms": coldLimitMs,
		"repeat_share": float64(mixBlock-mixCold) / mixBlock,
	}
	return out, nil
}

// namedPhase is one phase's outcomes under the suffix its figures carry.
type namedPhase struct {
	name string
	rs   []served
}

// serviceLayer sets the service-layer figures of one phase.
func serviceLayer(m metricSet, rs []served) {
	var submitMs, queueMs, runMs, kb []float64
	for i := range rs {
		s := &rs[i]
		submitMs = append(submitMs, ms(s.submit))
		kb = append(kb, s.resultKB)
		if s.Cold && s.err == nil {
			runMs = append(runMs, float64(s.runNs)/1e6)
			queueMs = append(queueMs, ms(s.latency)-float64(s.runNs)/1e6)
		}
	}
	m.set("service.submit_ms.p50", median(submitMs), "ms")
	m.set("service.result_kb", sum(kb)/float64(len(kb)), "KB")
	m.set("service.queue_ms.p90", percentile(queueMs, 0.9), "ms")
	m.set("service.run_ms.p50", median(runMs), "ms")
}
