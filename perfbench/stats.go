package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"yashme/internal/engine"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's figures by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (numpy's default); NaN for an
// empty sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowSpan is the shortest stretch of whole rounds that a batch run's
// figures are taken over.
const windowSpan = time.Second

// windows splits a closed loop's verdict times into stretches of whole
// rounds, each at least windowSpan long (the last short stretch joins the
// one before it). A run's throughput and latency percentiles are medians
// over its windows, so a burst of load from other tenants of the host
// that slows a few seconds of the run does not move them, while a change
// that slows every verdict moves every window.
type windows struct {
	done []window
	cur  window
	from time.Time
}

type window struct {
	lat  []float64
	wall time.Duration
}

func newWindows(start time.Time) *windows { return &windows{from: start} }

func (ws *windows) add(ms float64) {
	ws.cur.lat = append(ws.cur.lat, ms)
}

// endRound closes the current window at a round boundary once it spans
// windowSpan.
func (ws *windows) endRound(now time.Time) {
	if len(ws.cur.lat) > 0 && now.Sub(ws.from) >= windowSpan {
		ws.close(now)
	}
}

// end closes the run: a last window shorter than windowSpan joins the one
// before it.
func (ws *windows) end(now time.Time) {
	if len(ws.cur.lat) == 0 {
		return
	}
	if n := len(ws.done); n > 0 && now.Sub(ws.from) < windowSpan {
		last := &ws.done[n-1]
		last.lat = append(last.lat, ws.cur.lat...)
		last.wall += now.Sub(ws.from)
		ws.cur = window{}
		return
	}
	ws.close(now)
}

func (ws *windows) close(now time.Time) {
	ws.cur.wall = now.Sub(ws.from)
	ws.done = append(ws.done, ws.cur)
	ws.cur, ws.from = window{}, now
}

// report sets the throughput and the latency percentiles, each the median
// over the windows, and the sample counts.
func (ws *windows) report(m metricSet) {
	var rate, p50, p75, p90 []float64
	n := 0
	for _, w := range ws.done {
		rate = append(rate, float64(len(w.lat))/w.wall.Seconds())
		p50 = append(p50, percentile(w.lat, 0.5))
		p75 = append(p75, percentile(w.lat, 0.75))
		p90 = append(p90, percentile(w.lat, 0.9))
		n += len(w.lat)
	}
	m.set("verdicts_per_s", median(rate), "1/s")
	m.set("verdict_ms.p50", median(p50), "ms")
	m.set("verdict_ms.p75", median(p75), "ms")
	m.set("verdict_ms.p90", median(p90), "ms")
	m.set("verdicts", float64(n), "count")
	m.set("windows", float64(len(ws.done)), "count")
}

// resetPeakRSS ends set-up: it collects the set-up's garbage, returns the
// freed memory to the OS and resets the resident-set high-water mark, so
// that peakRSSMB covers only the measured work that follows.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB, since the last resetPeakRSS; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the benchmark samples around measured work.
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmSchedLat     = "/sched/latencies:seconds"
	rmHeapLive     = "/gc/heap/live:bytes"
)

// rtSample is one runtime/metrics reading.
type rtSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	heapLive                 float64
	sched                    *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: rmAllocBytes}, {Name: rmAllocObjects}, {Name: rmGCCPU},
		{Name: rmTotalCPU}, {Name: rmSchedLat}, {Name: rmHeapLive},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	out := rtSample{
		allocBytes:   num(s[0].Value),
		allocObjects: num(s[1].Value),
		gcCPU:        num(s[2].Value),
		totalCPU:     num(s[3].Value),
		heapLive:     num(s[5].Value),
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[4].Value.Float64Histogram()
	}
	return out
}

// schedP90us is the 90th percentile, in microseconds, of the goroutine
// scheduling latencies recorded between two samples (upper bucket edge,
// so an overestimate by at most one bucket).
func schedP90us(a, b rtSample) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.9 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// busySampler samples a budget's utilisation every millisecond while
// measured work runs.
type busySampler struct {
	budget *engine.Budget
	stop   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	samples int
	busy    float64
}

func startBusySampler(b *engine.Budget) *busySampler {
	s := &busySampler{budget: b, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				u := float64(s.budget.InUse()) / float64(s.budget.Size())
				s.mu.Lock()
				s.samples++
				s.busy += u
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the mean utilisation (0..1).
func (s *busySampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(s.busy, float64(s.samples))
}
