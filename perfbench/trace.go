package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"yashme/internal/pmm"
	"yashme/internal/workload"
)

// span is one traced interval. Spans of one verdict share its root: a
// child names the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the benchmark
// ends. Safe for concurrent use: the engine calls program callbacks from
// several goroutines at once.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes a span.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span (for intervals measured elsewhere,
// such as a request's due time).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// from returns span id followed by its direct children.
func (r *recorder) from(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []span{r.spans[id-1]}
	for _, s := range r.spans[id:] {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (children may overlap one another; the union counts
// once).
func selfTime(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// Span names of the program layer: the pmm.Program callbacks.
const (
	spanMake     = "program.make"
	spanSetup    = "program.setup"
	spanWorker   = "program.worker"
	spanRecovery = "program.recovery"
)

// wrapSpec returns a copy of spec whose program callbacks record spans
// under parent. Every wrapper ends its span in a defer and never
// recovers: the engine unwinds a crashed worker by panicking through it.
func wrapSpec(rec *recorder, parent int, spec workload.Spec) workload.Spec {
	mk := spec.Make
	wrapThread := func(name string, f func(*pmm.Thread)) func(*pmm.Thread) {
		if f == nil {
			return nil
		}
		return func(t *pmm.Thread) {
			id := rec.start(name, parent)
			defer rec.end(id)
			f(t)
		}
	}
	spec.Make = func() pmm.Program {
		id := rec.start(spanMake, parent)
		p := mk()
		rec.end(id)
		if setup := p.Setup; setup != nil {
			p.Setup = func(h *pmm.Heap) {
				id := rec.start(spanSetup, parent)
				defer rec.end(id)
				setup(h)
			}
		}
		ws := make([]func(*pmm.Thread), len(p.Workers))
		for i, w := range p.Workers {
			ws[i] = wrapThread(spanWorker, w)
		}
		p.Workers = ws
		p.PostCrash = wrapThread(spanRecovery, p.PostCrash)
		if len(p.PostCrashWorkers) > 0 {
			rs := make([]func(*pmm.Thread), len(p.PostCrashWorkers))
			for i, w := range p.PostCrashWorkers {
				rs[i] = wrapThread(spanRecovery, w)
			}
			p.PostCrashWorkers = rs
		}
		return p
	}
	return spec
}

func wrapSpecs(rec *recorder, parent int, specs []workload.Spec) []workload.Spec {
	out := make([]workload.Spec, len(specs))
	for i, s := range specs {
		out[i] = wrapSpec(rec, parent, s)
	}
	return out
}

// programBreakdown sums one verdict span's program-layer children by kind
// and returns the engine's self time (the verdict minus the union of its
// program.* children).
type programBreakdown struct {
	instantiations int
	setup, worker  time.Duration
	recovery       time.Duration
	self           time.Duration
}

func breakdown(verdict span, kids []span) programBreakdown {
	var b programBreakdown
	var prog []span
	for _, k := range kids {
		if k.End < k.Start { // never ended: clip to the verdict
			k.End = verdict.End
		}
		switch k.Name {
		case spanMake:
			b.instantiations++
		case spanSetup:
			b.setup += k.dur()
		case spanWorker:
			b.worker += k.dur()
		case spanRecovery:
			b.recovery += k.dur()
		default:
			continue
		}
		prog = append(prog, k)
	}
	b.self = selfTime(verdict, prog)
	return b
}
