package engine_test

// Tests of the controlled scheduler (runner.go). The scheduler is one path:
// a thread at a scheduling point picks its successor itself, and a thread
// that is the only live one proceeds inline with no pick at all. The
// Handoffs/DirectOps split counts the two cases. The checks here are that
// every simulated operation lands on exactly one side of that split, that
// both sides fire whenever a run has solo and multi-thread phases, that the
// verdict matches the re-simulating one-worker reference run across
// checkpoint modes and worker counts, and that a crash or a workload panic
// unwinds every simulated thread. CI runs them under -race at several P
// counts, which checks that passing the scheduler between goroutines is
// data-race free.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
)

// checkAgainstReference runs mk under opts and under the reference
// semantics (one worker, every scenario re-simulated) and fails the test
// unless the two agree on every behavioural field and opts' run accounts
// for each simulated operation exactly once. Returns opts' Stats.
func checkAgainstReference(t *testing.T, name string, mk func() pmm.Program, opts engine.Options) engine.Stats {
	t.Helper()
	refOpts := opts
	refOpts.Workers = 1
	refOpts.Checkpoint = engine.CheckpointOff
	res := engine.Run(mk, opts)
	ref := engine.Run(mk, refOpts)

	if s, r := res.Report.String(), ref.Report.String(); s != r {
		t.Fatalf("%s: reports diverge:\nrun:\n%s\nreference:\n%s", name, s, r)
	}
	if !reflect.DeepEqual(res.Window, ref.Window) {
		t.Fatalf("%s: windows diverge:\nrun:       %v\nreference: %v", name, res.Window, ref.Window)
	}
	if res.ExecutionsRun != ref.ExecutionsRun {
		t.Fatalf("%s: executions diverge: %d vs %d", name, res.ExecutionsRun, ref.ExecutionsRun)
	}
	if res.CrashPoints != ref.CrashPoints {
		t.Fatalf("%s: crash points diverge: %d vs %d", name, res.CrashPoints, ref.CrashPoints)
	}
	if res.Report.RawCount != ref.Report.RawCount {
		t.Fatalf("%s: raw race counts diverge: %d vs %d", name, res.Report.RawCount, ref.Report.RawCount)
	}
	s, r := res.Stats, ref.Stats
	if ops, refOps := [5]int64{s.Stores, s.Loads, s.Flushes, s.Fences, s.RMWs},
		[5]int64{r.Stores, r.Loads, r.Flushes, r.Fences, r.RMWs}; ops != refOps {
		t.Fatalf("%s: per-kind operation counts diverge: %v vs %v", name, ops, refOps)
	}
	for _, st := range []struct {
		mode string
		st   engine.Stats
	}{{"run", s}, {"reference", r}} {
		if st.st.Handoffs+st.st.DirectOps != st.st.SimulatedOps {
			t.Fatalf("%s: %s: Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)",
				name, st.mode, st.st.Handoffs, st.st.DirectOps, st.st.SimulatedOps)
		}
	}
	return s
}

// TestDirectRunMatchesHandoff: for random programs and a real benchmark,
// solo (direct) operations and multi-thread handoffs share the work of one
// run without moving its verdict — across worker counts and checkpoint
// modes. Every case has solo phases (single-threaded recovery at minimum),
// so DirectOps must be positive; the random programs run two workers, so
// they must pay the handoff as well.
func TestDirectRunMatchesHandoff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, ck := range []struct {
			name string
			mode engine.CheckpointMode
		}{
			{"checkpoint-on", engine.CheckpointOn},
			{"checkpoint-off", engine.CheckpointOff},
		} {
			workers, ck := workers, ck
			t.Run(fmt.Sprintf("workers-%d/%s", workers, ck.name), func(t *testing.T) {
				t.Parallel()
				opts := engine.Options{Mode: engine.ModelCheck, Prefix: true,
					Workers: workers, Checkpoint: ck.mode}
				for seed := int64(1); seed <= 8; seed++ {
					mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
					name := fmt.Sprintf("fuzz seed %d", seed)
					s := checkAgainstReference(t, name, mk, opts)
					if s.DirectOps == 0 {
						t.Fatalf("%s: no operation ran solo (DirectOps = 0)", name)
					}
					if s.Handoffs == 0 {
						t.Fatalf("%s: two workers never paid the handoff (Handoffs = 0)", name)
					}
				}
				benchOpts := opts
				benchOpts.MaxCrashPoints = 30
				if s := checkAgainstReference(t, "cceh", cceh.New(3, nil), benchOpts); s.DirectOps == 0 {
					t.Fatal("cceh: no operation ran solo (DirectOps = 0)")
				}
			})
		}
	}
}

// spawnProg is a workload whose sole worker starts a sibling mid-execution
// (pmm.Thread.Go): its operations run solo until the spawn, and every
// operation after it is a scheduling decision between two live threads.
func spawnProg() pmm.Program {
	var a, b pmm.Addr
	return pmm.Program{
		Name: "spawn",
		Setup: func(h *pmm.Heap) {
			obj := h.AllocStruct("obj", pmm.Compile(pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
			a, b = obj.F("a"), obj.F("b")
			h.Init(a, 8, 0)
			h.Init(b, 8, 0)
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(a, 0x1111111111111111)
			t.Go(func(c *pmm.Thread) {
				c.Store64(b, 0x2222222222222222)
				c.CLFlush(b)
			})
			t.Store64(a, 0x3333333333333333)
			t.CLFlush(a)
		}},
		PostCrash: func(t *pmm.Thread) {
			t.Load64(a)
			t.Load64(b)
		},
	}
}

// TestSoloThenMultiThreadScheduling: a spawn ends the solo run. The run
// must count both DirectOps (the solo phases before the spawn and during
// recovery) and Handoffs (the two-thread phase after it), the two must
// split SimulatedOps exactly, and the verdict must match the re-simulating
// reference run.
func TestSoloThenMultiThreadScheduling(t *testing.T) {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1}
	res := engine.Run(spawnProg, opts)
	s := res.Stats
	if s.DirectOps == 0 {
		t.Error("nothing ran solo before the spawn (DirectOps = 0)")
	}
	if s.Handoffs == 0 {
		t.Error("the spawn did not end the solo run (Handoffs = 0)")
	}
	if s.Handoffs+s.DirectOps != s.SimulatedOps {
		t.Errorf("Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)", s.Handoffs, s.DirectOps, s.SimulatedOps)
	}
	opts.Checkpoint = engine.CheckpointOff
	if ref := engine.Run(spawnProg, opts); ref.Report.String() != res.Report.String() {
		t.Errorf("reports diverge from the re-simulating run:\n%s\nvs\n%s", res.Report, ref.Report)
	}
}

// spawnCrashProg's sole worker spawns a child whose flush is the
// execution's only crash point, so a crash unwinds the child while the
// parent is parked or still running. seen receives every value of b that
// recovery reads.
func spawnCrashProg(seen *[]uint64) func() pmm.Program {
	return func() pmm.Program {
		var a, b pmm.Addr
		return pmm.Program{
			Name: "spawn-crash",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("obj", pmm.Compile(pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
				a, b = obj.F("a"), obj.F("b")
				h.Init(a, 8, 0)
				h.Init(b, 8, 0)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(a, 1)
				t.Go(func(c *pmm.Thread) {
					c.Store64(b, 2)
					c.CLFlush(b)
					c.Store64(b, 3)
				})
				for i := uint64(2); i < 6; i++ {
					t.Store64(a, i)
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(a)
				v := t.Load64(b)
				if seen != nil {
					*seen = append(*seen, v)
				}
			},
		}
	}
}

// TestSpawnedChildCrash: a crash inside a spawned thread unwinds both
// threads, whatever the schedule, and the child's store after the crash
// point never runs. The full sweep matches the reference run.
func TestSpawnedChildCrash(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var seen []uint64
		res := engine.RunOne(spawnCrashProg(&seen), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1},
			1, engine.PersistLatest, seed)
		if res.CrashPoints != 1 {
			t.Fatalf("seed %d: crash points = %d, want the crash at the child's flush (1)", seed, res.CrashPoints)
		}
		if len(seen) != 1 || seen[0] == 3 {
			t.Fatalf("seed %d: recovery read b = %v: want one read, never the store after the crash", seed, seen)
		}
		s := res.Stats
		if s.Handoffs == 0 || s.DirectOps == 0 || s.Handoffs+s.DirectOps != s.SimulatedOps {
			t.Fatalf("seed %d: Handoffs %d + DirectOps %d vs SimulatedOps %d: want both positive, summing exactly",
				seed, s.Handoffs, s.DirectOps, s.SimulatedOps)
		}
	}
	for _, workers := range []int{1, 4} {
		s := checkAgainstReference(t, fmt.Sprintf("spawn-crash workers-%d", workers), spawnCrashProg(nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: workers})
		if s.Handoffs == 0 || s.DirectOps == 0 {
			t.Fatalf("workers-%d: Handoffs %d, DirectOps %d: want both positive", workers, s.Handoffs, s.DirectOps)
		}
	}
}

// yieldWorkers returns n workers that each yield ops times; if panicAt > 0,
// worker 1 panics at its panicAt-th step instead.
func yieldWorkers(n, ops, panicAt int) []func(*pmm.Thread) {
	workers := make([]func(*pmm.Thread), n)
	for w := range workers {
		w := w
		workers[w] = func(t *pmm.Thread) {
			for i := 1; i <= ops; i++ {
				if w == 1 && i == panicAt {
					panic("workload bug")
				}
				t.Yield()
			}
		}
	}
	return workers
}

// TestWorkloadPanicReleasesThreads: a workload panic, or the MaxOps
// watchdog, re-raises in the caller only after every simulated thread has
// unwound — repeated failing runs in one process (a resident service
// recovers them into failed jobs) must not leave parked goroutines behind.
func TestWorkloadPanicReleasesThreads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers []func(*pmm.Thread)
		opts    engine.Options
	}{
		{"workload-panic", yieldWorkers(3, 20, 5), engine.Options{Prefix: true}},
		{"maxops-watchdog", yieldWorkers(3, 1000, 0), engine.Options{Prefix: true, MaxOps: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() pmm.Program { return pmm.Program{Name: tc.name, Workers: tc.workers} }
			base := runtime.NumGoroutine()
			for seed := int64(1); seed <= 20; seed++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("seed %d: the run did not re-raise the panic", seed)
						}
					}()
					engine.RunOne(mk, tc.opts, 0, engine.PersistLatest, seed)
				}()
			}
			// The last thread signals the caller just before its goroutine
			// returns; give the stragglers a moment to finish.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("goroutines: %d before 20 panicking runs, %d after: simulated threads leaked", base, n)
			}
		})
	}
}
