package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"yashme/internal/pmm"
)

// ctxProbe is a small model-checkable program; onWorker runs at the top of
// every pre-crash worker body (the tests use it to cancel the context from
// inside the run).
func ctxProbe(onWorker func()) func() pmm.Program {
	return func() pmm.Program {
		var val pmm.Addr
		return pmm.Program{
			Name: "ctx-probe",
			Setup: func(h *pmm.Heap) {
				val = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "v", Size: 8}})).F("v")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				if onWorker != nil {
					onWorker()
				}
				for i := 0; i < 8; i++ {
					t.Store64(val, uint64(i))
					t.CLFlush(val)
					t.SFence()
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(val)
			},
		}
	}
}

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline, failing if worker goroutines leaked past the run.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
}

// A context cancelled before the run starts yields a well-formed empty
// result without simulating a single operation.
func TestRunContextPreCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunContext(ctx, ctxProbe(nil), Options{Mode: ModelCheck, Prefix: true, Workers: 4})
	if !res.Cancelled {
		t.Fatal("pre-cancelled run not marked Cancelled")
	}
	if res.Stats.SimulatedOps != 0 {
		t.Fatalf("pre-cancelled run simulated %d ops, want 0", res.Stats.SimulatedOps)
	}
	if res.Report.Count() != 0 {
		t.Fatalf("pre-cancelled run reported %d races", res.Report.Count())
	}
	waitGoroutines(t, base)
}

// Cancelling mid-run stops at the next scenario boundary: the run returns
// a partial result strictly smaller than the full exploration, with every
// worker goroutine drained. Exercised for both modes.
func TestRunContextCancelMidRun(t *testing.T) {
	for _, mode := range []Mode{ModelCheck, RandomMode} {
		opts := Options{Mode: mode, Prefix: true, Workers: 4, Executions: 8, Seed: 3}
		full := Run(ctxProbe(nil), opts)
		if full.Cancelled {
			t.Fatalf("mode %v: uncancelled run marked Cancelled", mode)
		}

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		res := RunContext(ctx, ctxProbe(func() { once.Do(cancel) }), opts)
		if !res.Cancelled {
			t.Fatalf("mode %v: cancelled run not marked Cancelled", mode)
		}
		if res.Stats.SimulatedOps == 0 {
			t.Fatalf("mode %v: cancellation from inside the program should leave the probe's ops", mode)
		}
		if res.Stats.SimulatedOps >= full.Stats.SimulatedOps {
			t.Fatalf("mode %v: cancelled run simulated %d ops, full run %d — nothing was skipped",
				mode, res.Stats.SimulatedOps, full.Stats.SimulatedOps)
		}
		waitGoroutines(t, base)
	}
}

// A cancelled context makes AcquireCtx fail without consuming tokens, and
// a held token still blocks other acquirers until released.
func TestBudgetAcquireCtx(t *testing.T) {
	b := NewBudget(1)
	ctx := context.Background()
	if !b.AcquireCtx(ctx) {
		t.Fatal("AcquireCtx on a free budget failed")
	}
	if b.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", b.InUse())
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if b.AcquireCtx(cancelled) {
		t.Fatal("AcquireCtx succeeded on a cancelled context")
	}
	timed, cancelTimed := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelTimed()
	if b.AcquireCtx(timed) { // budget saturated: must give up at the deadline
		t.Fatal("AcquireCtx succeeded on a saturated budget")
	}
	b.Release()
	if b.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", b.InUse())
	}
	var nilB *Budget
	if !nilB.AcquireCtx(ctx) {
		t.Fatal("nil budget AcquireCtx with live context failed")
	}
	if nilB.AcquireCtx(cancelled) {
		t.Fatal("nil budget AcquireCtx ignored cancellation")
	}
}
