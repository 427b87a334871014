package engine_test

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
)

// deferProg is a one-worker program whose only store to flag is deferred
// around a clwb: a crash at the clwb unwinds the worker, and the deferred
// store — an operation after the power loss — must never execute. seen
// receives every flag value recovery reads.
func deferProg(seen *[]uint64) func() pmm.Program {
	return func() pmm.Program {
		var data, flag pmm.Addr
		return pmm.Program{
			Name: "defer",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("obj", pmm.Layout{{Name: "data", Size: 8}, {Name: "flag", Size: 8}})
				data, flag = obj.F("data"), obj.F("flag")
				h.Init(data, 8, 0)
				h.Init(flag, 8, 0)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				defer t.Store64(flag, 1)
				t.Store64(data, 7)
				t.CLWB(data)
			}},
			PostCrash: func(t *pmm.Thread) {
				v := t.Load64(flag)
				if seen != nil {
					*seen = append(*seen, v)
				}
			},
		}
	}
}

// TestCrashDiscardsDeferredOps: a crash discards every operation after it,
// including the ones a crashed thread issues while it unwinds.
func TestCrashDiscardsDeferredOps(t *testing.T) {
	var seen []uint64
	res := engine.RunOne(deferProg(&seen), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1}, 1, engine.PersistLatest, 1)
	if len(seen) != 1 || seen[0] != 0 {
		t.Errorf("recovery read flag = %v, want [0]: the deferred store ran after the crash", seen)
	}
	if res.Stats.Stores != 1 {
		t.Errorf("Stats.Stores = %d, want 1 (only the store before the crash)", res.Stats.Stores)
	}
	if n := res.Report.Count(); n != 0 {
		t.Errorf("crash at the clwb reported %d races, want none:\n%s", n, res.Report)
	}

	// The full sweep: a resumed scenario never runs the worker's unwinding,
	// so a re-simulated one must not either — both modes count the same
	// stores and report the same races down to the racing store's sequence
	// number.
	runs := map[engine.CheckpointMode]*engine.Result{}
	for _, ck := range []engine.CheckpointMode{engine.CheckpointOn, engine.CheckpointOff} {
		runs[ck] = engine.Run(deferProg(nil), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1, Checkpoint: ck})
	}
	if on, off := runs[engine.CheckpointOn].Stats.Stores, runs[engine.CheckpointOff].Stats.Stores; on != off {
		t.Errorf("Stats.Stores: checkpoint on %d, off %d", on, off)
	}
	on, off := runs[engine.CheckpointOn].Report.Races(), runs[engine.CheckpointOff].Report.Races()
	if len(on) != len(off) {
		t.Fatalf("checkpoint on reports %d races, off %d:\non:  %v\noff: %v", len(on), len(off), on, off)
	}
	for i := range on {
		if on[i].Field != off[i].Field || on[i].StoreSeq != off[i].StoreSeq {
			t.Errorf("race %d: checkpoint on %s store_seq=%d, off %s store_seq=%d",
				i, on[i].Field, on[i].StoreSeq, off[i].Field, off[i].StoreSeq)
		}
	}
}

// spawnProg is a workload whose sole worker starts a sibling mid-execution
// (pmm.Thread.Go): the scheduler grants the solo lease, then must revoke it
// the moment the second thread becomes runnable.
func spawnProg() pmm.Program {
	var a, b pmm.Addr
	return pmm.Program{
		Name: "spawn",
		Setup: func(h *pmm.Heap) {
			obj := h.AllocStruct("obj", pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
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

// TestDirectRunLeaseRevocation: a spawn mid-lease revokes it. The run must
// count both DirectOps (the solo phases before the spawn and during
// recovery) and Handoffs (the two-thread phase after it), the two must
// split SimulatedOps exactly, and the verdict must match the re-simulating
// reference run.
func TestDirectRunLeaseRevocation(t *testing.T) {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1}
	res := engine.Run(spawnProg, opts)
	s := res.Stats
	if s.DirectOps == 0 {
		t.Error("lease never fired before the spawn (DirectOps = 0)")
	}
	if s.Handoffs == 0 {
		t.Error("lease was not revoked at the spawn (Handoffs = 0)")
	}
	if s.Handoffs+s.DirectOps != s.SimulatedOps {
		t.Errorf("Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)", s.Handoffs, s.DirectOps, s.SimulatedOps)
	}
	opts.Checkpoint = engine.CheckpointOff
	if ref := engine.Run(spawnProg, opts); ref.Report.String() != res.Report.String() {
		t.Errorf("reports diverge from the re-simulating run:\n%s\nvs\n%s", res.Report, ref.Report)
	}
}
