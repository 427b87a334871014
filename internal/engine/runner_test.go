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
				obj := h.AllocStruct("obj", pmm.Compile(pmm.Layout{{Name: "data", Size: 8}, {Name: "flag", Size: 8}}))
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
