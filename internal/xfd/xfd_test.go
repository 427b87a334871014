package xfd_test

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
	"yashme/internal/report"
)

// xfdRun explores every crash point of a program with the xfd pass through
// the engine (the mini-runner's semantics: one sequential schedule, a
// failure before every flush/fence point plus the completion power loss).
func xfdRun(mk func() pmm.Program) *report.Set {
	return engine.Run(mk, xfdEngineOpts()).Report
}

// xfdAtCompletion runs only the failure-at-completion scenario.
func xfdAtCompletion(mk func() pmm.Program) *report.Set {
	return engine.RunOne(mk, xfdEngineOpts(), 0, engine.PersistLatest, 1).Report
}

// figure5b is the paper's Figure 5(b) program: the store IS flushed before
// the crash window closes. Yashme's prefix detector reports the persistency
// race; the cross-failure detector structurally cannot (a persisted store
// is always clean in its FSM).
func figure5b() pmm.Program {
	var x pmm.Addr
	return pmm.Program{
		Name: "figure5b",
		Setup: func(h *pmm.Heap) {
			x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(x, 1)
			t.CLFlush(x)
			t.SFence()
			t.Store64(x, 2) // keeps a later failure point available
			t.CLFlush(x)
			t.SFence()
		}},
		PostCrash: func(t *pmm.Thread) { t.Load64(x) },
	}
}

// The central §1/§8 comparison, executable: on a program whose store is
// flushed in time, the cross-failure detector is blind at the crash points
// where Yashme's prefix analysis still derives the race.
func TestCrossFailureDetectorMissesPersistencyRaces(t *testing.T) {
	// Yashme (prefix): finds the race on o.x.
	y := engine.Run(figure5b, engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if y.Report.Count() != 1 {
		t.Fatalf("yashme races = %d, want 1", y.Report.Count())
	}
	// Crash at completion only (both stores persisted): XFDetector sees a
	// clean FSM — no cross-failure race, no persistency race, nothing.
	set := xfdAtCompletion(figure5b)
	if set.Count() != 0 {
		t.Fatalf("cross-failure detector reported %d races on the fully-flushed execution", set.Count())
	}
}

// The detector DOES find genuine cross-failure races: reading a store that
// was never flushed.
func TestCrossFailureDetectorFindsUnflushedReads(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "unflushed",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1) // never flushed
				t.SFence()      // a failure point, but x has no clwb
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	set := xfdRun(mk)
	if set.Count() != 1 {
		t.Fatalf("cross-failure races = %d, want 1", set.Count())
	}
	if set.Races()[0].Field != "o.x" {
		t.Fatalf("race field = %q", set.Races()[0].Field)
	}
}

// clwb alone is not persistence; clwb+fence is — mirrored in the FSM.
func TestFSMWritebackNeedsFence(t *testing.T) {
	mkNoFence := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "wb-nofence",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.CLWB(x) // no fence
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	if got := xfdRun(mkNoFence).Count(); got != 1 {
		t.Fatalf("clwb-without-fence races = %d, want 1", got)
	}
	mkFence := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "wb-fence",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.Persist(x, 8)
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	// Failure AT the persist points still races; at completion it is clean.
	set := xfdAtCompletion(mkFence)
	if set.Count() != 0 {
		t.Fatalf("persisted store flagged: %v", set.Races())
	}
}

// Guarded (checksum-validation) reads are skipped, like Yashme's benign
// classification.
func TestGuardedReadsSkipped(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "guarded",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.SFence()
			}},
			PostCrash: func(t *pmm.Thread) {
				t.ChecksumGuard(func() { t.Load64(x) })
			},
		}
	}
	if got := xfdRun(mk).Count(); got != 0 {
		t.Fatalf("guarded read flagged: %d", got)
	}
}

// On CCEH, both detectors report something — but different bug classes:
// the cross-failure detector flags unpersisted reads in crash windows,
// while ONLY Yashme reports races on stores that were flushed before the
// crash (the prefix-derived persistency races).
func TestComparisonOnCCEH(t *testing.T) {
	xfdSet := xfdRun(cceh.New(4, nil))
	yash := engine.Run(cceh.New(4, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})

	flushedRaces := 0
	for _, r := range yash.Report.Races() {
		if r.Flushed {
			flushedRaces++
		}
	}
	if flushedRaces == 0 {
		t.Fatal("yashme found no flushed-store races on CCEH (comparison premise broken)")
	}
	// The cross-failure detector's reports all concern unpersisted data;
	// it can never attribute a race to a store it saw flushed. Its model
	// also cannot mark anything 'Flushed'.
	for _, r := range xfdSet.Races() {
		if r.Flushed {
			t.Fatalf("cross-failure detector claimed a flushed-store race: %v", r)
		}
	}
}

// The other side of the class difference: an unpersisted ATOMIC store is a
// cross-failure race (reading unpersisted data) but can never be a
// persistency race (atomic stores cannot tear) — neither detector's
// findings contain the other's in general.
func TestAtomicUnpersistedIsCrossFailureOnly(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "atomic-unflushed",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.StoreRelease64(x, 1) // atomic, never flushed
				t.SFence()
			}},
			PostCrash: func(t *pmm.Thread) { t.LoadAcquire64(x) },
		}
	}
	if got := xfdRun(mk).Count(); got != 1 {
		t.Fatalf("cross-failure races = %d, want 1 (unpersisted read)", got)
	}
	y := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if y.Report.Count() != 0 {
		t.Fatalf("yashme races = %d, want 0 (atomic stores cannot tear)", y.Report.Count())
	}
}
