package yashme_test

import (
	"fmt"

	"yashme"
)

// ExampleRun detects the paper's Figure 1 persistency race: a non-atomic
// 64-bit store that a compiler may tear, flushed too late to survive every
// crash.
func ExampleRun() {
	// Compile the layout once: the engine re-runs Setup per crash scenario.
	typ := yashme.Compile(yashme.Layout{{Name: "val", Size: 8}})
	ref := typ.Ref("val")
	makeProg := func() yashme.Program {
		var val yashme.Addr
		return yashme.Program{
			Name: "figure1",
			Setup: func(h *yashme.Heap) {
				val = h.AllocStruct("pmobj", typ).At(ref)
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				t.Store64(val, 0x1234567812345678)
				t.CLFlush(val)
			}},
			PostCrash: func(t *yashme.Thread) { t.Load64(val) },
		}
	}
	res := yashme.Run(makeProg, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	for _, race := range res.Report.Races() {
		fmt.Println(race.Field)
	}
	// Output: pmobj.val
}

// ExampleRun_fixed shows the paper's recommended repair: committing through
// an atomic release store (a plain mov on x86, but no tearing allowed)
// removes the race entirely.
func ExampleRun_fixed() {
	// Compile the layout once: the engine re-runs Setup per crash scenario.
	typ := yashme.Compile(yashme.Layout{{Name: "val", Size: 8}})
	ref := typ.Ref("val")
	makeProg := func() yashme.Program {
		var val yashme.Addr
		return yashme.Program{
			Name: "figure1-fixed",
			Setup: func(h *yashme.Heap) {
				val = h.AllocStruct("pmobj", typ).At(ref)
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				t.StoreRelease64(val, 0x1234567812345678) // the fix
				t.CLFlush(val)
			}},
			PostCrash: func(t *yashme.Thread) { t.LoadAcquire64(val) },
		}
	}
	res := yashme.Run(makeProg, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	fmt.Println("races:", res.Report.Count())
	// Output: races: 0
}

// ExampleRun_baseline contrasts the prefix expansion with the naive
// detector on the same single-execution exploration: crashing only at
// completion, the baseline is blind (the store was flushed) while the
// prefix detector still derives the racy execution.
func ExampleRun_baseline() {
	// Compile the layout once: the engine re-runs Setup per crash scenario.
	typ := yashme.Compile(yashme.Layout{{Name: "x", Size: 8}})
	ref := typ.Ref("x")
	makeProg := func() yashme.Program {
		var val yashme.Addr
		return yashme.Program{
			Name: "window",
			Setup: func(h *yashme.Heap) {
				val = h.AllocStruct("o", typ).At(ref)
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				t.Store64(val, 7)
				t.CLFlush(val)
			}},
			PostCrash: func(t *yashme.Thread) { t.Load64(val) },
		}
	}
	prefix := yashme.RunOnce(makeProg, yashme.Options{Prefix: true}, 0, yashme.PersistLatest, 1)
	baseline := yashme.RunOnce(makeProg, yashme.Options{Prefix: false}, 0, yashme.PersistLatest, 1)
	fmt.Println("prefix:", prefix.Report.Count(), "baseline:", baseline.Report.Count())
	// Output: prefix: 1 baseline: 0
}
