package compiler

import (
	"testing"

	"yashme/internal/engine"
)

// The full Figure 1 pipeline, with no synthetic torn values anywhere: the
// source IR stores 0x1234567812345678 as ONE 64-bit store; gcc's ARM64
// backend splits it into two 32-bit stores; model checking the compiled
// program finds a crash point between the halves' commits, and the
// post-crash execution reads a half-written value.
func TestLoweredTearingEndToEnd(t *testing.T) {
	source := Program{Name: "figure1", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0x1234567812345678)},
	}}}
	compiled := NewPipeline(GCC, ARM64).Compile(source)
	if compiled.CountStores() != 2 {
		t.Fatalf("compiled stores = %d, want 2", compiled.CountStores())
	}

	lp := Lower(compiled, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})

	// Both halves race (they are independent non-atomic stores).
	if res.Report.Count() != 2 {
		t.Fatalf("compiled program races = %d, want 2 (both halves)\n%s", res.Report.Count(), res.Report)
	}

	// Some explored execution persisted the low half but not the high one:
	// the combined 64-bit value is the paper's 0x12345678.
	torn := false
	full := false
	los, his := lp.Observed(0), lp.Observed(4)
	for i := range los {
		combined := los[i] | his[i]<<32
		switch combined {
		case 0x12345678:
			torn = true
		case 0x1234567812345678:
			full = true
		}
	}
	if !torn {
		t.Fatalf("no execution observed the torn value; lo=%x hi=%x", los, his)
	}
	if !full {
		t.Fatal("no execution observed the fully persisted value")
	}
}

// The uncompiled source (one wide store) reports a single race at the same
// crash points: compilation changes the failure surface, not the verdict.
func TestUncompiledSourceSingleRace(t *testing.T) {
	source := Program{Name: "figure1-src", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0x1234567812345678)},
	}}}
	lp := Lower(source, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() != 1 {
		t.Fatalf("source program races = %d, want 1", res.Report.Count())
	}
}

// A coalesced memset is byte-granular: crashing mid-call leaves the region
// partially written, which the detector reports per written word.
func TestLoweredMemsetRaces(t *testing.T) {
	source := Program{Name: "zeroinit", Routines: []Routine{{
		Name: "ctor",
		Ops: []Op{
			St(0, 8, 0xAAAAAAAAAAAAAAAA), // pre-existing data
			St(8, 8, 0xBBBBBBBBBBBBBBBB),
			St(16, 8, 0xCCCCCCCCCCCCCCCC),
			ZeroSt(0, 8), ZeroSt(8, 8), ZeroSt(16, 8), // zeroing run → memset
		},
	}}}
	compiled := NewPipeline(Clang, X86_64).Compile(source)
	if compiled.CountMemOps() != 1 {
		t.Fatalf("memops = %d, want 1 (coalesced memset)", compiled.CountMemOps())
	}
	lp := Lower(compiled, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() == 0 {
		t.Fatal("memset-compiled program reported no races")
	}
}

// Atomic stores survive compilation untouched and stay race-free when the
// recovery observes a later operation... they simply never race.
func TestLoweredAtomicStoreSafe(t *testing.T) {
	source := Program{Name: "atomic", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{AtomicSt(0, 8, 42)},
	}}}
	compiled := NewPipeline(GCC, ARM64).Compile(source)
	if compiled.CountStores() != 0 { // CountStores counts plain stores only
		t.Fatal("atomic store was compiled into plain stores")
	}
	lp := Lower(compiled, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() != 0 {
		t.Fatalf("atomic program raced: %s", res.Report)
	}
}

// Copy runs lowered as memcpy read the source region and write the
// destination; the copied destination races like any non-atomic data.
func TestLoweredMemcpy(t *testing.T) {
	source := Program{Name: "copy", Routines: []Routine{{
		Name: "main",
		Ops: append(
			[]Op{St(256, 8, 0x11), St(264, 8, 0x22), St(272, 8, 0x33)}, // source data
			copyRun(0, 256, 3)...),
	}}}
	compiled := NewPipeline(Clang, X86_64).Compile(source)
	if compiled.CountMemOps() != 1 {
		t.Fatalf("memops = %d, want 1 (memcpy)", compiled.CountMemOps())
	}
	lp := Lower(compiled, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() == 0 {
		t.Fatal("memcpy-compiled program reported no races")
	}
	// In the fully-persisted completion scenario, the copy round-trips.
	foundCopied := false
	for _, v := range lp.Observed(0) {
		if v == 0x11 {
			foundCopied = true
		}
	}
	if !foundCopied {
		t.Fatalf("copied value never observed: %x", lp.Observed(0))
	}
}

// Store inventing (§3.2): the compiler stashes a half-built temporary into
// the destination before the real store. The invented store is a fresh
// non-atomic commit, so a crash between the two persists garbage the
// program never wrote — the detector flags it, and a post-crash read can
// actually observe the temporary.
func TestInventedStoreEndToEnd(t *testing.T) {
	source := Program{Name: "invent", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0xDEADBEEF00C0FFEE)},
	}}}
	invented := InventStores{}.Apply(source.Routines[0])
	if len(invented.Ops) != 2 {
		t.Fatalf("invented ops = %d, want 2", len(invented.Ops))
	}
	if !invented.Ops[0].(Store).Invented {
		t.Fatal("first op not marked invented")
	}

	lp := Lower(Program{Name: "invent", Routines: []Routine{invented}}, true)
	res := engine.Run(lp.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() == 0 {
		t.Fatal("invented-store program reported no races")
	}
	// Some execution observes the stashed temporary (0xFFEE), which the
	// source program never stored.
	sawTemporary := false
	for _, v := range lp.Observed(0) {
		if v == 0xDEADBEEF00C0FFEE&0xFFFF {
			sawTemporary = true
		}
	}
	if !sawTemporary {
		t.Fatalf("the invented temporary was never observed: %x", lp.Observed(0))
	}
}

// Atomic stores are immune to store inventing.
func TestInventStoresPreservesAtomics(t *testing.T) {
	r := Routine{Ops: []Op{AtomicSt(0, 8, 5)}}
	out := InventStores{}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatal("atomic store got an invented companion")
	}
}
