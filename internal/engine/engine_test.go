package engine

import (
	"reflect"
	"strings"
	"testing"

	"yashme/internal/pmm"
)

// figure1 builds the paper's Figure 1 program: a non-atomic 64-bit store
// followed by a clflush; the post-crash execution reads the field. observed
// collects the values the post-crash runs saw.
func figure1(observed *[]uint64) func() pmm.Program {
	return func() pmm.Program {
		var val pmm.Addr
		return pmm.Program{
			Name: "figure1",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("pmobj", pmm.Compile(pmm.Layout{{Name: "val", Size: 8}}))
				val = obj.F("val")
				h.Init(val, 8, 0)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(val, 0x1234567812345678)
				t.CLFlush(val)
			}},
			PostCrash: func(t *pmm.Thread) {
				if v := t.Load64(val); v != 0 && observed != nil {
					*observed = append(*observed, v)
				}
			},
		}
	}
}

func TestFigure1ModelCheckFindsRace(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	races := res.Report.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v, want exactly one", races)
	}
	if races[0].Field != "pmobj.val" {
		t.Errorf("race field = %q, want pmobj.val", races[0].Field)
	}
	if res.CrashPoints != 1 {
		t.Errorf("crash points = %d, want 1 (the clflush)", res.CrashPoints)
	}
	if res.ExecutionsRun == 0 {
		t.Error("no executions recorded")
	}
}

// The prefix expansion finds the Figure 1 race even when the only injected
// crash falls AFTER the clflush (crash at completion); the baseline cannot.
func TestPrefixExpandsDetectionWindow(t *testing.T) {
	mk := figure1(nil)
	// Only explore c=0 (completion crash) by crashing past every point:
	// plan{} means run to completion, so drive scenarios directly.
	for _, prefix := range []bool{true, false} {
		sc := newScenario(mk, Options{Prefix: prefix}.withDefaults(), plan{}, PersistLatest, 1)
		sc.run()
		n := sc.det.Report().Count()
		if prefix && n != 1 {
			t.Errorf("prefix mode found %d races at completion crash, want 1", n)
		}
		if !prefix && n != 0 {
			t.Errorf("baseline found %d races at completion crash, want 0 (store was flushed)", n)
		}
	}
}

func TestTornValueSynthesis(t *testing.T) {
	var observed []uint64
	// Workers: 1 — the program writes the shared observed slice.
	Run(figure1(&observed), Options{Mode: ModelCheck, Prefix: true, TornValues: true,
		PersistPolicies: []PersistPolicy{PersistLatest}, Workers: 1})
	// Crashing before the clflush and persisting the (racing) store yields
	// the torn value: low half of the new value, high half of the old (0).
	want := uint64(0x12345678)
	found := false
	for _, v := range observed {
		if v == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("torn value %#x not observed; got %#x", want, observed)
	}
}

func TestTornValueHelper(t *testing.T) {
	if got := tornValue(0, 0x1234567812345678, 8); got != 0x12345678 {
		t.Errorf("tornValue 64-bit = %#x", got)
	}
	if got := tornValue(0xAAAAAAAA, 0x11112222, 4); got != 0xAAAA2222 {
		t.Errorf("tornValue 32-bit = %#x", got)
	}
	if got := tornValue(0xFF00, 0x1122, 2); got != 0xFF22 {
		t.Errorf("tornValue 16-bit = %#x", got)
	}
}

// Atomic release stores do not race, and a post-crash execution that first
// reads a later release store on the same line is coherence-protected when
// it then reads the non-atomic neighbour.
func TestCoherenceProtectionEndToEnd(t *testing.T) {
	mk := func() pmm.Program {
		var x, y pmm.Addr
		return pmm.Program{
			Name: "coherence",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("obj", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}, {Name: "y", Size: 8}}))
				x, y = obj.F("x"), obj.F("y")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)        // non-atomic
				t.StoreRelease64(y, 1) // atomic release, same line
				t.CLFlush(x)           // flush the line
			}},
			PostCrash: func(t *pmm.Thread) {
				if t.LoadAcquire64(y) == 1 { // reads y first
					t.Load64(x)
				}
			},
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	// Scenarios where y reads 1 are protected; scenarios where y reads 0
	// never load x. Either way x must not be reported.
	for _, r := range res.Report.Races() {
		if r.Field == "obj.x" {
			t.Fatalf("coherence-protected field reported: %v", r)
		}
	}
}

// Without reading the release store first, the same layout races.
func TestNoCoherenceWithoutAtomicRead(t *testing.T) {
	mk := func() pmm.Program {
		var x, y pmm.Addr
		return pmm.Program{
			Name: "nocoherence",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("obj", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}, {Name: "y", Size: 8}}))
				x, y = obj.F("x"), obj.F("y")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.StoreRelease64(y, 1)
				t.CLFlush(x)
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(x) // reads x FIRST: Def 5.1 cond 2 does not apply
			},
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	fields := res.Report.Fields()
	if len(fields) != 1 || fields[0] != "obj.x" {
		t.Fatalf("races = %v, want [obj.x]", fields)
	}
}

// clwb+sfence persists; crashing before the sfence leaves the window open.
func TestCLWBSFencePoints(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "clwb",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 5)
				t.CLWB(x)
				t.SFence()
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	if res.CrashPoints != 2 {
		t.Fatalf("crash points = %d, want 2 (clwb, sfence)", res.CrashPoints)
	}
	if res.Report.Count() != 1 {
		t.Fatalf("races = %d, want 1", res.Report.Count())
	}
}

func TestPersistPolicies(t *testing.T) {
	run := func(pp PersistPolicy) uint64 {
		var got uint64
		mk := func() pmm.Program {
			var x pmm.Addr
			return pmm.Program{
				Name: "pp",
				Setup: func(h *pmm.Heap) {
					x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
					h.Init(x, 8, 1)
				},
				Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
					t.Store64(x, 5)
					t.CLFlush(x) // 5 is guaranteed persisted
					t.Store64(x, 7)
				}},
				PostCrash: func(t *pmm.Thread) { got = t.Load64(x) },
			}
		}
		sc := newScenario(mk, Options{Prefix: true}.withDefaults(), plan{}, pp, 1)
		sc.run()
		return got
	}
	if v := run(PersistLatest); v != 7 {
		t.Errorf("PersistLatest read %d, want 7", v)
	}
	if v := run(PersistMinimal); v != 5 {
		t.Errorf("PersistMinimal read %d, want 5 (the flushed value)", v)
	}
}

func TestDetectorOffReportsNothing(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true, DetectorOff: true})
	if res.Report.Count() != 0 || res.Report.BenignCount() != 0 {
		t.Fatalf("detector-off run reported races: %v", res.Report)
	}
	if res.ExecutionsRun == 0 {
		t.Fatal("detector-off run did not execute")
	}
}

func TestChecksumGuardedRacesAreBenign(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "guarded",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 5)
				t.CLFlush(x)
			}},
			PostCrash: func(t *pmm.Thread) {
				t.ChecksumGuard(func() { t.Load64(x) })
			},
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("harmful races = %d, want 0", res.Report.Count())
	}
	if res.Report.BenignCount() != 1 {
		t.Fatalf("benign races = %d, want 1", res.Report.BenignCount())
	}
}

// Multi-crash: a race in the recovery procedure needs a second crash
// (paper §6: the execution stack).
func TestRecoveryRaceNeedsSecondCrash(t *testing.T) {
	mk := func() pmm.Program {
		var a, b pmm.Addr
		return pmm.Program{
			Name: "recovery",
			Setup: func(h *pmm.Heap) {
				o := h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "a", Size: 8}}))
				a = o.F("a")
				o2 := h.AllocStruct("rec", pmm.Compile(pmm.Layout{{Name: "b", Size: 8}}))
				b = o2.F("b")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(a, 1)
				t.CLFlush(a)
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(a)
				t.Load64(b)     // race-observing read of the previous recovery's store
				t.Store64(b, 2) // recovery-side non-atomic store
				t.CLFlush(b)    // recovery crash point: crash before this
			},
		}
	}
	// Without recovery crashes, "rec.b" is never read across a crash.
	res := Run(mk, Options{Mode: ModelCheck, Prefix: false, PersistPolicies: []PersistPolicy{PersistLatest}})
	for _, r := range res.Report.Races() {
		if r.Field == "rec.b" {
			t.Fatalf("rec.b reported without recovery crashes: %v", r)
		}
	}
	// With recovery crashes the recovery-side store races in execution 1.
	res = Run(mk, Options{Mode: ModelCheck, Prefix: false, RecoveryCrashes: 3,
		PersistPolicies: []PersistPolicy{PersistLatest}})
	found := false
	for _, r := range res.Report.Races() {
		if r.Field == "rec.b" {
			found = true
			if r.ExecID < 1 {
				t.Errorf("recovery race attributed to execution %d, want >= 1", r.ExecID)
			}
		}
	}
	if !found {
		t.Fatal("recovery-execution race not found with RecoveryCrashes")
	}
}

// The §4.2 multithreaded scenario end to end: thread 1 stores+flushes z,
// thread 2 release-stores a flag on another line. The post-crash execution
// reads the flag then z. Prefix mode derives the race even though no single
// crash point in the schedule leaves z stored-but-unflushed with the flag
// set.
func TestMultithreadedPrefixScenario(t *testing.T) {
	mk := func() pmm.Program {
		var z, f pmm.Addr
		return pmm.Program{
			Name: "mt",
			Setup: func(h *pmm.Heap) {
				z = h.AllocStruct("zz", pmm.Compile(pmm.Layout{{Name: "z", Size: 8}})).F("z")
				f = h.AllocStruct("ff", pmm.Compile(pmm.Layout{{Name: "f", Size: 8}})).F("f")
			},
			Workers: []func(*pmm.Thread){
				func(t *pmm.Thread) {
					t.Store64(z, 7)
					t.CLFlush(z)
				},
				func(t *pmm.Thread) {
					t.StoreRelease64(f, 1)
				},
			},
			PostCrash: func(t *pmm.Thread) {
				t.LoadAcquire64(f)
				t.Load64(z)
			},
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	found := false
	for _, r := range res.Report.Races() {
		if r.Field == "zz.z" {
			found = true
		}
	}
	if !found {
		t.Fatal("multithreaded prefix race not found")
	}
}

func TestRandomModeIsSeededAndDeterministic(t *testing.T) {
	// Workers: 1 — the program writes the shared observed slice.
	var observed []uint64
	a := Run(figure1(&observed), Options{Mode: RandomMode, Prefix: true, Seed: 42, Executions: 10, Workers: 1})
	b := Run(figure1(&observed), Options{Mode: RandomMode, Prefix: true, Seed: 42, Executions: 10, Workers: 1})
	if a.Report.Count() != b.Report.Count() || a.CrashPoints != b.CrashPoints {
		t.Fatalf("same seed diverged: %d/%d races, %d/%d points",
			a.Report.Count(), b.Report.Count(), a.CrashPoints, b.CrashPoints)
	}
}

func TestRandomModeFindsFigure1Race(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: RandomMode, Prefix: true, Seed: 7, Executions: 10})
	if res.Report.Count() != 1 {
		t.Fatalf("random mode races = %d, want 1", res.Report.Count())
	}
}

func TestStatsAccumulate(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	if res.Stats.Stores == 0 || res.Stats.Loads == 0 || res.Stats.Flushes == 0 {
		t.Fatalf("stats not accumulated: %+v", res.Stats)
	}
}

// TestStatsAddCoversEveryCounter: Stats.Add sums every int64 field, so a
// counter added to Stats cannot be silently dropped from the totals.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s, want int64", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(1)
	}
	s.Add(s)
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Int(); got != 2 {
			t.Errorf("Stats.%s = %d after adding 1 to 1, want 2", v.Type().Field(i).Name, got)
		}
	}
}

func TestUnwrittenAddressReadsZeroPostCrash(t *testing.T) {
	var got uint64 = 99
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "zero",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers:   []func(*pmm.Thread){func(t *pmm.Thread) { t.SFence() }},
			PostCrash: func(t *pmm.Thread) { got = t.Load64(x) },
		}
	}
	// Workers: 1 — the program writes the shared got variable.
	Run(mk, Options{Mode: ModelCheck, Prefix: true, Workers: 1})
	if got != 0 {
		t.Fatalf("unwritten address read %d, want 0", got)
	}
}

// Memset decomposes into non-atomic field stores and races per field.
func TestMemsetRacesPerField(t *testing.T) {
	mk := func() pmm.Program {
		var s pmm.Struct
		return pmm.Program{
			Name: "memset",
			Setup: func(h *pmm.Heap) {
				s = h.AllocStruct("node", pmm.Compile(pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Memset(s.Base(), s.Size(), 0xAB)
				t.CLFlush(s.Base())
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(s.F("a"))
				t.Load64(s.F("b"))
			},
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	fields := res.Report.Fields()
	if len(fields) != 2 || fields[0] != "node.a" || fields[1] != "node.b" {
		t.Fatalf("memset races = %v, want [node.a node.b]", fields)
	}
}

// CAS-committed stores are atomic and never race.
func TestCASStoreIsAtomic(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "cas",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.CAS64(x, 0, 9)
				t.CLFlush(x)
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("CAS store raced: %v", res.Report.Races())
	}
}

func TestModelCheckDeterminism(t *testing.T) {
	a := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	b := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	if a.Report.String() != b.Report.String() {
		t.Fatal("model check runs diverged")
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestMaxCrashPointsCap(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "many",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for i := 0; i < 10; i++ {
					t.Store64(x, uint64(i))
					t.CLFlush(x)
				}
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true, MaxCrashPoints: 3,
		PersistPolicies: []PersistPolicy{PersistLatest}})
	// probe not counted in ExecutionsRun; c=0..3 → 4 scenarios.
	if res.ExecutionsRun != 4 {
		t.Fatalf("executions = %d, want 4 (cap applied)", res.ExecutionsRun)
	}
	if res.CrashPoints != 10 {
		t.Fatalf("probed crash points = %d, want 10", res.CrashPoints)
	}
}

// With tracing on, each race report carries a witness: the race-revealing
// pre-crash prefix (events on the store's cache line), the crash, and the
// post-crash observation (§5.1).
func TestWitnessAttachedToRaces(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true, Trace: true})
	races := res.Report.Races()
	if len(races) != 1 {
		t.Fatalf("races = %d", len(races))
	}
	w := races[0].Witness
	for _, want := range []string{"pmobj.val", "* ", "CRASH", "> "} {
		if !contains(w, want) {
			t.Fatalf("witness missing %q:\n%s", want, w)
		}
	}
}

func TestNoWitnessWithoutTracing(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	if res.Report.Races()[0].Witness != "" {
		t.Fatal("witness attached without tracing")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// eADR end to end (§7.5): on an eADR platform the Figure 1 race persists
// (the torn store itself), and the detector finds a subset of the default
// mode's races on every benchmark-shaped program.
func TestEADREndToEnd(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true, EADR: true})
	if res.Report.Count() != 1 {
		t.Fatalf("eADR races = %d, want 1 (the torn trailing store)", res.Report.Count())
	}

	// A store followed by another observed store is eADR-safe but races in
	// the default mode when unflushed.
	mk := func() pmm.Program {
		var x, z pmm.Addr
		return pmm.Program{
			Name: "eadr-subset",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("xx", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
				z = h.AllocStruct("zz", pmm.Compile(pmm.Layout{{Name: "z", Size: 8}})).F("z")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.Store64(z, 2)
				t.CLFlush(z) // crash point so both stores commit first
			}},
			PostCrash: func(t *pmm.Thread) {
				t.Load64(z) // observe z first: x is ordered before it
				t.Load64(x)
			},
		}
	}
	normal := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	eadr := Run(mk, Options{Mode: ModelCheck, Prefix: true, EADR: true})
	if eadr.Report.Count() > normal.Report.Count() {
		t.Fatalf("eADR found more races (%d) than default (%d)", eadr.Report.Count(), normal.Report.Count())
	}
	for _, r := range eadr.Report.Races() {
		if r.Field == "xx.x" {
			t.Fatal("eADR reported the observation-protected store xx.x")
		}
	}
	fields := normal.Report.Fields()
	if len(fields) != 2 {
		t.Fatalf("default mode fields = %v, want both xx.x and zz.z", fields)
	}
}

// Suppression annotations end to end (§7.5).
func TestSuppressOptionEndToEnd(t *testing.T) {
	res := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true,
		Suppress: []string{"pmobj.val"}})
	if res.Report.Count() != 0 {
		t.Fatalf("suppressed field still reported: %v", res.Report.Races())
	}
	res = Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true,
		Suppress: []string{"other.field"}})
	if res.Report.Count() != 1 {
		t.Fatal("unrelated suppression removed the race")
	}
}

// The detection-window histogram quantifies Figures 5(b)/6(a): with the
// prefix expansion every crash point of the Figure 1 program reveals the
// race; the baseline only succeeds when the crash lands inside the narrow
// store→flush window.
func TestDetectionWindowHistogram(t *testing.T) {
	prefix := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: true})
	baseline := Run(figure1(nil), Options{Mode: ModelCheck, Prefix: false})
	if len(prefix.Window) != 2 || len(baseline.Window) != 2 {
		t.Fatalf("window sizes = %d/%d, want 2 (completion + clflush point)",
			len(prefix.Window), len(baseline.Window))
	}
	for _, p := range prefix.Window {
		if p.Races != 1 {
			t.Fatalf("prefix: crash point %d found %d races, want 1 (window expanded)", p.Point, p.Races)
		}
	}
	// Baseline: point 0 (completion, store flushed) finds nothing; point 1
	// (before the clflush) is the narrow window.
	var byPoint [2]int
	for _, p := range baseline.Window {
		byPoint[p.Point] = p.Races
	}
	if byPoint[0] != 0 || byPoint[1] != 1 {
		t.Fatalf("baseline window = %v, want races only inside the store→flush window", baseline.Window)
	}
}

// Multiple model-check schedules widen coverage: a race whose window only
// opens under a particular interleaving is found once enough schedules are
// explored.
func TestMultipleSchedules(t *testing.T) {
	// Thread 1 release-stores a flag only AFTER thread 0's store+flush in
	// some schedules; the post-crash execution reads the flag FIRST and
	// then x. Under schedules where the flag store commits before x's
	// clflush, the flush is outside the consistent prefix and x races;
	// under others it is covered.
	mk := func() pmm.Program {
		var x, f pmm.Addr
		return pmm.Program{
			Name: "sched",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("xx", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
				f = h.AllocStruct("ff", pmm.Compile(pmm.Layout{{Name: "f", Size: 8}})).F("f")
			},
			Workers: []func(*pmm.Thread){
				func(t *pmm.Thread) {
					t.Store64(x, 1)
					t.CLFlush(x)
				},
				func(t *pmm.Thread) {
					t.StoreRelease64(f, 1)
				},
			},
			PostCrash: func(t *pmm.Thread) {
				t.LoadAcquire64(f)
				t.Load64(x)
			},
		}
	}
	one := Run(mk, Options{Mode: ModelCheck, Prefix: true, Schedules: 1})
	many := Run(mk, Options{Mode: ModelCheck, Prefix: true, Schedules: 8})
	if many.Report.Count() < one.Report.Count() {
		t.Fatalf("more schedules found fewer races: %d vs %d", many.Report.Count(), one.Report.Count())
	}
	if many.ExecutionsRun <= one.ExecutionsRun {
		t.Fatal("extra schedules did not run extra executions")
	}
}

// Read-choice exploration observes every candidate value a post-crash load
// could see. The recovery below branches on the observed value; only the
// intermediate value (2) leads to the racy read of y, so plain policies
// (latest=3, minimal=1) miss it.
func TestExploreReadsFindsIntermediateValues(t *testing.T) {
	mk := func() pmm.Program {
		var x, y pmm.Addr
		return pmm.Program{
			Name: "reads",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("xx", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
				y = h.AllocStruct("yy", pmm.Compile(pmm.Layout{{Name: "y", Size: 8}})).F("y")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)
				t.CLFlush(x) // guaranteed floor: x >= 1
				t.Store64(x, 2)
				t.Store64(x, 3)
				t.Store64(y, 9) // unflushed
				t.CLFlush(x)    // last crash point
			}},
			PostCrash: func(t *pmm.Thread) {
				if t.Load64(x) == 2 { // only the intermediate value
					t.Load64(y) // the racy observation
				}
			},
		}
	}
	plain := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	explored := Run(mk, Options{Mode: ModelCheck, Prefix: true, ExploreReads: true})
	plainHasY, exploredHasY := false, false
	for _, f := range plain.Report.Fields() {
		if f == "yy.y" {
			plainHasY = true
		}
	}
	for _, f := range explored.Report.Fields() {
		if f == "yy.y" {
			exploredHasY = true
		}
	}
	if plainHasY {
		t.Fatal("plain policies observed the intermediate value (test premise broken)")
	}
	if !exploredHasY {
		t.Fatalf("read exploration missed the intermediate-value path; fields=%v", explored.Report.Fields())
	}
	if explored.ExecutionsRun <= plain.ExecutionsRun {
		t.Fatal("exploration ran no extra scenarios")
	}
}

// Multithreaded recovery: two recovery threads interleave under the
// scheduler; both observe the racy store, and the race is still attributed
// once.
func TestMultithreadedRecovery(t *testing.T) {
	reads := 0
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "mt-recovery",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 5)
				t.CLFlush(x)
			}},
			PostCrashWorkers: []func(*pmm.Thread){
				func(t *pmm.Thread) { t.Load64(x); reads++ },
				func(t *pmm.Thread) { t.Load64(x); reads++ },
			},
		}
	}
	// Workers: 1 — the recovery threads increment the shared reads counter.
	res := Run(mk, Options{Mode: ModelCheck, Prefix: true, Workers: 1})
	if res.Report.Count() != 1 {
		t.Fatalf("races = %d, want 1 (deduplicated across recovery threads)", res.Report.Count())
	}
	if reads == 0 {
		t.Fatal("recovery threads did not run")
	}
}

// CLFlushOpt behaves like clwb: no persistence without a fence.
func TestCLFlushOptNeedsFence(t *testing.T) {
	mkNoFence := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "clflushopt",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 5)
				t.CLFlushOpt(x) // no fence: never persistent
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	res := Run(mkNoFence, Options{Mode: ModelCheck, Prefix: false})
	if res.Report.Count() != 1 {
		t.Fatalf("clflushopt without fence: races = %d, want 1 even for the baseline", res.Report.Count())
	}
}

// A runaway workload (infinite spin) is cut off by the operation watchdog
// instead of hanging the checker.
func TestRunawayWorkloadWatchdog(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "runaway",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for { // never terminates
					t.Load64(x)
				}
			}},
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("watchdog did not fire")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "runaway") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	RunOne(mk, Options{Prefix: true}, 0, PersistLatest, 1)
}

// Limiting the candidate set to the newest store per load loses races on
// older candidates (the ablation behind checking ALL candidates).
func TestCandidateLimitLosesOldCandidates(t *testing.T) {
	mk := func() pmm.Program {
		var x pmm.Addr
		return pmm.Program{
			Name: "cands",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 1)        // older candidate: racy
				t.StoreRelease64(x, 2) // newest candidate: atomic, safe
				t.CLFlush(x)
			}},
			PostCrash: func(t *pmm.Thread) { t.Load64(x) },
		}
	}
	full := Run(mk, Options{Mode: ModelCheck, Prefix: true})
	limited := Run(mk, Options{Mode: ModelCheck, Prefix: true, CandidateLimit: 1})
	if full.Report.Count() != 1 {
		t.Fatalf("full candidate checking found %d races, want 1", full.Report.Count())
	}
	if limited.Report.Count() != 0 {
		t.Fatalf("limit-1 checking found %d races, want 0 (only the atomic newest candidate checked)", limited.Report.Count())
	}
}

// RandomMode models store-buffer loss: a store with no subsequent
// fence/flush may still sit in the store buffer at the crash and be lost
// entirely. Across seeds, recovery must observe both outcomes: the value
// committed (buffer drained in time) and the value lost (still buffered).
func TestStoreBufferLossInRandomMode(t *testing.T) {
	observed := map[uint64]bool{}
	mk := func() pmm.Program {
		var x, y pmm.Addr
		return pmm.Program{
			Name: "sbloss",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}, {Name: "y", Size: 8}})).F("x")
				y = x + 8
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(x, 7) // may linger in the store buffer
				t.SFence()      // crash point; the store may not have drained
				t.Store64(y, 1)
				t.CLFlush(y)
			}},
			PostCrash: func(t *pmm.Thread) {
				observed[t.Load64(x)] = true
			},
		}
	}
	// Workers: 1 — the program writes the shared observed map.
	for seed := int64(1); seed <= 30; seed++ {
		Run(mk, Options{Mode: RandomMode, Prefix: true, Seed: seed, Executions: 2, Workers: 1})
	}
	if !observed[0] {
		t.Error("no execution lost the buffered store (x=0 never observed)")
	}
	if !observed[7] {
		t.Error("no execution committed the store (x=7 never observed)")
	}
	for v := range observed {
		if v != 0 && v != 7 {
			t.Errorf("impossible value observed: %d", v)
		}
	}
}

// ModelCheck drains eagerly, so its commit order (and therefore its
// results) are identical across repeated runs even for multithreaded
// programs — the paper's "controls multithreaded scheduling to regenerate
// the same execution".
func TestModelCheckReproducibleAcrossProcessRuns(t *testing.T) {
	mk := func() pmm.Program {
		var x, y pmm.Addr
		return pmm.Program{
			Name: "repro",
			Setup: func(h *pmm.Heap) {
				x = h.AllocStruct("a", pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
				y = h.AllocStruct("b", pmm.Compile(pmm.Layout{{Name: "y", Size: 8}})).F("y")
			},
			Workers: []func(*pmm.Thread){
				func(t *pmm.Thread) { t.Store64(x, 1); t.CLFlush(x) },
				func(t *pmm.Thread) { t.Store64(y, 2); t.CLFlush(y) },
			},
			PostCrash: func(t *pmm.Thread) { t.Load64(x); t.Load64(y) },
		}
	}
	var first string
	for i := 0; i < 5; i++ {
		res := Run(mk, Options{Mode: ModelCheck, Prefix: true})
		out := res.Report.String()
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, out, first)
		}
	}
}
