// Package fuzzprog generates random persistent-memory programs for
// property-based testing of the engine and detector. The generator can be
// constrained to produce programs with known ground truth:
//
//   - AllAtomic programs perform only atomic stores and locked RMWs, so any
//     race report is a false positive (Definition 5.1 condition 1);
//   - unconstrained programs exercise the full operation surface, where the
//     invariants are relational: the baseline never finds more than the
//     prefix detector, eADR never finds more than the default mode, every
//     reported race names a field the program actually stored to
//     non-atomically, and identical seeds yield identical reports.
package fuzzprog

import (
	"math/rand"
	"strconv"

	"yashme/internal/pmm"
)

// Config bounds the generated program.
type Config struct {
	// Objects is the number of 4-field persistent structs.
	Objects int
	// Workers is the number of pre-crash threads.
	Workers int
	// OpsPerWorker bounds each thread's operation count.
	OpsPerWorker int
	// AllAtomic restricts stores to atomic operations (ground truth: no
	// persistency races can exist).
	AllAtomic bool
	// NoAtomics replaces every atomic operation with its plain counterpart
	// (ground truth: cross-failure races coincide with unflushed-read
	// persistency races, so the XFDetector baseline's findings are a
	// subset of Yashme's).
	NoAtomics bool
}

// Default returns a moderate configuration.
func Default() Config {
	return Config{Objects: 3, Workers: 2, OpsPerWorker: 12}
}

// fieldNames are the per-object field labels.
var fieldNames = [4]string{"f0", "f1", "f2", "f3"}

// objType is every generated object's 4-field struct type, and fieldRefs
// its fields in fieldNames order.
var (
	objType = pmm.Compile(pmm.Layout{
		{Name: "f0", Size: 8}, {Name: "f1", Size: 8},
		{Name: "f2", Size: 8}, {Name: "f3", Size: 8},
	})
	fieldRefs = [len(fieldNames)]pmm.FieldRef{
		objType.Ref("f0"), objType.Ref("f1"), objType.Ref("f2"), objType.Ref("f3"),
	}
)

// op is one generated operation. Kinds: 0 store, 1 atomic store, 2 release
// store, 3 load, 4 clflush, 5 clwb, 6 sfence, 7 mfence, 8 cas, 9 memset.
type op struct {
	kind  int
	obj   int
	field int
	val   uint64
}

// Generate builds a random program for the seed. The returned constructor
// is engine-compatible: every call rebuilds identical closure state, so the
// engine can re-instantiate scenarios. NonAtomicFields lists the normalized
// labels the program may store to non-atomically (the only legal race
// subjects).
func Generate(cfg Config, seed int64) (mk func() pmm.Program, nonAtomicFields map[string]bool) {
	// Pre-generate the op scripts so every instantiation is identical.
	rng := rand.New(rand.NewSource(seed))
	nonAtomicFields = make(map[string]bool)
	scripts := make([][]op, cfg.Workers)
	for w := range scripts {
		n := 1 + rng.Intn(cfg.OpsPerWorker)
		for i := 0; i < n; i++ {
			o := op{
				kind:  rng.Intn(10),
				obj:   rng.Intn(cfg.Objects),
				field: rng.Intn(len(fieldNames)),
				val:   rng.Uint64(),
			}
			if cfg.AllAtomic {
				switch o.kind {
				case 0:
					o.kind = 1 // plain store → atomic store
				case 9:
					o.kind = 2 // memset → release store
				}
			}
			if cfg.NoAtomics {
				switch o.kind {
				case 1, 2, 8:
					o.kind = 0 // atomic store / release / CAS → plain store
				}
			}
			if o.kind == 0 || o.kind == 9 {
				if o.kind == 9 {
					for _, f := range fieldNames {
						nonAtomicFields[objLabel(o.obj)+"."+f] = true
					}
				} else {
					nonAtomicFields[objLabel(o.obj)+"."+fieldNames[o.field]] = true
				}
			}
			scripts[w] = append(scripts[w], o)
		}
	}
	name := "fuzz-" + strconv.FormatInt(seed, 10)
	labels := make([]string, cfg.Objects)
	for i := range labels {
		labels[i] = objLabel(i)
	}
	// The recovery script reads every field of every object.
	mk = func() pmm.Program {
		objs := make([]pmm.Struct, cfg.Objects)
		return pmm.Program{
			Name: name,
			Setup: func(h *pmm.Heap) {
				for i := range objs {
					objs[i] = h.AllocStruct(labels[i], objType)
				}
			},
			Workers: workersFor(scripts, &objs),
			PostCrash: func(t *pmm.Thread) {
				for _, o := range objs {
					for _, f := range fieldRefs {
						t.Load64(o.At(f))
					}
				}
			},
		}
	}
	return mk, nonAtomicFields
}

func objLabel(i int) string { return "obj" + strconv.Itoa(i) }

// workersFor turns op scripts into thread functions over the shared objs
// slice (filled during Setup).
func workersFor(scripts [][]op, objs *[]pmm.Struct) []func(*pmm.Thread) {
	var fns []func(*pmm.Thread)
	for _, script := range scripts {
		script := script
		fns = append(fns, func(t *pmm.Thread) {
			for _, o := range script {
				obj := (*objs)[o.obj]
				addr := obj.At(fieldRefs[o.field])
				switch o.kind {
				case 0:
					t.Store64(addr, o.val)
				case 1:
					t.StoreAtomic(addr, 8, o.val)
				case 2:
					t.StoreRelease64(addr, o.val)
				case 3:
					t.Load64(addr)
				case 4:
					t.CLFlush(addr)
				case 5:
					t.CLWB(addr)
				case 6:
					t.SFence()
				case 7:
					t.MFence()
				case 8:
					t.CAS64(addr, 0, o.val)
				case 9:
					t.Memset(obj.Base(), obj.Size(), byte(o.val))
				}
			}
		})
	}
	return fns
}
