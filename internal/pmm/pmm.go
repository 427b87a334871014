// Package pmm defines the persistent-memory program model.
//
// Yashme instruments LLVM IR so that compiled C/C++ persistent-memory
// programs report their loads, stores, cache-line flushes and fences to a
// simulator. This Go reproduction replaces that front end: workloads are Go
// functions that issue the same events against a simulated persistent heap.
// Package pmm holds everything a workload needs — addresses, cache-line
// geometry, a heap of named objects, and the Thread handle exposing the
// Px86 operation surface — while the simulation itself lives in
// internal/engine and the race detector in internal/core.
package pmm

import (
	"fmt"
	"sort"
	"strconv"
)

// Addr is a byte address in the simulated persistent memory.
type Addr uint64

// CacheLineSize is the simulated cache-line size in bytes, matching x86.
const CacheLineSize = 64

// Line identifies a cache line.
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a / CacheLineSize) }

// SameLine reports whether two addresses fall on the same cache line.
func SameLine(a, b Addr) bool { return LineOf(a) == LineOf(b) }

// FieldDef declares one field of a persistent struct layout.
type FieldDef struct {
	Name string
	Size int // bytes: 1, 2, 4 or 8
}

// Layout is an ordered list of fields. Offsets are assigned in order with
// natural alignment (each field aligned to its own size), like a C struct
// without packing pragmas. A Layout is only a declaration: Compile turns it
// into the Type that allocations take.
type Layout []FieldDef

type fieldInfo struct {
	name   string
	offset int
	size   int
}

// Type is a compiled struct layout: field offsets, the struct size, a name
// index for resolving field refs, and an offset table for labelling
// addresses. Programs compile each layout once, at package or constructor
// level, and address fields through FieldRefs resolved from it, so the
// simulated-op path neither hashes field names nor rebuilds layouts. A Type
// is immutable once compiled and safe to share across heaps and goroutines.
type Type struct {
	fields []fieldInfo
	byName map[string]int
	size   int // struct size, rounded up to max alignment
	// fieldAt maps every byte offset in [0, size) to the index of the field
	// covering it, or -1 for padding.
	fieldAt []int32
}

// Compile resolves a layout's offsets and size. It panics on a field size
// other than 1, 2, 4 or 8 and on a duplicate field name.
func Compile(l Layout) *Type {
	t := &Type{byName: make(map[string]int, len(l))}
	off, maxAlign := 0, 1
	for _, f := range l {
		switch f.Size {
		case 1, 2, 4, 8:
		default:
			panic(fmt.Sprintf("pmm: field %q has unsupported size %d", f.Name, f.Size))
		}
		if _, dup := t.byName[f.Name]; dup {
			panic(fmt.Sprintf("pmm: duplicate field %q", f.Name))
		}
		if f.Size > maxAlign {
			maxAlign = f.Size
		}
		off = align(off, f.Size)
		t.byName[f.Name] = len(t.fields)
		t.fields = append(t.fields, fieldInfo{name: f.Name, offset: off, size: f.Size})
		off += f.Size
	}
	t.size = align(off, maxAlign)
	if t.size == 0 {
		t.size = maxAlign
	}
	t.fieldAt = make([]int32, t.size)
	for i := range t.fieldAt {
		t.fieldAt[i] = -1
	}
	for i, f := range t.fields {
		for b := f.offset; b < f.offset+f.size; b++ {
			t.fieldAt[b] = int32(i)
		}
	}
	return t
}

func align(off, a int) int { return (off + a - 1) &^ (a - 1) }

// Size returns the struct size in bytes.
func (t *Type) Size() int { return t.size }

// Ref resolves a field name to a handle; it panics if the type has no
// such field. Resolve refs once (package variables, constructor tables)
// and use them with Struct.At on the hot path.
func (t *Type) Ref(name string) FieldRef {
	r, ok := t.lookup(name)
	if !ok {
		panic(fmt.Sprintf("pmm: type has no field %q", name))
	}
	return r
}

func (t *Type) lookup(name string) (FieldRef, bool) {
	i, ok := t.byName[name]
	if !ok {
		return FieldRef{}, false
	}
	f := t.fields[i]
	return FieldRef{typ: t, off: f.offset, size: f.size}, true
}

// FieldRef is a field of one Type, resolved to its offset and size.
// Struct.At turns it into an address with no lookup.
type FieldRef struct {
	typ  *Type
	off  int
	size int
}

// Size returns the field's size in bytes.
func (r FieldRef) Size() int { return r.size }

// allocation records one named persistent object (possibly an array).
type allocation struct {
	base   Addr
	size   int // total bytes
	label  string
	typ    *Type // nil for raw allocations
	count  int   // array element count; 1 for plain structs
	stride int
}

// Heap allocates named persistent objects. Each allocation is cache-line
// aligned so that struct layouts control line sharing deterministically
// (several of the reproduced bugs — e.g. CCEH's key/value pair — depend on
// two fields sharing a cache line).
//
// Heap is not safe for concurrent use; the engine serializes all simulated
// threads, so workload code may allocate at any scheduling point.
type Heap struct {
	next   Addr
	allocs []allocation // sorted by base
	inits  []InitWrite
	// labels memoizes LabelFor: the detector labels the same few racing
	// addresses on every candidate check of every crash scenario, and the
	// rendered name is a pure function of the allocation table. Any change
	// to that table (place, Restore) drops the whole cache.
	labels map[Addr]string
}

// InitWrite is a pre-execution write applied directly to the persistent
// image before the pre-crash execution starts (it is fully persisted and
// never participates in race detection).
type InitWrite struct {
	Addr Addr
	Size int
	Val  uint64
}

// NewHeap returns an empty heap. The first allocation starts at a non-zero,
// line-aligned address so that Addr(0) can mean "null".
func NewHeap() *Heap { return &Heap{next: CacheLineSize} }

// Struct is a handle to an allocated struct instance.
type Struct struct {
	base  Addr
	typ   *Type
	label string
}

// Array is a handle to an allocated array of structs.
type Array struct {
	base   Addr
	typ    *Type
	label  string
	count  int
	stride int
}

// AllocStruct allocates one struct of type t with the given label.
func (h *Heap) AllocStruct(label string, t *Type) Struct {
	base := h.place(t.size)
	h.allocs = append(h.allocs, allocation{base: base, size: t.size, label: label, typ: t, count: 1, stride: t.size})
	return Struct{base: base, typ: t, label: label}
}

// AllocArray allocates count contiguous structs of type t. The element
// stride is the struct size rounded up to 8 bytes so that elements stay
// internally aligned.
func (h *Heap) AllocArray(label string, t *Type, count int) Array {
	if count <= 0 {
		panic("pmm: AllocArray count must be positive")
	}
	stride := align(t.size, 8)
	base := h.place(stride * count)
	h.allocs = append(h.allocs, allocation{base: base, size: stride * count, label: label, typ: t, count: count, stride: stride})
	return Array{base: base, typ: t, label: label, count: count, stride: stride}
}

// AllocRaw allocates size bytes with no field structure. Accesses into raw
// allocations are labelled "label+off".
func (h *Heap) AllocRaw(label string, size int) Addr {
	if size <= 0 {
		panic("pmm: AllocRaw size must be positive")
	}
	base := h.place(size)
	h.allocs = append(h.allocs, allocation{base: base, size: size, label: label, count: 1, stride: size})
	return base
}

func (h *Heap) place(size int) Addr {
	base := Addr(align(int(h.next), CacheLineSize))
	h.next = base + Addr(size)
	h.labels = nil
	return base
}

// Clone returns an independent copy of the heap's allocation state.
// Allocation types are shared (they are immutable once compiled). Program
// closures keep the heap their Setup ran against (for runtime allocation
// and StructAt) — a clone does not retarget them. The engine's
// checkpoint layer therefore pairs Clone with Restore: it re-runs the
// program's Setup against a fresh heap (recreating the closure handles) and
// grafts the cloned state into that heap object.
func (h *Heap) Clone() *Heap {
	return &Heap{
		next:   h.next,
		allocs: append([]allocation(nil), h.allocs...),
		inits:  append([]InitWrite(nil), h.inits...),
	}
}

// Snapshot returns an O(1) read-only view of the heap's current state,
// valid as a Restore source: the allocation and init-write slices are the
// heap's own journal — append-only, with elements immutable once placed —
// so a capacity-capped view pins exactly today's prefix without copying a
// byte. Later allocations on h re-allocate past the cap and can never leak
// into the view. The engine's checkpoint layer captures one view per crash
// point where it used to pay a full Clone.
func (h *Heap) Snapshot() *Heap {
	return &Heap{
		next:   h.next,
		allocs: h.allocs[:len(h.allocs):len(h.allocs)],
		inits:  h.inits[:len(h.inits):len(h.inits)],
	}
}

// Restore overwrites h's allocation state with a copy of src's. Handles
// pointing at h stay valid and resolve against the restored state; src is
// not aliased and may be restored into any number of heaps.
func (h *Heap) Restore(src *Heap) {
	h.next = src.next
	h.allocs = append(h.allocs[:0:0], src.allocs...)
	h.inits = append(h.inits[:0:0], src.inits...)
	h.labels = nil
}

// AllocCount returns the number of allocations made so far. Together with
// NextFree it fingerprints the heap's shape — the engine's checkpoint layer
// uses the pair to verify that a re-run Setup produced the same allocations
// before grafting snapshot state onto it.
func (h *Heap) AllocCount() int { return len(h.allocs) }

// NextFree returns the next unallocated address.
func (h *Heap) NextFree() Addr { return h.next }

// Init records a fully-persisted initial value for (addr, size). The engine
// applies Init writes to the persistent image before execution begins.
func (h *Heap) Init(addr Addr, size int, val uint64) {
	h.inits = append(h.inits, InitWrite{Addr: addr, Size: size, Val: val})
}

// InitWrites returns the recorded initial writes.
func (h *Heap) InitWrites() []InitWrite { return h.inits }

// Base returns the struct's base address.
func (s Struct) Base() Addr { return s.base }

// Size returns the struct's size in bytes.
func (s Struct) Size() int { return s.typ.size }

// Type returns the struct's compiled type.
func (s Struct) Type() *Type { return s.typ }

// At returns the address of the field r. It panics if r was resolved from
// a different Type than the struct's.
func (s Struct) At(r FieldRef) Addr {
	if r.typ != s.typ {
		s.foreignRef(r)
	}
	return s.base + Addr(r.off)
}

//go:noinline
func (s Struct) foreignRef(r FieldRef) {
	panic(fmt.Sprintf("pmm: field ref at offset %d is not of struct %q's type", r.off, s.label))
}

// F returns the address of the named field. It hashes the name on every
// call: keep it to cold code (setup, tests, examples) and use At with a
// pre-resolved FieldRef on the simulated-op path.
func (s Struct) F(name string) Addr {
	r, ok := s.typ.lookup(name)
	if !ok {
		panic(fmt.Sprintf("pmm: struct %q has no field %q", s.label, name))
	}
	return s.At(r)
}

// Label returns the struct's allocation label.
func (s Struct) Label() string { return s.label }

// At returns the i'th element of the array as a Struct handle.
func (a Array) At(i int) Struct {
	if uint(i) >= uint(a.count) {
		a.outOfRange(i)
	}
	return Struct{base: a.base + Addr(i*a.stride), typ: a.typ, label: a.label}
}

//go:noinline
func (a Array) outOfRange(i int) {
	panic(fmt.Sprintf("pmm: array %q index %d out of range [0,%d)", a.label, i, a.count))
}

// Len returns the number of elements.
func (a Array) Len() int { return a.count }

// Label returns the array's allocation label.
func (a Array) Label() string { return a.label }

// Base returns the array's base address.
func (a Array) Base() Addr { return a.base }

// Stride returns the distance in bytes between consecutive elements.
func (a Array) Stride() int { return a.stride }

// findAlloc returns the allocation containing addr, or nil.
func (h *Heap) findAlloc(addr Addr) *allocation {
	// allocs are appended in increasing base order.
	i := sort.Search(len(h.allocs), func(i int) bool { return h.allocs[i].base > addr })
	if i == 0 {
		return nil
	}
	a := &h.allocs[i-1]
	if addr >= a.base+Addr(a.size) {
		return nil
	}
	return a
}

// StructAt reattaches a Struct handle to a persisted pointer: it returns
// the handle of the struct instance whose base address is exactly a, or
// ok=false if a is not the base of a structured allocation's element.
//
// This is the Go analog of casting a pointer loaded from persistent memory
// in recovery code. A benchmark program that allocates structs during its
// workload cannot rely on Go-side handle registries to survive a crash —
// recovery runs in what is conceptually a fresh process (and, in this
// engine, possibly a scenario resumed from a checkpoint that never executed
// the workload closures) — so it resolves child pointers read from the heap
// through StructAt instead.
func (h *Heap) StructAt(a Addr) (Struct, bool) {
	al := h.findAlloc(a)
	if al == nil || al.typ == nil {
		return Struct{}, false
	}
	off := int(a - al.base)
	if off%al.stride != 0 || off/al.stride >= al.count {
		return Struct{}, false
	}
	return Struct{base: a, typ: al.typ, label: al.label}, true
}

// ArrayAt reattaches an Array handle to a persisted pointer: it returns the
// handle of the array allocation whose base address is exactly a, or
// ok=false if a is not the base of a structured allocation. Like StructAt,
// this is for recovery code resolving pointers read from persistent memory.
func (h *Heap) ArrayAt(a Addr) (Array, bool) {
	al := h.findAlloc(a)
	if al == nil || al.typ == nil || al.base != a {
		return Array{}, false
	}
	return Array{base: al.base, typ: al.typ, label: al.label, count: al.count, stride: al.stride}, true
}

// NextAllocBase returns the base address of the allocation made immediately
// after the one containing a. Programs whose logical objects span two
// consecutive allocations (e.g. a node header plus its entry array) use it
// to reattach the companion allocation from the first one's address.
func (h *Heap) NextAllocBase(a Addr) (Addr, bool) {
	i := sort.Search(len(h.allocs), func(i int) bool { return h.allocs[i].base > a })
	if i >= len(h.allocs) {
		return 0, false
	}
	return h.allocs[i].base, true
}

// LabelFor renders a human-readable name for an address: "Obj.field",
// "Obj[3].field", "raw+8", or "0xADDR" if the address is unknown. Race
// reports use these names as the bug's root cause, mirroring the paper's
// Tables 3 and 4 which identify bugs by field.
func (h *Heap) LabelFor(addr Addr) string {
	if s, ok := h.labels[addr]; ok {
		return s
	}
	s := h.labelFor(addr)
	if h.labels == nil {
		h.labels = make(map[Addr]string)
	}
	h.labels[addr] = s
	return s
}

func (h *Heap) labelFor(addr Addr) string {
	a := h.findAlloc(addr)
	if a == nil {
		return "0x" + strconv.FormatUint(uint64(addr), 16)
	}
	off := int(addr - a.base)
	if a.typ == nil {
		if off == 0 {
			return a.label
		}
		return a.label + "+" + strconv.Itoa(off)
	}
	idx, rem := 0, off
	if a.count > 1 {
		idx, rem = off/a.stride, off%a.stride
	}
	var field string
	if rem < a.typ.size && a.typ.fieldAt[rem] >= 0 {
		field = a.typ.fields[a.typ.fieldAt[rem]].name
	} else {
		field = "+" + strconv.Itoa(rem)
	}
	if a.count > 1 {
		return a.label + "[" + strconv.Itoa(idx) + "]." + field
	}
	return a.label + "." + field
}

// FieldAt describes one field instance within an address range; used to
// decompose memset/memcpy into field-granular stores.
type FieldAt struct {
	Addr Addr
	Size int
}

// FieldsIn returns the field-granular access units covering [addr,
// addr+size). For structured allocations these are the declared fields; for
// raw allocations the range is cut into aligned 8-byte chunks with a byte
// tail. Panics if the range is not fully contained in one allocation.
func (h *Heap) FieldsIn(addr Addr, size int) []FieldAt {
	a := h.findAlloc(addr)
	if a == nil || addr+Addr(size) > a.base+Addr(a.size) {
		panic(fmt.Sprintf("pmm: range [0x%x,+%d) not within a single allocation", uint64(addr), size))
	}
	var out []FieldAt
	if a.typ == nil {
		for cur, end := addr, addr+Addr(size); cur < end; {
			step := 8
			if int(cur)%8 != 0 {
				step = 1
			}
			if Addr(step) > end-cur {
				step = 1
			}
			out = append(out, FieldAt{Addr: cur, Size: step})
			cur += Addr(step)
		}
		return out
	}
	end := addr + Addr(size)
	for i := 0; i < a.count; i++ {
		elemBase := a.base + Addr(i*a.stride)
		for _, f := range a.typ.fields {
			fa := elemBase + Addr(f.offset)
			if fa >= addr && fa+Addr(f.size) <= end {
				out = append(out, FieldAt{Addr: fa, Size: f.size})
			}
		}
	}
	return out
}
