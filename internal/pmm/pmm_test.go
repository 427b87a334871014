package pmm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0}, {63, 0}, {64, 1}, {65, 1}, {127, 1}, {128, 2},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	if !SameLine(0, 63) || SameLine(63, 64) {
		t.Error("SameLine boundary behaviour wrong")
	}
}

func TestLayoutNaturalAlignment(t *testing.T) {
	s := NewHeap().AllocStruct("obj", Compile(Layout{
		{"b", 1}, {"w", 2}, {"d", 4}, {"q", 8}, {"tail", 1},
	}))
	wantOffsets := map[string]Addr{"b": 0, "w": 2, "d": 4, "q": 8, "tail": 16}
	for name, off := range wantOffsets {
		if got := s.F(name) - s.Base(); got != off {
			t.Errorf("field %q offset = %d, want %d", name, got, off)
		}
	}
	if s.Size() != 24 { // rounded up to 8-byte alignment
		t.Errorf("struct size = %d, want 24", s.Size())
	}
}

func TestFieldSizes(t *testing.T) {
	typ := Compile(Layout{{"a", 4}, {"b", 8}})
	if size := typ.Ref("a").Size(); size != 4 {
		t.Errorf("field a size = %d", size)
	}
	if size := typ.Ref("b").Size(); size != 8 {
		t.Errorf("field b size = %d", size)
	}
}

func TestUnknownFieldPanics(t *testing.T) {
	s := NewHeap().AllocStruct("obj", Compile(Layout{{"a", 8}}))
	defer func() {
		if recover() == nil {
			t.Fatal("Field on unknown name did not panic")
		}
	}()
	s.F("nope")
}

func TestDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate field did not panic")
		}
	}()
	NewHeap().AllocStruct("obj", Compile(Layout{{"a", 8}, {"a", 4}}))
}

func TestBadFieldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("field size 3 did not panic")
		}
	}()
	NewHeap().AllocStruct("obj", Compile(Layout{{"a", 3}}))
}

func TestAllocationsAreLineAligned(t *testing.T) {
	h := NewHeap()
	a := h.AllocStruct("a", Compile(Layout{{"x", 8}}))
	b := h.AllocStruct("b", Compile(Layout{{"x", 8}}))
	r := h.AllocRaw("raw", 100)
	for _, base := range []Addr{a.Base(), b.Base(), r} {
		if base%CacheLineSize != 0 {
			t.Errorf("allocation base 0x%x not line aligned", uint64(base))
		}
		if base == 0 {
			t.Error("allocation at address 0 (reserved for null)")
		}
	}
	if a.Base() == b.Base() {
		t.Error("allocations overlap")
	}
}

func TestArrayIndexingAndStride(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray("pairs", Compile(Layout{{"key", 8}, {"value", 8}}), 8)
	if arr.Stride() != 16 {
		t.Fatalf("stride = %d, want 16", arr.Stride())
	}
	if arr.Len() != 8 {
		t.Fatalf("len = %d, want 8", arr.Len())
	}
	for i := 0; i < 8; i++ {
		el := arr.At(i)
		if el.Base() != arr.Base()+Addr(16*i) {
			t.Errorf("element %d base wrong", i)
		}
		// With a 16-byte stride from a line-aligned base, key and value of
		// one pair always share a cache line — the CCEH design assumption.
		if !SameLine(el.F("key"), el.F("value")) {
			t.Errorf("pair %d spans cache lines", i)
		}
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	arr := NewHeap().AllocArray("a", Compile(Layout{{"x", 8}}), 2)
	for _, idx := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", idx)
				}
			}()
			arr.At(idx)
		}()
	}
}

func TestLabelFor(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("Pair", Compile(Layout{{"key", 8}, {"value", 8}}))
	arr := h.AllocArray("seg", Compile(Layout{{"key", 8}, {"value", 8}}), 4)
	raw := h.AllocRaw("blob", 32)

	cases := []struct {
		addr Addr
		want string
	}{
		{s.F("key"), "Pair.key"},
		{s.F("value"), "Pair.value"},
		{arr.At(2).F("value"), "seg[2].value"},
		{raw, "blob"},
		{raw + 8, "blob+8"},
		{0, "0x0"},
	}
	for _, c := range cases {
		if got := h.LabelFor(c.addr); got != c.want {
			t.Errorf("LabelFor(0x%x) = %q, want %q", uint64(c.addr), got, c.want)
		}
	}
}

func TestLabelForAddressPastEnd(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("only", Compile(Layout{{"x", 8}}))
	past := s.Base() + Addr(10*CacheLineSize)
	if got := h.LabelFor(past); !strings.HasPrefix(got, "0x") {
		t.Errorf("LabelFor past end = %q, want hex fallback", got)
	}
}

func TestFieldsInStruct(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray("seg", Compile(Layout{{"key", 8}, {"value", 8}}), 4)
	fields := h.FieldsIn(arr.Base(), 4*16)
	if len(fields) != 8 {
		t.Fatalf("FieldsIn covering array = %d fields, want 8", len(fields))
	}
	// Partial range: just element 1.
	fields = h.FieldsIn(arr.At(1).Base(), 16)
	if len(fields) != 2 {
		t.Fatalf("FieldsIn one element = %d fields, want 2", len(fields))
	}
	if fields[0].Addr != arr.At(1).F("key") || fields[1].Addr != arr.At(1).F("value") {
		t.Error("FieldsIn returned wrong field addresses")
	}
}

func TestFieldsInRaw(t *testing.T) {
	h := NewHeap()
	raw := h.AllocRaw("blob", 20)
	fields := h.FieldsIn(raw, 20)
	total := 0
	for _, f := range fields {
		total += f.Size
	}
	if total != 20 {
		t.Fatalf("FieldsIn raw covers %d bytes, want 20", total)
	}
}

func TestFieldsInOutsideAllocationPanics(t *testing.T) {
	h := NewHeap()
	raw := h.AllocRaw("blob", 16)
	defer func() {
		if recover() == nil {
			t.Fatal("FieldsIn past allocation did not panic")
		}
	}()
	h.FieldsIn(raw, 32)
}

func TestInitWritesRecorded(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Compile(Layout{{"x", 8}}))
	h.Init(s.F("x"), 8, 42)
	ws := h.InitWrites()
	if len(ws) != 1 || ws[0].Val != 42 || ws[0].Addr != s.F("x") {
		t.Fatalf("InitWrites = %+v", ws)
	}
}

func TestSizeMask(t *testing.T) {
	cases := map[int]uint64{1: 0xff, 2: 0xffff, 4: 0xffffffff, 8: ^uint64(0)}
	for size, want := range cases {
		if got := sizeMask(size); got != want {
			t.Errorf("sizeMask(%d) = %#x, want %#x", size, got, want)
		}
	}
}

// randomLayout draws 1-8 fields of random natural sizes.
func randomLayout(rng *rand.Rand) Layout {
	sizes := [...]int{1, 2, 4, 8}
	l := make(Layout, 1+rng.Intn(8))
	for i := range l {
		l[i] = FieldDef{Name: fmt.Sprintf("f%d", i), Size: sizes[rng.Intn(len(sizes))]}
	}
	return l
}

// Property: on a heap of random layouts, array counts and raw blobs,
// LabelFor of every field address round-trips to the field's name, and
// every address — field, padding, gap or past the end — labels exactly as
// the fmt-based reference renderer does.
func TestLabelForProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap()
		for a := 0; a < 1+rng.Intn(4); a++ {
			label := fmt.Sprintf("A%d", a)
			layout := randomLayout(rng)
			typ := Compile(layout)
			cnt := 1 + rng.Intn(5)
			arr := h.AllocArray(label, typ, cnt)
			for i := 0; i < cnt; i++ {
				for _, fd := range layout {
					want := fmt.Sprintf("%s[%d].%s", label, i, fd.Name)
					if cnt == 1 {
						want = label + "." + fd.Name
					}
					if got := h.LabelFor(arr.At(i).At(typ.Ref(fd.Name))); got != want {
						t.Logf("seed %d: label %q, want %q", seed, got, want)
						return false
					}
				}
			}
			if rng.Intn(2) == 0 {
				h.AllocRaw(fmt.Sprintf("raw%d", a), 1+rng.Intn(40))
			}
		}
		for addr := Addr(0); addr < h.NextFree()+2*CacheLineSize; addr++ {
			if got, want := h.LabelFor(addr), referenceLabelFor(h, addr); got != want {
				t.Logf("seed %d: LabelFor(0x%x) = %q, reference %q", seed, uint64(addr), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStructAtAllocatesNothing(t *testing.T) {
	typ := Compile(Layout{{"a", 8}, {"b", 4}})
	s := NewHeap().AllocStruct("o", typ)
	b := typ.Ref("b")
	var sink Addr
	if n := testing.AllocsPerRun(100, func() { sink += s.At(b) }); n != 0 {
		t.Fatalf("Struct.At allocates %v times per call, want 0", n)
	}
	if s.At(b) != s.Base()+8 {
		t.Fatalf("At(b) = base+%d, want base+8", s.At(b)-s.Base())
	}
}

func TestAtForeignRefPanics(t *testing.T) {
	l := Layout{{"a", 8}}
	s := NewHeap().AllocStruct("o", Compile(l))
	// A structurally identical layout compiled separately is another type.
	other := Compile(l).Ref("a")
	for name, r := range map[string]FieldRef{"other type": other, "zero ref": {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At with a ref of %s did not panic", name)
				}
			}()
			s.At(r)
		}()
	}
}

func TestUnknownRefPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ref on unknown name did not panic")
		}
	}()
	Compile(Layout{{"a", 8}}).Ref("nope")
}

// Property: allocations never overlap, regardless of the mix of sizes.
func TestNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := NewHeap()
		type span struct{ lo, hi Addr }
		var spans []span
		for i, sz := range sizes {
			n := int(sz%512) + 1
			base := h.AllocRaw(fmt.Sprintf("r%d", i), n)
			spans = append(spans, span{base, base + Addr(n)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllocRawZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocRaw(0) did not panic")
		}
	}()
	NewHeap().AllocRaw("bad", 0)
}

func TestAllocArrayZeroCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocArray count 0 did not panic")
		}
	}()
	NewHeap().AllocArray("bad", Compile(Layout{{Name: "x", Size: 8}}), 0)
}

func TestEmptyLayoutStillAllocates(t *testing.T) {
	s := NewHeap().AllocStruct("empty", Compile(Layout{}))
	if s.Size() <= 0 {
		t.Fatalf("empty struct size = %d", s.Size())
	}
}

func TestLabelForMiddleOfField(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("o", Compile(Layout{{Name: "q", Size: 8}}))
	// An address inside (not at the start of) a field still labels as the
	// field — torn-half reporting depends on it.
	if got := h.LabelFor(s.F("q") + 4); got != "o.q" {
		t.Fatalf("mid-field label = %q, want o.q", got)
	}
}
