package addridx

import (
	"testing"

	"yashme/internal/pmm"
)

func TestTableZeroValueReads(t *testing.T) {
	var tab Table[int]
	if got := tab.At(0x1000); got != 0 {
		t.Fatalf("empty table At = %d, want 0", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
}

func TestTableSetAtPtr(t *testing.T) {
	var tab Table[int]
	tab.Set(0x40, 7)
	if got := tab.At(0x40); got != 7 {
		t.Fatalf("At after Set = %d, want 7", got)
	}
	if got := tab.At(0x39); got != 0 {
		t.Fatalf("unset slot = %d, want 0", got)
	}
	*tab.Ptr(0x48) = 9
	if got := tab.At(0x48); got != 9 {
		t.Fatalf("At after Ptr write = %d, want 9", got)
	}
	if tab.Len() != 0x49 {
		t.Fatalf("Len = %d, want %d", tab.Len(), 0x49)
	}
}

func TestTableCloneIsIndependent(t *testing.T) {
	var tab Table[int]
	tab.Set(64, 1)
	c := tab.Clone()
	c.Set(64, 2)
	c.Set(200, 3) // grows the clone only
	if got := tab.At(64); got != 1 {
		t.Fatalf("mutating clone changed original: %d", got)
	}
	if got := tab.At(200); got != 0 {
		t.Fatalf("growing clone changed original: %d", got)
	}
	tab.Set(64, 5)
	if got := c.At(64); got != 2 {
		t.Fatalf("mutating original changed clone: %d", got)
	}
}

func TestTableForEachOrder(t *testing.T) {
	var tab Table[int]
	tab.Set(10, 1)
	tab.Set(5, 2)
	var addrs []pmm.Addr
	tab.ForEach(func(a pmm.Addr, v int) bool {
		if v != 0 {
			addrs = append(addrs, a)
		}
		return true
	})
	if len(addrs) != 2 || addrs[0] != 5 || addrs[1] != 10 {
		t.Fatalf("ForEach order = %v, want [5 10]", addrs)
	}
}

func TestTableOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt slot index did not panic")
		}
	}()
	var tab Table[int]
	tab.Set(pmm.Addr(maxSlots), 1)
}

func TestLineTable(t *testing.T) {
	var tab LineTable[string]
	l := pmm.LineOf(0x1000)
	tab.Set(l, "x")
	if got := tab.At(l); got != "x" {
		t.Fatalf("At = %q", got)
	}
	if got := tab.At(l + 1); got != "" {
		t.Fatalf("unset line = %q", got)
	}
	c := tab.Clone()
	c.Set(l, "y")
	if tab.At(l) != "x" {
		t.Fatal("clone aliased original")
	}
	n := 0
	tab.ForEach(func(pmm.Line, string) bool { n++; return true })
	if n != int(l)+1 {
		t.Fatalf("ForEach visited %d slots, want %d", n, int(l)+1)
	}
}

// TestResetsZeroSpareCapacity: a table reused through CopyFrom, CopyEachFrom
// or Reset must read as zero everywhere past the copied length, whatever the
// reused array held before — growSlots reslices into that spare capacity and
// relies on it being zeroed.
func TestResetsZeroSpareCapacity(t *testing.T) {
	var src Table[int32]
	src.Set(3, 7)
	var tab Table[int32]
	tab.Set(200, 1)
	tab.Scribble(func() int32 { return -1 })
	tab.CopyFrom(&src, 0)
	if tab.Len() != 4 || tab.At(3) != 7 {
		t.Fatalf("CopyFrom: len %d, slot 3 = %d", tab.Len(), tab.At(3))
	}
	for a := pmm.Addr(4); a <= 200; a++ {
		if got := *tab.Ptr(a); got != 0 {
			t.Fatalf("CopyFrom left %d in spare slot %d", got, a)
		}
	}
	tab.Scribble(func() int32 { return -1 })
	tab.Reset()
	for a := pmm.Addr(0); a <= 200; a++ {
		if got := *tab.Ptr(a); got != 0 {
			t.Fatalf("Reset left %d in slot %d", got, a)
		}
	}

	var lsrc LineTable[[]pmm.Addr]
	lsrc.Set(1, []pmm.Addr{64})
	var lines LineTable[[]pmm.Addr]
	lines.Set(9, nil)
	lines.Scribble(func() []pmm.Addr { return []pmm.Addr{0xbad} })
	lines.CopyEachFrom(&lsrc, 0, func(old, v []pmm.Addr) []pmm.Addr { return append(old[:0], v...) })
	if got := lines.At(1); len(got) != 1 || got[0] != 64 {
		t.Fatalf("CopyEachFrom: line 1 = %v", got)
	}
	for l := pmm.Line(2); l <= 9; l++ {
		if got := *lines.Ptr(l); got != nil {
			t.Fatalf("CopyEachFrom left %v in spare line %d", got, l)
		}
	}
}

// TestCopyFromReusesArray: a copy into a table whose array is large enough
// allocates nothing — the point of CopyFrom.
func TestCopyFromReusesArray(t *testing.T) {
	var src, tab Table[int32]
	src.Set(10, 1)
	tab.Set(100, 2)
	if n := testing.AllocsPerRun(10, func() { tab.CopyFrom(&src, 50) }); n != 0 {
		t.Fatalf("CopyFrom into a large enough table allocated %v times", n)
	}
}
