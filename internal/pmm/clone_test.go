package pmm

import "testing"

// TestCloneIndependence: a cloned heap and its original may be mutated
// independently — the checkpoint layer's snapshots rely on it (a captured
// heap must not change when the probe scenario keeps allocating).
func TestCloneIndependence(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Compile(Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
	h.Init(s.F("a"), 8, 11)

	c := h.Clone()
	// Mutate the clone: new allocations and new init writes.
	c.AllocStruct("extra", Compile(Layout{{Name: "x", Size: 8}}))
	c.AllocArray("arr", Compile(Layout{{Name: "y", Size: 8}}), 3)
	c.Init(s.F("b"), 8, 22)

	if got, want := h.AllocCount(), 1; got != want {
		t.Errorf("original AllocCount = %d after mutating clone, want %d", got, want)
	}
	if got, want := len(h.InitWrites()), 1; got != want {
		t.Errorf("original InitWrites = %d after mutating clone, want %d", got, want)
	}
	if h.NextFree() == c.NextFree() {
		t.Error("original NextFree tracked the clone's allocations")
	}
	if _, ok := h.StructAt(c.allocs[1].base); ok {
		t.Error("original resolves an allocation made only in the clone")
	}

	// And the other direction: mutating the original must not leak into the
	// clone.
	h.AllocRaw("raw", 64)
	h.Init(s.F("a"), 8, 99)
	if got, want := c.AllocCount(), 3; got != want {
		t.Errorf("clone AllocCount = %d after mutating original, want %d", got, want)
	}
	if got, want := len(c.InitWrites()), 2; got != want {
		t.Errorf("clone InitWrites = %d after mutating original, want %d", got, want)
	}

	// Restore grafts a snapshot's state into a live heap and must detach from
	// the source the same way.
	h2 := NewHeap()
	o2 := h2.AllocStruct("obj", Compile(Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
	h2.Restore(c)
	h2.AllocStruct("post", Compile(Layout{{Name: "p", Size: 8}}))
	h2.Init(o2.F("b"), 8, 77) // appends to the restored init-write slice
	if got, want := c.AllocCount(), 3; got != want {
		t.Errorf("restore source AllocCount = %d after mutating target, want %d", got, want)
	}
	if got, want := len(c.InitWrites()), 2; got != want {
		t.Errorf("restore source InitWrites = %d after the target wrote, want %d", got, want)
	}
}
