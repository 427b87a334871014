package pmtest

import (
	"strings"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
)

func oneField(name string) (func(h *pmm.Heap), *pmm.Addr) {
	var addr pmm.Addr
	return func(h *pmm.Heap) {
		addr = h.AllocStruct(name, pmm.Compile(pmm.Layout{{Name: "x", Size: 8}})).F("x")
	}, &addr
}

func TestAssertPersistedPasses(t *testing.T) {
	setup, x := oneField("o")
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(*x, 1)
		t.CLFlush(*x)
		c.AssertPersisted(*x)
	})
	if len(v) != 0 {
		t.Fatalf("violations = %v", v)
	}
}

func TestAssertPersistedCatchesMissingFlush(t *testing.T) {
	setup, x := oneField("o")
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(*x, 1)
		c.AssertPersisted(*x) // no flush: violation
	})
	if len(v) != 1 || v[0].Rule != "isPersist" {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(v[0].Line, "o.x") {
		t.Fatalf("violation lacks field name: %v", v[0])
	}
}

func TestAssertPersistedCatchesCLWBWithoutFence(t *testing.T) {
	setup, x := oneField("o")
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(*x, 1)
		t.CLWB(*x) // no fence
		c.AssertPersisted(*x)
	})
	if len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
	v = Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(*x, 1)
		t.CLWB(*x)
		t.SFence()
		c.AssertPersisted(*x)
	})
	if len(v) != 0 {
		t.Fatalf("clwb+sfence flagged: %v", v)
	}
}

func TestAssertOrderedBefore(t *testing.T) {
	var a, b pmm.Addr
	setup := func(h *pmm.Heap) {
		o := h.AllocStruct("o", pmm.Compile(pmm.Layout{{Name: "a", Size: 8}}))
		a = o.F("a")
		p := h.AllocStruct("p", pmm.Compile(pmm.Layout{{Name: "b", Size: 8}}))
		b = p.F("b") // different cache line
	}
	// Correct: a persisted before b written.
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(a, 1)
		t.Persist(a, 8)
		t.Store64(b, 2)
		c.AssertOrderedBefore(a, b)
	})
	if len(v) != 0 {
		t.Fatalf("correct ordering flagged: %v", v)
	}
	// Buggy: b written before a's flush.
	v = Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(a, 1)
		t.Store64(b, 2)
		t.Persist(a, 8)
		c.AssertOrderedBefore(a, b)
	})
	if len(v) != 1 || v[0].Rule != "isOrderedBefore" {
		t.Fatalf("misordering not flagged: %v", v)
	}
}

func TestSameLineCoherenceOrdering(t *testing.T) {
	var key, value pmm.Addr
	setup := func(h *pmm.Heap) {
		pair := h.AllocStruct("Pair", pmm.Compile(pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}}))
		key, value = pair.F("key"), pair.F("value")
	}
	// The CCEH argument: value committed before key, same line — ordered
	// by coherence even with no flush in between. PMTest accepts it...
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.Store64(value, 10)
		t.Store64(key, 1)
		c.AssertOrderedBefore(value, key)
	})
	if len(v) != 0 {
		t.Fatalf("coherence ordering flagged: %v", v)
	}
}

// The punchline of the comparison (§1): the fully-annotated CCEH insert
// passes every PMTest rule a developer would write — the flush is there,
// the ordering holds — while Yashme still reports both persistency races
// on the same protocol. Rule checking validates the protocol the developer
// INTENDED; it cannot see that the compiler may tear the stores.
func TestRuleCheckingCannotSeePersistencyRaces(t *testing.T) {
	var key, value pmm.Addr
	setup := func(h *pmm.Heap) {
		pair := h.AllocStruct("Pair", pmm.Compile(pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}}))
		key, value = pair.F("key"), pair.F("value")
	}
	violations := Check(setup, func(t *pmm.Thread, c *Checker) {
		t.CAS64(key, 0, ^uint64(0)) // lock the slot
		t.Store64(value, 10)
		t.MFence()
		t.Store64(key, 1)
		t.CLFlush(key)
		c.AssertOrderedBefore(value, key) // holds: same line, value first
		c.AssertPersisted(key)            // holds: clflush committed
		c.AssertPersisted(value)          // holds: same line flushed
	})
	if len(violations) != 0 {
		t.Fatalf("annotated CCEH insert failed PMTest rules: %v", violations)
	}

	// Same protocol under Yashme: two persistency races.
	mk := func() pmm.Program {
		var k, v pmm.Addr
		return pmm.Program{
			Name: "cceh-annotated",
			Setup: func(h *pmm.Heap) {
				pair := h.AllocStruct("Pair", pmm.Compile(pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}}))
				k, v = pair.F("key"), pair.F("value")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.CAS64(k, 0, ^uint64(0))
				t.Store64(v, 10)
				t.MFence()
				t.Store64(k, 1)
				t.CLFlush(k)
			}},
			PostCrash: func(t *pmm.Thread) {
				if t.Load64(k) == 1 {
					t.Load64(v)
				}
			},
		}
	}
	res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 2 {
		t.Fatalf("yashme races on the rule-clean protocol = %d, want 2", res.Report.Count())
	}
}

func TestUnwrittenAddressVacuouslyOK(t *testing.T) {
	setup, x := oneField("o")
	v := Check(setup, func(t *pmm.Thread, c *Checker) {
		c.AssertPersisted(*x)
		c.AssertOrderedBefore(*x, *x)
	})
	if len(v) != 0 {
		t.Fatalf("vacuous rules flagged: %v", v)
	}
}
