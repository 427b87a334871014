package pmm

import (
	"fmt"
	"testing"
)

// mockOps records every operation the Thread wrapper issues.
type mockOps struct {
	log  []string
	mem  map[Addr]uint64
	tid  int
	gard bool
}

func newMockOps() *mockOps { return &mockOps{mem: map[Addr]uint64{}} }

func (m *mockOps) TID() int { return m.tid }
func (m *mockOps) Store(a Addr, size int, v uint64, atomic, release bool) {
	m.log = append(m.log, fmt.Sprintf("store(%d,%d,%#x,a=%v,r=%v)", a, size, v, atomic, release))
	m.mem[a] = v
}
func (m *mockOps) Load(a Addr, size int, atomic, acquire bool) uint64 {
	m.log = append(m.log, fmt.Sprintf("load(%d,%d,a=%v,q=%v)", a, size, atomic, acquire))
	return m.mem[a]
}
func (m *mockOps) RMW(a Addr, size int, f func(uint64) (uint64, bool)) (uint64, bool) {
	old := m.mem[a]
	nv, w := f(old)
	if w {
		m.mem[a] = nv
	}
	m.log = append(m.log, fmt.Sprintf("rmw(%d,%d,wrote=%v)", a, size, w))
	return old, w
}
func (m *mockOps) CLFlush(a Addr) { m.log = append(m.log, fmt.Sprintf("clflush(%d)", a)) }
func (m *mockOps) CLWB(a Addr)    { m.log = append(m.log, fmt.Sprintf("clwb(%d)", a)) }
func (m *mockOps) SFence()        { m.log = append(m.log, "sfence") }
func (m *mockOps) MFence()        { m.log = append(m.log, "mfence") }
func (m *mockOps) Yield()         { m.log = append(m.log, "yield") }
func (m *mockOps) SetChecksumGuard(on bool) {
	m.gard = on
	m.log = append(m.log, fmt.Sprintf("guard(%v)", on))
}

var _ Ops = (*mockOps)(nil)

func newTestThread() (*Thread, *mockOps, *Heap) {
	h := NewHeap()
	ops := newMockOps()
	return NewThread(ops, h), ops, h
}

func TestSizedStoresAndLoads(t *testing.T) {
	th, ops, _ := newTestThread()
	th.Store8(8, 0x11)
	th.Store16(16, 0x2222)
	th.Store32(32, 0x33333333)
	th.Store64(64, 0x4444444444444444)
	want := []string{
		"store(8,1,0x11,a=false,r=false)",
		"store(16,2,0x2222,a=false,r=false)",
		"store(32,4,0x33333333,a=false,r=false)",
		"store(64,8,0x4444444444444444,a=false,r=false)",
	}
	for i, w := range want {
		if ops.log[i] != w {
			t.Errorf("op %d = %q, want %q", i, ops.log[i], w)
		}
	}
	if th.Load8(8) != 0x11 || th.Load16(16) != 0x2222 ||
		th.Load32(32) != 0x33333333 || th.Load64(64) != 0x4444444444444444 {
		t.Error("sized loads returned wrong values")
	}
}

func TestAtomicVariants(t *testing.T) {
	th, ops, _ := newTestThread()
	th.StoreRelease64(8, 1)
	th.StoreRelease(16, 4, 2)
	th.StoreAtomic(24, 2, 3)
	th.LoadAcquire64(8)
	th.LoadAcquire(16, 4)
	want := []string{
		"store(8,8,0x1,a=true,r=true)",
		"store(16,4,0x2,a=true,r=true)",
		"store(24,2,0x3,a=true,r=false)",
		"load(8,8,a=true,q=true)",
		"load(16,4,a=true,q=true)",
	}
	for i, w := range want {
		if ops.log[i] != w {
			t.Errorf("op %d = %q, want %q", i, ops.log[i], w)
		}
	}
}

func TestCASAndFetchAdd(t *testing.T) {
	th, ops, _ := newTestThread()
	ops.mem[8] = 5
	if th.CAS64(8, 4, 9) {
		t.Error("CAS with wrong expected value succeeded")
	}
	if !th.CAS64(8, 5, 9) {
		t.Error("CAS with right expected value failed")
	}
	if ops.mem[8] != 9 {
		t.Errorf("mem after CAS = %d", ops.mem[8])
	}
	if old := th.FetchAdd(8, 8, 3); old != 9 {
		t.Errorf("FetchAdd old = %d, want 9", old)
	}
	if ops.mem[8] != 12 {
		t.Errorf("mem after FetchAdd = %d", ops.mem[8])
	}
}

func TestFlushHelpers(t *testing.T) {
	th, ops, _ := newTestThread()
	// Range spanning two cache lines → two clflush ops.
	th.FlushRange(60, 10)
	if len(ops.log) != 2 || ops.log[0] != "clflush(0)" || ops.log[1] != "clflush(64)" {
		t.Errorf("FlushRange ops = %v", ops.log)
	}
	ops.log = nil
	th.WritebackRange(0, 64) // exactly one line
	if len(ops.log) != 1 || ops.log[0] != "clwb(0)" {
		t.Errorf("WritebackRange ops = %v", ops.log)
	}
	ops.log = nil
	th.Persist(0, 8)
	if len(ops.log) != 2 || ops.log[0] != "clwb(0)" || ops.log[1] != "sfence" {
		t.Errorf("Persist ops = %v", ops.log)
	}
	ops.log = nil
	th.CLFlushOpt(128) // clflushopt shares the clwb path
	if len(ops.log) != 1 || ops.log[0] != "clwb(128)" {
		t.Errorf("CLFlushOpt ops = %v", ops.log)
	}
}

func TestFencesAndYield(t *testing.T) {
	th, ops, _ := newTestThread()
	th.SFence()
	th.MFence()
	th.Yield()
	want := []string{"sfence", "mfence", "yield"}
	for i, w := range want {
		if ops.log[i] != w {
			t.Errorf("op %d = %q, want %q", i, ops.log[i], w)
		}
	}
	if th.ID() != 0 {
		t.Errorf("ID = %d", th.ID())
	}
	if th.Heap() == nil {
		t.Error("Heap() nil")
	}
}

func TestMemsetDecomposesByFields(t *testing.T) {
	th, ops, h := newTestThread()
	s := h.AllocStruct("obj", Compile(Layout{{Name: "a", Size: 8}, {Name: "b", Size: 4}, {Name: "c", Size: 2}}))
	th.Memset(s.Base(), s.Size(), 0xAB)
	// One non-atomic store per field, with the repeated-byte pattern
	// truncated to each field size.
	want := []string{
		fmt.Sprintf("store(%d,8,0xabababababababab,a=false,r=false)", s.F("a")),
		fmt.Sprintf("store(%d,4,0xabababab,a=false,r=false)", s.F("b")),
		fmt.Sprintf("store(%d,2,0xabab,a=false,r=false)", s.F("c")),
	}
	if len(ops.log) < len(want) {
		t.Fatalf("memset ops = %v", ops.log)
	}
	for i, w := range want {
		if ops.log[i] != w {
			t.Errorf("op %d = %q, want %q", i, ops.log[i], w)
		}
	}
}

func TestMemcpyCopiesFieldwise(t *testing.T) {
	th, ops, h := newTestThread()
	src := h.AllocStruct("src", Compile(Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
	dst := h.AllocStruct("dst", Compile(Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}}))
	ops.mem[src.F("a")] = 0x11
	ops.mem[src.F("b")] = 0x22
	th.Memcpy(dst.Base(), src.Base(), 16)
	if ops.mem[dst.F("a")] != 0x11 || ops.mem[dst.F("b")] != 0x22 {
		t.Errorf("memcpy did not copy values: %v", ops.mem)
	}
}

func TestMemcpyIncompatibleLayoutsPanics(t *testing.T) {
	th, _, h := newTestThread()
	src := h.AllocStruct("src", Compile(Layout{{Name: "a", Size: 8}}))
	dst := h.AllocStruct("dst", Compile(Layout{{Name: "a", Size: 4}, {Name: "b", Size: 4}}))
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible memcpy did not panic")
		}
	}()
	th.Memcpy(dst.Base(), src.Base(), 8)
}

func TestChecksumGuardTogglesAndRestores(t *testing.T) {
	th, ops, _ := newTestThread()
	th.ChecksumGuard(func() {
		if !ops.gard {
			t.Error("guard not set inside block")
		}
		th.Load64(8)
	})
	if ops.gard {
		t.Error("guard not restored after block")
	}
	// Guard restored even when the body panics.
	func() {
		defer func() { recover() }()
		th.ChecksumGuard(func() { panic("boom") })
	}()
	if ops.gard {
		t.Error("guard not restored after panic")
	}
}

func TestRecoveryWorkers(t *testing.T) {
	f := func(*Thread) {}
	if got := (Program{}).RecoveryWorkers(); got != nil {
		t.Error("empty program has recovery workers")
	}
	if got := (Program{PostCrash: f}).RecoveryWorkers(); len(got) != 1 {
		t.Error("PostCrash not wrapped")
	}
	if got := (Program{PostCrash: f, PostCrashWorkers: []func(*Thread){f, f}}).RecoveryWorkers(); len(got) != 2 {
		t.Error("PostCrashWorkers not preferred")
	}
}
