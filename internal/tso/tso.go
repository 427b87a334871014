// Package tso simulates the x86-TSO storage system with Px86sim persistency
// operations (Raad et al., POPL 2020), as used by Yashme (ASPLOS '22 §2, §6).
//
// Each simulated thread has a store buffer S_τ holding stores, clflush, clwb
// and sfence operations that have not yet taken effect on the cache, and a
// flush buffer F_τ holding clwb operations that have left the store buffer
// but are not yet guaranteed persistent (they need a later fence by the same
// thread). Store buffers drain in FIFO order into a single global commit
// order; the global sequence counter σ numbers operations as they commit,
// exactly as in the paper's Figure 8. Loads bypass: a load first consults the
// issuing thread's own store buffer.
//
// The machine maintains per-thread happens-before clock vectors: committing
// an operation by thread τ raises CV_τ[τ] to the operation's σ; an atomic
// release store publishes a snapshot of CV_τ with its committed record; an
// acquire load joins the publisher's snapshot into the reader's clock.
// Because a thread's store buffer is FIFO, the clock snapshot taken when a
// clflush/clwb/sfence commits already covers every same-thread operation
// that program-order precedes it.
//
// The machine does not decide when buffers drain — the engine (the model
// checker) owns that nondeterminism and calls EvictOne / DrainSB explicitly.
package tso

import (
	"fmt"

	"yashme/internal/addridx"
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// OpKind labels a store-buffer entry.
type OpKind int

// Store-buffer entry kinds.
const (
	OpStore OpKind = iota
	OpCLFlush
	OpCLWB
	OpSFence
)

func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpCLFlush:
		return "clflush"
	case OpCLWB:
		return "clwb"
	case OpSFence:
		return "sfence"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// SBEntry is one operation buffered in a thread's store buffer.
type SBEntry struct {
	Kind    OpKind
	Addr    pmm.Addr // for stores: the target; for flushes: any address on the line
	Size    int
	Val     uint64
	Atomic  bool
	Release bool
}

// FBEntry is a clwb waiting in a thread's flush buffer for a fence.
type FBEntry struct {
	Addr pmm.Addr
	CV   vclock.Stamp // clock snapshot when the clwb left the store buffer
	TID  vclock.TID
}

// CommittedStore is the cache-visible record of a store that left a store
// buffer. The volatile memory map keeps the latest one per address.
type CommittedStore struct {
	Addr    pmm.Addr
	Size    int
	Val     uint64
	TID     vclock.TID
	Seq     vclock.Seq
	CV      vclock.Stamp // happens-before clock at commit (includes this store)
	Atomic  bool
	Release bool
}

// Listener receives commit events in the global commit order. The engine
// forwards them to the persistency-race detector, which implements the
// paper's Evict_SB / Evict_FB bookkeeping on top of them.
type Listener interface {
	// StoreCommitted fires when a store takes effect on the cache.
	StoreCommitted(rec *CommittedStore)
	// CLFlushCommitted fires when a clflush takes effect: the cache line of
	// addr is flushed to persistent storage at sequence number seq.
	CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp)
	// CLWBBuffered fires when a clwb leaves the store buffer and enters the
	// thread's flush buffer (not yet persistent).
	CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp)
	// CLWBPersisted fires when a fence evicts a clwb from the flush buffer:
	// the write-back is now guaranteed persistent.
	CLWBPersisted(flush FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp)
	// FenceCommitted fires for sfence commits and mfence/RMW drains, after
	// the flush buffer has been processed.
	FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp)
}

// NopListener is a Listener that ignores every event; it is the "Jaaru only"
// configuration used to measure detector overhead (paper Table 5).
type NopListener struct{}

func (NopListener) StoreCommitted(*CommittedStore)                                  {}
func (NopListener) CLFlushCommitted(vclock.TID, pmm.Addr, vclock.Seq, vclock.Stamp) {}
func (NopListener) CLWBBuffered(vclock.TID, pmm.Addr, vclock.Stamp)                 {}
func (NopListener) CLWBPersisted(FBEntry, vclock.TID, vclock.Seq, vclock.Stamp)     {}
func (NopListener) FenceCommitted(vclock.TID, vclock.Seq, vclock.Stamp)             {}

var _ Listener = NopListener{}

// MaxThreads caps the dense TID range a machine will grow to on demand. The
// simulator runs a handful of threads; a TID at or beyond this limit is a
// corrupt identifier, and indexing by it would silently allocate garbage
// state, so the machine panics instead.
const MaxThreads = 1 << 10

// Machine is one x86-TSO storage system instance. One Machine simulates one
// execution (pre-crash or post-crash); the engine creates a fresh Machine
// per execution, seeding its memory from the persisted image.
//
// Per-thread state is held in slices indexed directly by TID. This dense
// layout relies on the TID-density invariant: threads are numbered 0..n-1
// with no gaps (the engine spawns them that way and declares the count via
// SpawnThreads). A machine used without SpawnThreads grows its per-thread
// state on demand up to MaxThreads; after SpawnThreads, an out-of-range TID
// panics loudly rather than mis-indexing.
type Machine struct {
	listener Listener
	seq      vclock.Seq

	// declared is the thread count fixed by SpawnThreads, 0 when the
	// machine grows on demand.
	declared int

	sb [][]SBEntry // indexed by TID
	fb [][]FBEntry // indexed by TID

	// Per-thread clocks in interned form: the thread's logical clock is
	// clocks.At(base[τ]) joined with {τ: self[τ]}. base[τ] only changes at
	// synchronizing events (acquire loads, RMWs), so committing a store is
	// allocation-free — the record's Stamp reuses the shared snapshot.
	base []vclock.Ref // indexed by TID
	self []vclock.Seq // indexed by TID

	// clocks holds the interned snapshots. The engine shares the
	// detector's arena via Reset so record stamps resolve on both
	// sides; a stand-alone machine gets a private arena.
	clocks *vclock.Arena

	// mem is the volatile cache/memory view: latest committed store per
	// address, interned by addridx (the heap's Addr space is dense).
	// Initial contents come from the persisted image. Records are immutable
	// once committed, so clones share them.
	mem addridx.Table[*CommittedStore]

	// recs is the current chunk of a chunk-allocated CommittedStore block
	// and recN the number of its slots handed out: seeding a persisted image
	// and committing stores both mint one record per event, so handing out
	// chunk slots turns those per-record allocations into one per chunk.
	// Handed-out records are immutable and freely shared (Clone shares them;
	// the unused tail stays private) until Reset recycles the chunk.
	recs []CommittedStore
	recN int
}

// newRecord hands out one record slot from the chunk, starting a new chunk
// twice the size when it is used up (earlier chunks stay alive as long as
// their records are referenced).
func (m *Machine) newRecord() *CommittedStore {
	if m.recN == len(m.recs) {
		m.recs, m.recN = make([]CommittedStore, max(64, 2*len(m.recs))), 0
	}
	m.recN++
	return &m.recs[m.recN-1]
}

// arenaProvider is the optional listener interface a clock-consuming
// listener (the race detector) implements: its arena is adopted by
// NewMachine so the stamps the machine mints resolve on the listener's
// side without an explicit arena argument.
type arenaProvider interface{ ClockArena() *vclock.Arena }

// NewMachine returns an empty machine reporting to listener. A listener
// that owns a clock arena (implements ClockArena) shares it with the
// machine; otherwise the machine gets a private arena.
func NewMachine(listener Listener) *Machine {
	m := &Machine{}
	m.Reset(listener, nil)
	return m
}

// Reset returns m to NewMachine(listener)'s empty state, keeping its
// memory table, its per-thread buffers and its latest record chunk for
// reuse: the engine runs one
// short-lived machine per execution, and a scenario reuses its machine
// instead of allocating one each time. Reset recycles every record m handed
// out, so neither those records nor any clone of m may still be in use.
// clocks, when non-nil, is the arena the machine's stamps resolve in (the
// engine passes its detector's, so record stamps resolve identically on both
// sides); nil picks one as NewMachine does.
func (m *Machine) Reset(listener Listener, clocks *vclock.Arena) {
	if listener == nil {
		listener = NopListener{}
	}
	if clocks == nil {
		if p, ok := listener.(arenaProvider); ok {
			clocks = p.ClockArena()
		} else {
			clocks = vclock.NewArena()
		}
	}
	m.listener, m.clocks = listener, clocks
	m.seq, m.declared = 0, 0
	m.sb, m.fb, m.base, m.self = m.sb[:0], m.fb[:0], m.base[:0], m.self[:0]
	m.mem.Reset()
	m.recN = 0
}

// Scribble overwrites the arrays Reset keeps — the whole memory table and
// record chunk — with garbage. It is a test aid for code that reuses
// machines: a reset that forgets to clear them makes stale state visible.
func (m *Machine) Scribble() {
	bad := &CommittedStore{Addr: 0xbad, Val: 0xbad, Seq: 0xbad}
	m.mem.Scribble(func() *CommittedStore { return bad })
	for i := range m.recs {
		m.recs[i] = *bad
	}
}

// ClockArena returns the arena the machine's stamps resolve in.
func (m *Machine) ClockArena() *vclock.Arena { return m.clocks }

// ReserveMemory pre-sizes the memory view for addresses [0, n), so seeding
// a persisted image (ascending addresses) fills one allocation instead of
// growing geometrically.
func (m *Machine) ReserveMemory(n int) { m.mem.Reserve(n) }

// SpawnThreads declares that the execution runs threads 0..n-1 and fixes the
// machine's thread range: any later operation naming a TID outside [0, n)
// panics. Declaring the range up front documents the density invariant the
// slice-backed layout relies on and sizes the per-thread state once.
func (m *Machine) SpawnThreads(n int) {
	if n <= 0 || n > MaxThreads {
		panic(fmt.Sprintf("tso: thread count %d out of range [1, %d]", n, MaxThreads))
	}
	if n < m.declared || n < len(m.sb) {
		panic(fmt.Sprintf("tso: SpawnThreads(%d) would shrink an existing thread range of %d", n, max(m.declared, len(m.sb))))
	}
	m.growThreads(n)
	m.declared = n
}

// growThreads extends the per-thread slices to cover n threads.
func (m *Machine) growThreads(n int) {
	for len(m.sb) < n {
		m.sb = appendBuf(m.sb)
		m.fb = appendBuf(m.fb)
		m.base = append(m.base, 0)
		m.self = append(m.self, 0)
	}
}

// appendBuf extends a per-thread buffer list by one empty buffer, reusing
// the one a previous execution left in the spare capacity (Reset truncates
// the lists but keeps them).
func appendBuf[T any](bufs [][]T) [][]T {
	if n := len(bufs); n < cap(bufs) {
		bufs = bufs[:n+1]
		bufs[n] = bufs[n][:0]
		return bufs
	}
	return append(bufs, nil)
}

// checkTID validates tid against the declared (or on-demand) thread range
// and ensures its slots exist.
func (m *Machine) checkTID(tid vclock.TID) {
	if tid < 0 || int(tid) >= MaxThreads {
		panic(fmt.Sprintf("tso: thread id %d out of range [0, %d)", tid, MaxThreads))
	}
	if m.declared > 0 {
		if int(tid) >= m.declared {
			panic(fmt.Sprintf("tso: thread id %d outside the declared dense range [0, %d) — spawn threads contiguously", tid, m.declared))
		}
		return
	}
	m.growThreads(int(tid) + 1)
}

// Clone returns an independent machine with the same buffered and committed
// state, reporting subsequent events to listener (nil = NopListener).
// Committed store records are shared with the original: a CommittedStore is
// immutable once committed (its clock vector is snapshotted at commit time).
// Store buffers, flush buffers and per-thread clocks are deep-copied, so the
// two machines may run on independently.
//
// The engine's checkpoint layer deliberately does NOT snapshot machines: a
// crash discards every buffered operation by definition, and each post-crash
// machine is freshly seeded from the persisted image, so a snapshot only
// needs CurSeq (see internal/engine/checkpoint.go). Clone keeps the storage
// system snapshottable for tooling and tests regardless.
func (m *Machine) Clone(listener Listener) *Machine {
	if listener == nil {
		listener = NopListener{}
	}
	c := &Machine{
		listener: listener,
		seq:      m.seq,
		declared: m.declared,
		sb:       make([][]SBEntry, len(m.sb)),
		fb:       make([][]FBEntry, len(m.fb)),
		base:     append([]vclock.Ref(nil), m.base...),
		self:     append([]vclock.Seq(nil), m.self...),
		clocks:   m.clocks.Clone(), // capped view: snapshots are immutable
		mem:      m.mem.Clone(),    // flat: records are immutable once committed
	}
	// A clock-consuming listener (a cloned detector) brings its own arena
	// clone; adopt it so the pair diverges together, exactly as NewMachine
	// pairs a fresh machine with its detector.
	if p, ok := listener.(arenaProvider); ok {
		c.clocks = p.ClockArena()
	}
	for t, buf := range m.sb {
		if len(buf) > 0 {
			c.sb[t] = append([]SBEntry(nil), buf...)
		}
	}
	for t, buf := range m.fb {
		if len(buf) > 0 {
			c.fb[t] = append([]FBEntry(nil), buf...)
		}
	}
	return c
}

// SeedMemory installs an initial, already-persisted value. Seeded values
// have Seq 0 and carry no clock: they predate the execution.
func (m *Machine) SeedMemory(addr pmm.Addr, size int, val uint64) {
	rec := m.newRecord()
	*rec = CommittedStore{Addr: addr, Size: size, Val: val}
	m.mem.Set(addr, rec)
}

// CurSeq returns the last assigned global sequence number.
func (m *Machine) CurSeq() vclock.Seq { return m.seq }

// ThreadCV returns (a materialized copy of) the thread's current
// happens-before clock.
func (m *Machine) ThreadCV(tid vclock.TID) vclock.VC {
	m.checkTID(tid)
	return m.clocks.Materialize(m.snapshot(tid))
}

// snapshot returns the thread's current clock as a stamp (no allocation).
func (m *Machine) snapshot(tid vclock.TID) vclock.Stamp {
	return vclock.Stamp{Base: m.base[tid], Self: vclock.NewEpoch(tid, m.self[tid])}
}

// commitStamp assigns the next global sequence number to an operation by
// tid and returns the operation's clock. This allocates nothing: the stamp
// reuses the thread's shared snapshot and carries the new (tid, seq) epoch
// as its self component.
func (m *Machine) commitStamp(tid vclock.TID) vclock.Stamp {
	m.seq++
	m.self[tid] = m.seq
	return vclock.Stamp{Base: m.base[tid], Self: vclock.NewEpoch(tid, m.seq)}
}

// joinThread merges a published stamp into the thread's clock (the acquire
// side of a release/acquire pair). The arena's epoch fast path makes the
// common already-covered case a single packed compare.
func (m *Machine) joinThread(tid vclock.TID, st vclock.Stamp) {
	if st == (vclock.Stamp{}) {
		return // seeded record: no clock to merge
	}
	m.base[tid] = m.clocks.JoinThread(m.base[tid], tid, m.self[tid], st)
}

// EnqueueStore appends a store to the thread's store buffer.
func (m *Machine) EnqueueStore(tid vclock.TID, addr pmm.Addr, size int, val uint64, atomic, release bool) {
	m.checkTID(tid)
	m.sb[tid] = append(m.sb[tid], SBEntry{Kind: OpStore, Addr: addr, Size: size, Val: val, Atomic: atomic, Release: release})
}

// EnqueueCLFlush appends a clflush; it commits in store-buffer order like a
// store (Px86sim Table 1: clflush is ordered with respect to writes).
func (m *Machine) EnqueueCLFlush(tid vclock.TID, addr pmm.Addr) {
	m.checkTID(tid)
	m.sb[tid] = append(m.sb[tid], SBEntry{Kind: OpCLFlush, Addr: addr})
}

// EnqueueCLWB appends a clwb; on eviction it moves to the flush buffer and
// becomes persistent only at the next same-thread fence, modelling clwb /
// clflushopt reordering freedom.
func (m *Machine) EnqueueCLWB(tid vclock.TID, addr pmm.Addr) {
	m.checkTID(tid)
	m.sb[tid] = append(m.sb[tid], SBEntry{Kind: OpCLWB, Addr: addr})
}

// EnqueueSFence appends an sfence; on eviction it flushes the thread's flush
// buffer.
func (m *Machine) EnqueueSFence(tid vclock.TID) {
	m.checkTID(tid)
	m.sb[tid] = append(m.sb[tid], SBEntry{Kind: OpSFence})
}

// SBLen returns the number of buffered operations for the thread.
func (m *Machine) SBLen(tid vclock.TID) int {
	if int(tid) >= len(m.sb) || tid < 0 {
		return 0
	}
	return len(m.sb[tid])
}

// FBLen returns the number of pending clwb operations for the thread.
func (m *Machine) FBLen(tid vclock.TID) int {
	if int(tid) >= len(m.fb) || tid < 0 {
		return 0
	}
	return len(m.fb[tid])
}

// EvictOne pops the oldest store-buffer entry of the thread and commits it.
// It reports whether an entry was evicted.
func (m *Machine) EvictOne(tid vclock.TID) bool {
	m.checkTID(tid)
	buf := m.sb[tid]
	if len(buf) == 0 {
		return false
	}
	e := buf[0]
	// Shift rather than reslice past the entry: buffers hold a handful of
	// entries, and keeping the array's start lets it be reused forever.
	copy(buf, buf[1:])
	m.sb[tid] = buf[:len(buf)-1]
	m.commit(tid, e)
	return true
}

// DrainSB commits every buffered entry of the thread in order.
func (m *Machine) DrainSB(tid vclock.TID) {
	for m.EvictOne(tid) {
	}
}

func (m *Machine) commit(tid vclock.TID, e SBEntry) {
	switch e.Kind {
	case OpStore:
		st := m.commitStamp(tid)
		rec := m.newRecord()
		*rec = CommittedStore{
			Addr: e.Addr, Size: e.Size, Val: e.Val,
			TID: tid, Seq: m.seq, CV: st,
			Atomic: e.Atomic, Release: e.Release,
		}
		m.mem.Set(e.Addr, rec)
		m.listener.StoreCommitted(rec)
	case OpCLFlush:
		st := m.commitStamp(tid)
		m.listener.CLFlushCommitted(tid, e.Addr, m.seq, st)
	case OpCLWB:
		st := m.snapshot(tid)
		m.fb[tid] = append(m.fb[tid], FBEntry{Addr: e.Addr, CV: st, TID: tid})
		m.listener.CLWBBuffered(tid, e.Addr, st)
	case OpSFence:
		st := m.commitStamp(tid)
		m.flushFB(tid, m.seq, st)
		m.listener.FenceCommitted(tid, m.seq, st)
	}
}

// flushFB persists every pending clwb of the thread (Evict_FB in the paper).
func (m *Machine) flushFB(tid vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	for _, fbe := range m.fb[tid] {
		m.listener.CLWBPersisted(fbe, tid, fenceSeq, fenceCV)
	}
	m.fb[tid] = m.fb[tid][:0]
}

// MFence drains the thread's store buffer, persists its flush buffer, and
// commits the fence (Exec_MFENCE in the paper's Figure 7).
func (m *Machine) MFence(tid vclock.TID) {
	m.DrainSB(tid)
	st := m.commitStamp(tid)
	m.flushFB(tid, m.seq, st)
	m.listener.FenceCommitted(tid, m.seq, st)
}

// Load performs a load with store-buffer bypassing. acquire joins the
// publisher's clock when reading an atomic release store. The returned
// record is the committed store the load reads from; it is nil when the
// value comes from the thread's own store buffer or from seeded-but-absent
// memory (reads of never-written addresses return zero).
func (m *Machine) Load(tid vclock.TID, addr pmm.Addr, size int, acquire bool) (uint64, *CommittedStore) {
	v, rec, _ := m.LoadDetail(tid, addr, size, acquire)
	return v, rec
}

// LoadDetail is Load with an extra result reporting whether the value came
// from the thread's own store buffer (bypass). The engine uses it to tell
// current-execution values apart from values seeded across a crash.
func (m *Machine) LoadDetail(tid vclock.TID, addr pmm.Addr, size int, acquire bool) (uint64, *CommittedStore, bool) {
	// Bypass: most recent same-address store in the thread's own buffer.
	m.checkTID(tid)
	buf := m.sb[tid]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].Kind == OpStore && buf[i].Addr == addr {
			return truncate(buf[i].Val, size), nil, true
		}
	}
	rec := m.mem.At(addr)
	if rec == nil {
		return 0, nil, false
	}
	if acquire && rec.Release {
		m.joinThread(tid, rec.CV)
	}
	return truncate(rec.Val, size), rec, false
}

// RMW performs a locked read-modify-write: it has full fence semantics
// (drains the store buffer and flush buffer first), reads the current value,
// applies f, and — if f elects to write — commits the new value atomically
// with release semantics and acquire semantics on the read.
func (m *Machine) RMW(tid vclock.TID, addr pmm.Addr, size int, f func(old uint64) (uint64, bool)) (uint64, bool) {
	m.MFence(tid)
	var old uint64
	if rec := m.mem.At(addr); rec != nil {
		old = truncate(rec.Val, size)
		if rec.Release {
			m.joinThread(tid, rec.CV)
		}
	}
	newVal, write := f(old)
	if write {
		st := m.commitStamp(tid)
		rec := m.newRecord()
		*rec = CommittedStore{
			Addr: addr, Size: size, Val: truncate(newVal, size),
			TID: tid, Seq: m.seq, CV: st,
			Atomic: true, Release: true,
		}
		m.mem.Set(addr, rec)
		m.listener.StoreCommitted(rec)
	}
	return old, write
}

// VolatileValue returns the current cache-visible value at addr (ignoring
// store buffers), for engine-side image construction.
func (m *Machine) VolatileValue(addr pmm.Addr) (*CommittedStore, bool) {
	rec := m.mem.At(addr)
	return rec, rec != nil
}

// Addresses returns every address with a cache-visible value, in ascending
// address order.
func (m *Machine) Addresses() []pmm.Addr {
	var out []pmm.Addr
	m.mem.ForEach(func(a pmm.Addr, rec *CommittedStore) bool {
		if rec != nil {
			out = append(out, a)
		}
		return true
	})
	return out
}

func truncate(v uint64, size int) uint64 {
	if size >= 8 {
		return v
	}
	return v & ((uint64(1) << (8 * size)) - 1)
}
