package core

import (
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// Clone returns a deep copy of the detector — the execution stack with its
// storemap/history/lastflush/CVpre/persistLB state and the accumulated
// report. Store identity is positional (StoreRef = arena index), so a ref
// taken against the original names the corresponding record in the clone and
// no pointer remapping is needed.
//
// Sharing rules: the store arena is shared with the original as a capped
// slice view — records (and their clock vectors) are immutable once
// committed, their mutable side lives in the parallel meta slice, and the
// capped capacity forces either side's later appends onto a private backing
// array. Everything mutable — the meta slice, the flush arena, per-address
// tables, per-line state — is copied, so the clone and the original may be
// mutated independently afterwards.
func (d *Detector) Clone() *Detector { return d.CloneInto(nil) }

// CloneInto is Clone into dst's storage: dst — a detector no longer in use,
// typically the previous crash scenario's — is overwritten with a deep copy
// of d, and every mutable array it owns (the per-execution tables, meta and
// flush arenas, per-line address lists, the report and the clock arena's
// lookup map) is reused instead of allocated. dst's executions past d's
// stack depth stay parked for EndExecution to reuse. A nil dst allocates,
// which is Clone. dst must not share storage with a detector still in use:
// never clone into a detector that was itself cloned or journaled from.
func (d *Detector) CloneInto(dst *Detector) *Detector {
	dst = d.cloneHeader(dst)
	for _, e := range d.execs {
		e.cloneInto(dst.pushExecution(), 0, 0, 0)
	}
	return dst
}

// cloneHeader readies dst (allocating it when nil) for a clone of d: the
// config, the report and the clock arena are copied, the execution stack
// is emptied for the caller to refill.
func (d *Detector) cloneHeader(dst *Detector) *Detector {
	if dst == nil {
		dst = &Detector{}
	}
	dst.cfg = d.cfg
	dst.report = d.report.CloneInto(dst.report)
	dst.arena = d.arena.CloneInto(dst.arena)
	dst.journal = nil
	dst.execs = dst.execs[:0]
	return dst
}

// pushExecution extends the execution stack by one slot and returns the
// Execution for it: the one the slot held before the stack was last
// truncated (CloneInto, Reset), for the caller to overwrite or reset, or a
// new one.
func (d *Detector) pushExecution() *Execution {
	n := len(d.execs)
	if n < cap(d.execs) {
		d.execs = d.execs[:n+1]
		if e := d.execs[n]; e != nil {
			return e
		}
	} else {
		d.execs = append(d.execs, nil)
	}
	e := &Execution{}
	d.execs[n] = e
	return e
}

// Reset returns the detector to New(cfg)'s state — one empty pre-crash
// execution, an empty report and clock arena — reusing its storage the way
// CloneInto does. The same precondition applies: nothing may share the
// detector's storage.
func (d *Detector) Reset(cfg Config) {
	d.cfg = cfg
	d.report.Reset()
	d.arena.Reset()
	d.journal = nil
	d.execs = d.execs[:0]
	d.pushExecution().reset(0)
}

// SetLabeler replaces the address labeler. A scenario resumed from a
// checkpoint re-runs the program's Setup against its own heap and points the
// cloned detector at that heap's LabelFor.
func (d *Detector) SetLabeler(l func(pmm.Addr) string) { d.cfg.Labeler = l }

// reset empties e for reuse as execution id, keeping its arrays. A store
// arena that is a view of another execution's records is dropped, never
// overwritten.
func (e *Execution) reset(id int) {
	e.ID = id
	if e.sharedArena {
		e.arena, e.sharedArena = nil, false
	} else {
		e.arena = e.arena[:0]
	}
	e.meta = e.meta[:0]
	e.flushArena = e.flushArena[:0]
	e.storeTab.Reset()
	e.lineAddrs.Reset()
	e.lastflush.Reset()
	e.cvpre = 0
	e.persistTab.Reset()
	e.crashSeq = 0
}

// cloneInto overwrites ne with a copy of e, with growth headroom for a
// pending journal replay: the meta and flush arenas get capacity for the
// segment's appends and the address-indexed tables get capacity up to its
// high-water address, so the replay performs no reallocation (see
// Detector.CloneReplayInto). The store arena needs no headroom — it is shared,
// and a replay extends the view over the journal's frozen arena rather than
// appending. Zero sizes degrade to a plain clone. ne's arrays are reused
// when large enough.
func (e *Execution) cloneInto(ne *Execution, stores, flushes int, maxAddr pmm.Addr) {
	addrCap, lineCap := 0, 0
	if maxAddr > 0 {
		addrCap = int(maxAddr) + 1
		lineCap = int(pmm.LineOf(maxAddr)) + 1
	}
	ne.ID = e.ID
	ne.arena, ne.sharedArena = e.arena[:len(e.arena):len(e.arena)], true
	ne.meta = append(withCap(ne.meta, len(e.meta)+stores), e.meta...)
	ne.flushArena = append(withCap(ne.flushArena, len(e.flushArena)+flushes), e.flushArena...)
	ne.storeTab.CopyFrom(&e.storeTab, addrCap)
	// The table copies are flat; the one reference-typed slot value both
	// sides may mutate — per-line address lists, appended to on first store
	// — is copied onto ne's own list for the line. Per-line flush clocks need
	// no detaching: a slot is a ref into the immutable clock arena, and
	// observations replace the ref rather than joining a shared vector in
	// place.
	ne.lineAddrs.CopyEachFrom(&e.lineAddrs, lineCap, copyAddrs)
	ne.lastflush.CopyFrom(&e.lastflush, 0)
	ne.cvpre = e.cvpre
	ne.persistTab.CopyFrom(&e.persistTab, addrCap)
	ne.crashSeq = e.crashSeq
}

// copyAddrs detaches one per-line address list onto old's array.
func copyAddrs(old, v []pmm.Addr) []pmm.Addr { return append(old[:0], v...) }

// withCap returns s emptied, with capacity for at least n elements.
func withCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Scribble overwrites every array the detector would reuse on its next
// CloneInto or Reset — the per-execution tables, meta and flush arenas,
// per-line lists and owned store arenas of every execution (parked ones
// included), and the report — with garbage. It is a test aid for the
// engine's scenario shells: a reuse that reads state it did not copy or
// reset sees the garbage, and results change.
func (d *Detector) Scribble() {
	d.report.Scribble()
	for _, e := range d.execs[:cap(d.execs)] {
		if e == nil {
			continue
		}
		if !e.sharedArena {
			arena := e.arena[:cap(e.arena)]
			for i := range arena {
				arena[i] = StoreRecord{Addr: 0xbad, Seq: 0xbad, ref: -1, prevSameAddr: -1}
			}
		}
		meta := e.meta[:cap(e.meta)]
		for i := range meta {
			meta[i] = recMeta{flushHead: -1, flushTail: -1, torn: true}
		}
		flushes := e.flushArena[:cap(e.flushArena)]
		for i := range flushes {
			flushes[i] = flushNode{ref: FlushRef{TID: -1, Seq: 0xbad}, next: -1}
		}
		e.storeTab.Scribble(func() StoreRef { return -1 })
		e.persistTab.Scribble(func() StoreRef { return -1 })
		e.lastflush.Scribble(func() vclock.Ref { return -1 })
		e.lineAddrs.Scribble(func() []pmm.Addr { return []pmm.Addr{0xbad} })
		e.cvpre = -1
	}
}
