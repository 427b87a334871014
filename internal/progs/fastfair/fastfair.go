// Package fastfair reproduces the FAST_FAIR persistent B+-tree (Hwang et
// al., FAST '18) with the six persistency races Yashme reports for it
// (paper Table 3, bugs 3–8):
//
//	#3  last_index     in header (btree.h)
//	#4  switch_counter in header (btree.h)
//	#5  key            in entry  (btree.h)
//	#6  ptr            in entry  (btree.h)
//	#7  root           in btree  (btree.h)
//	#8  sibling_ptr    in header (btree.h)
//
// FAST_FAIR performs Failure-Atomic ShifTs: inserts shift entries with
// plain stores and per-cache-line flushes, bump switch_counter around
// shifts, update last_index, and link split siblings through sibling_ptr —
// all with NON-ATOMIC stores, relying on 8-byte store atomicity that the C++
// standard does not actually guarantee. Fields written once at node
// construction (level, leftmost_ptr) are flushed before the node is
// published and are therefore persistency-safe: reading the publishing
// pointer pulls their flushes into every consistent prefix.
package fastfair

import (
	"yashme/internal/pmm"
)

// Cardinality is the (downsized) number of entries per node; small so that
// modest drivers exercise splits and sibling links.
const Cardinality = 4

// ExpectedRaces are the fields the paper reports for FAST_FAIR.
var ExpectedRaces = []string{
	"btree.root",
	"entry.key",
	"entry.ptr",
	"header.last_index",
	"header.sibling_ptr",
	"header.switch_counter",
}

// NullPtr marks an absent node pointer.
const NullPtr = uint64(0)

type node struct {
	hdr     pmm.Struct
	entries pmm.Array
}

func (n *node) base() uint64 { return uint64(n.hdr.Base()) }

// Tree is a FAST_FAIR B+-tree instance on the simulated persistent heap.
// The nodes map plays the role of the fixed PM mapping: node pointers
// stored in persistent memory are heap addresses resolvable after a crash.
type Tree struct {
	h     *pmm.Heap
	btree pmm.Struct // {root}
	nodes map[uint64]*node
}

var (
	headerType = pmm.Compile(pmm.Layout{
		{Name: "last_index", Size: 8},
		{Name: "switch_counter", Size: 8},
		{Name: "sibling_ptr", Size: 8},
		{Name: "leftmost_ptr", Size: 8},
		{Name: "level", Size: 8},
	})
	hdrLastIndex     = headerType.Ref("last_index")
	hdrSwitchCounter = headerType.Ref("switch_counter")
	hdrSiblingPtr    = headerType.Ref("sibling_ptr")
	hdrLeftmostPtr   = headerType.Ref("leftmost_ptr")
	hdrLevel         = headerType.Ref("level")

	entryType = pmm.Compile(pmm.Layout{{Name: "key", Size: 8}, {Name: "ptr", Size: 8}})
	entryKey  = entryType.Ref("key")
	entryPtr  = entryType.Ref("ptr")

	btreeType = pmm.Compile(pmm.Layout{{Name: "root", Size: 8}})
	btreeRoot = btreeType.Ref("root")
)

// NewTree allocates the btree struct and an empty root leaf. Initial values
// are Setup-time writes (fully persisted).
func NewTree(h *pmm.Heap) *Tree {
	tr := &Tree{h: h, btree: h.AllocStruct("btree", btreeType), nodes: make(map[uint64]*node)}
	root := tr.newNodeInit(h, 0, NullPtr)
	h.Init(tr.btree.At(btreeRoot), 8, root.base())
	// last_index starts at -1 in FAST_FAIR; we keep a count-style encoding
	// with 0 = empty, i.e. last_index holds count.
	return tr
}

// newNodeInit allocates a node during Setup (initial, persisted state).
func (tr *Tree) newNodeInit(h *pmm.Heap, level uint64, leftmost uint64) *node {
	n := &node{
		hdr:     h.AllocStruct("header", headerType),
		entries: h.AllocArray("entry", entryType, Cardinality+1),
	}
	h.Init(n.hdr.At(hdrLevel), 8, level)
	h.Init(n.hdr.At(hdrLeftmostPtr), 8, leftmost)
	tr.nodes[n.base()] = n
	return n
}

// newNodeRuntime allocates and initializes a node during execution: the
// construction-time stores are flushed before the node is published, so
// they are persistency-safe by the prefix argument above.
func (tr *Tree) newNodeRuntime(t *pmm.Thread, level uint64, leftmost uint64) *node {
	n := &node{
		hdr:     tr.h.AllocStruct("header", headerType),
		entries: tr.h.AllocArray("entry", entryType, Cardinality+1),
	}
	t.Store64(n.hdr.At(hdrLevel), level)
	t.Store64(n.hdr.At(hdrLeftmostPtr), leftmost)
	t.Store64(n.hdr.At(hdrLastIndex), 0)
	t.Store64(n.hdr.At(hdrSwitchCounter), 0)
	t.Store64(n.hdr.At(hdrSiblingPtr), NullPtr)
	t.FlushRange(n.hdr.Base(), n.hdr.Size())
	t.SFence()
	tr.nodes[n.base()] = n
	return n
}

// node resolves a node pointer loaded from persistent memory. The nodes map
// is the warm path; on a miss (fresh-process recovery, where the map holds
// only Setup-time entries) the node is reattached from the heap itself: a
// node is a "header" struct allocation immediately followed by its "entry"
// array allocation, mirroring how a real recovery procedure casts a mapped
// PM offset back to node*.
func (tr *Tree) node(addr uint64) *node {
	if addr == NullPtr {
		return nil
	}
	if n, ok := tr.nodes[addr]; ok {
		return n
	}
	hdr, ok := tr.h.StructAt(pmm.Addr(addr))
	if !ok || hdr.Label() != "header" {
		return nil
	}
	entBase, ok := tr.h.NextAllocBase(pmm.Addr(addr))
	if !ok {
		return nil
	}
	entries, ok := tr.h.ArrayAt(entBase)
	if !ok || entries.Label() != "entry" {
		return nil
	}
	n := &node{hdr: hdr, entries: entries}
	tr.nodes[addr] = n
	return n
}

// count reads last_index (entry count) — a race-observing load post-crash.
func (n *node) count(t *pmm.Thread) int { return int(t.Load64(n.hdr.At(hdrLastIndex))) }

// Insert adds a key/value pair, splitting full nodes bottom-up and growing
// a new root when the old root splits.
func (tr *Tree) Insert(t *pmm.Thread, key, val uint64) {
	rootAddr := t.Load64(tr.btree.At(btreeRoot))
	promoted, sepKey, sibAddr := tr.insertRec(t, rootAddr, key, val)
	if !promoted {
		return
	}
	// Bug #7: growing the tree stores a new root pointer non-atomically.
	oldRoot := tr.node(rootAddr)
	level := t.Load64(oldRoot.hdr.At(hdrLevel))
	newRoot := tr.newNodeRuntime(t, level+1, rootAddr)
	e := newRoot.entries.At(0)
	t.Store64(e.At(entryKey), sepKey)
	t.Store64(e.At(entryPtr), sibAddr)
	t.Store64(newRoot.hdr.At(hdrLastIndex), 1)
	t.FlushRange(newRoot.hdr.Base(), newRoot.hdr.Size())
	t.CLFlush(e.Base())
	t.SFence()
	t.Store64(tr.btree.At(btreeRoot), newRoot.base())
	t.CLFlush(tr.btree.At(btreeRoot))
	t.SFence()
}

// insertRec inserts into the subtree rooted at nAddr. If the subtree root
// split, it returns the separator key and new sibling for the caller to
// install.
func (tr *Tree) insertRec(t *pmm.Thread, nAddr, key, val uint64) (promoted bool, sepKey, sibAddr uint64) {
	n := tr.node(nAddr)
	if t.Load64(n.hdr.At(hdrLevel)) > 0 {
		child := tr.childFor(t, n, key)
		p, sk, sa := tr.insertRec(t, child, key, val)
		if !p {
			return false, 0, 0
		}
		key, val = sk, sa // install the separator in this node
	}
	if n.count(t) < Cardinality {
		tr.insertEntry(t, n, key, val)
		return false, 0, 0
	}
	sepKey, sibAddr = tr.split(t, n)
	if key < sepKey {
		tr.insertEntry(t, n, key, val)
	} else {
		tr.insertEntry(t, tr.node(sibAddr), key, val)
	}
	return true, sepKey, sibAddr
}

// childFor scans an inner node for the child covering key.
func (tr *Tree) childFor(t *pmm.Thread, n *node, key uint64) uint64 {
	cnt := n.count(t)
	child := t.Load64(n.hdr.At(hdrLeftmostPtr))
	for i := 0; i < cnt; i++ {
		e := n.entries.At(i)
		if key < t.Load64(e.At(entryKey)) {
			break
		}
		child = t.Load64(e.At(entryPtr))
	}
	return child
}

// insertEntry is FAST_FAIR's insert_key on a non-full node: bump
// switch_counter, shift larger entries right with store+flush per entry,
// write the new entry, update last_index, and flush the header — every
// store non-atomic.
func (tr *Tree) insertEntry(t *pmm.Thread, n *node, key, val uint64) {
	cnt := n.count(t)
	// Bug #4: non-atomic switch_counter update marks the shift in flight.
	sc := t.Load64(n.hdr.At(hdrSwitchCounter))
	t.Store64(n.hdr.At(hdrSwitchCounter), sc+1)

	// FAST shift: move entries one position right until the slot for key.
	i := cnt - 1
	for ; i >= 0; i-- {
		e := n.entries.At(i)
		k := t.Load64(e.At(entryKey))
		if k <= key {
			break
		}
		dst := n.entries.At(i + 1)
		// Bugs #5/#6: non-atomic entry key/ptr stores.
		t.Store64(dst.At(entryKey), k)
		t.Store64(dst.At(entryPtr), t.Load64(e.At(entryPtr)))
		t.CLFlush(dst.Base())
	}
	slot := n.entries.At(i + 1)
	t.Store64(slot.At(entryKey), key)
	t.Store64(slot.At(entryPtr), val)
	t.CLFlush(slot.Base())

	// Bug #3: non-atomic last_index update commits the insert.
	t.Store64(n.hdr.At(hdrLastIndex), uint64(cnt+1))
	t.Store64(n.hdr.At(hdrSwitchCounter), sc+2)
	t.CLFlush(n.hdr.At(hdrLastIndex))
	t.SFence()
}

// split moves the upper half of n into a fresh sibling and links it through
// sibling_ptr. It returns the separator key (the sibling's first key) and
// the sibling's address for the caller to install in the parent.
func (tr *Tree) split(t *pmm.Thread, n *node) (sepKey, sibAddr uint64) {
	level := t.Load64(n.hdr.At(hdrLevel))
	sib := tr.newNodeRuntime(t, level, NullPtr)
	half := Cardinality / 2

	// Move upper half into the sibling (construction-time: flushed before
	// publication below).
	for i := half; i < Cardinality; i++ {
		src, dst := n.entries.At(i), sib.entries.At(i-half)
		t.Store64(dst.At(entryKey), t.Load64(src.At(entryKey)))
		t.Store64(dst.At(entryPtr), t.Load64(src.At(entryPtr)))
		t.CLFlush(dst.Base())
	}
	t.Store64(sib.hdr.At(hdrLastIndex), uint64(Cardinality-half))
	sepKey = t.Load64(n.entries.At(half).At(entryKey))
	// Chain the old sibling link before publishing.
	t.Store64(sib.hdr.At(hdrSiblingPtr), t.Load64(n.hdr.At(hdrSiblingPtr)))
	t.FlushRange(sib.hdr.Base(), sib.hdr.Size())
	t.SFence()

	// Bug #8: publication — non-atomic sibling_ptr store in the OLD node,
	// mutated after the node was already reachable.
	t.Store64(n.hdr.At(hdrSiblingPtr), sib.base())
	t.CLFlush(n.hdr.At(hdrSiblingPtr))
	// Shrink the old node.
	t.Store64(n.hdr.At(hdrLastIndex), uint64(half))
	t.CLFlush(n.hdr.At(hdrLastIndex))
	t.SFence()
	return sepKey, sib.base()
}

// Search returns the value for key. It performs FAST_FAIR's linear_search:
// read switch_counter (shift detection), scan keys/ptrs, and consult
// sibling_ptr for keys that migrated right during a split.
func (tr *Tree) Search(t *pmm.Thread, key uint64) (uint64, bool) {
	rootAddr := t.Load64(tr.btree.At(btreeRoot))
	n := tr.node(rootAddr)
	if n == nil {
		return 0, false
	}
	for t.Load64(n.hdr.At(hdrLevel)) > 0 {
		n = tr.node(tr.childFor(t, n, key))
		if n == nil {
			return 0, false
		}
	}
	for n != nil {
		_ = t.Load64(n.hdr.At(hdrSwitchCounter)) // shift-in-flight check
		cnt := n.count(t)
		if cnt > Cardinality+1 {
			cnt = Cardinality + 1 // defensive clamp against torn counts
		}
		for i := 0; i < cnt; i++ {
			e := n.entries.At(i)
			if t.Load64(e.At(entryKey)) == key {
				return t.Load64(e.At(entryPtr)), true
			}
		}
		n = tr.node(t.Load64(n.hdr.At(hdrSiblingPtr))) // follow the split chain
	}
	return 0, false
}

// Delete removes key from its leaf by shifting entries left (FAIR shift).
func (tr *Tree) Delete(t *pmm.Thread, key uint64) bool {
	leaf := tr.node(t.Load64(tr.btree.At(btreeRoot)))
	for t.Load64(leaf.hdr.At(hdrLevel)) > 0 {
		leaf = tr.node(tr.childFor(t, leaf, key))
	}
	cnt := leaf.count(t)
	pos := -1
	for i := 0; i < cnt; i++ {
		if t.Load64(leaf.entries.At(i).At(entryKey)) == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	sc := t.Load64(leaf.hdr.At(hdrSwitchCounter))
	t.Store64(leaf.hdr.At(hdrSwitchCounter), sc+1)
	for i := pos; i < cnt-1; i++ {
		src, dst := leaf.entries.At(i+1), leaf.entries.At(i)
		t.Store64(dst.At(entryKey), t.Load64(src.At(entryKey)))
		t.Store64(dst.At(entryPtr), t.Load64(src.At(entryPtr)))
		t.CLFlush(dst.Base())
	}
	t.Store64(leaf.hdr.At(hdrLastIndex), uint64(cnt-1))
	t.Store64(leaf.hdr.At(hdrSwitchCounter), sc+2)
	t.CLFlush(leaf.hdr.At(hdrLastIndex))
	t.SFence()
	return true
}

// Stats captures what the post-crash recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key<<16 | 0xF }

// New returns the benchmark driver: insert numKeys keys in DESCENDING order
// (every insert shifts the existing entries — the FAST half of FAST_FAIR —
// and splits trigger along the way), delete one, and have recovery search
// every key.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "Fast_Fair",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(numKeys); k >= 1; k-- {
					tr.Insert(t, k, ValueFor(k))
				}
				if numKeys > 2 {
					tr.Delete(t, 2)
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tr.Search(t, k)
					if stats == nil {
						continue
					}
					switch {
					case !ok:
						stats.Missing++
					case v != ValueFor(k):
						stats.Wrong++
					default:
						stats.Found++
					}
				}
			},
		}
	}
}

// RangeScan returns the key/value pairs in [lo, hi] in key order by walking
// the leaf chain through sibling_ptr (the linearizable scans FAST_FAIR's
// B+-tree design exists for). Post-crash scans are race-observing too:
// they read last_index, switch_counter, entry keys/ptrs and sibling_ptr.
func (tr *Tree) RangeScan(t *pmm.Thread, lo, hi uint64) (keys, vals []uint64) {
	// Descend to the leaf covering lo.
	n := tr.node(t.Load64(tr.btree.At(btreeRoot)))
	if n == nil {
		return nil, nil
	}
	for t.Load64(n.hdr.At(hdrLevel)) > 0 {
		n = tr.node(tr.childFor(t, n, lo))
		if n == nil {
			return nil, nil
		}
	}
	for n != nil {
		_ = t.Load64(n.hdr.At(hdrSwitchCounter))
		cnt := n.count(t)
		if cnt > Cardinality+1 {
			cnt = Cardinality + 1
		}
		exceeded := false
		for i := 0; i < cnt; i++ {
			e := n.entries.At(i)
			k := t.Load64(e.At(entryKey))
			if k > hi {
				exceeded = true
				break
			}
			if k >= lo {
				keys = append(keys, k)
				vals = append(vals, t.Load64(e.At(entryPtr)))
			}
		}
		if exceeded {
			break
		}
		n = tr.node(t.Load64(n.hdr.At(hdrSiblingPtr)))
	}
	return keys, vals
}
