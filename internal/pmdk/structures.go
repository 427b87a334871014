package pmdk

import (
	"strconv"

	"yashme/internal/pmm"
)

// This file implements the five PMDK example data structures the paper's
// evaluation drives (§7.1): BTree, CTree, RBTree, Hashmap-atomic and
// Hashmap-TX. All persistent mutations of reachable state go through the
// undo-log transaction (tx.Set) or an atomic publication; freshly allocated
// nodes are initialized with plain stores and persisted BEFORE they are
// linked in, which keeps their fields persistency-safe (the link read pulls
// the construction flush into every consistent prefix). The only harmful
// race these structures expose is therefore the pool's ulog entry pointer —
// exactly the paper's Table 4 row and the per-structure "1" entries in
// Table 5.

// node resolves a persistent "pointer" (an address loaded from the heap)
// back to its struct handle through the heap's allocation table, playing
// the role of the fixed PM mapping. Recovery never relies on Go-side state
// the workers built: a scenario resumed from a checkpoint never ran them.
func (p *Pool) node(addr uint64) (pmm.Struct, bool) {
	return p.h.StructAt(pmm.Addr(addr))
}

// metaType is the {root} struct shared by the three trees' metadata.
var (
	metaType = pmm.Compile(pmm.Layout{{Name: "root", Size: 8}})
	metaRoot = metaType.Ref("root")
)

// --- BTree (order-4, tx-logged) ---

// BTreeOrder is the number of keys per node in the mini BTree.
const BTreeOrder = 4

var btreeNodeType = func() *pmm.Type {
	l := pmm.Layout{{Name: "n", Size: 8}, {Name: "leaf", Size: 8}}
	for i := 0; i < BTreeOrder; i++ {
		l = append(l,
			pmm.FieldDef{Name: "key" + strconv.Itoa(i), Size: 8},
			pmm.FieldDef{Name: "val" + strconv.Itoa(i), Size: 8})
	}
	for i := 0; i <= BTreeOrder; i++ {
		l = append(l, pmm.FieldDef{Name: "child" + strconv.Itoa(i), Size: 8})
	}
	return pmm.Compile(l)
}()

// Field refs of btree_node, with the key/value/child slots indexed.
var (
	btreeN    = btreeNodeType.Ref("n")
	btreeLeaf = btreeNodeType.Ref("leaf")
	bKey      [BTreeOrder]pmm.FieldRef
	bVal      [BTreeOrder]pmm.FieldRef
	bChild    [BTreeOrder + 1]pmm.FieldRef
)

func init() {
	for i := range bChild {
		if i < BTreeOrder {
			bKey[i] = btreeNodeType.Ref("key" + strconv.Itoa(i))
			bVal[i] = btreeNodeType.Ref("val" + strconv.Itoa(i))
		}
		bChild[i] = btreeNodeType.Ref("child" + strconv.Itoa(i))
	}
}

// BTree is the PMDK btree example: an order-4 B+-tree (values live in the
// leaves; interior keys are separators) where every reachable mutation is
// transaction-logged.
type BTree struct {
	pool *Pool
	meta pmm.Struct // "btree_meta" {root}
}

// NewBTree allocates the tree metadata and an empty leaf root during Setup.
func NewBTree(p *Pool) *BTree {
	bt := &BTree{pool: p, meta: p.h.AllocStruct("btree_meta", metaType)}
	root := p.h.AllocStruct("btree_node", btreeNodeType)
	p.h.Init(root.At(btreeLeaf), 8, 1)
	p.h.Init(bt.meta.At(metaRoot), 8, uint64(root.Base()))
	return bt
}

// newNode allocates and persists a fresh node (unreachable until linked).
func (bt *BTree) newNode(t *pmm.Thread, leaf bool) pmm.Struct {
	n := bt.pool.h.AllocStruct("btree_node", btreeNodeType)
	var lv uint64
	if leaf {
		lv = 1
	}
	t.Store64(n.At(btreeLeaf), lv)
	t.Store64(n.At(btreeN), 0)
	t.Persist(n.Base(), n.Size())
	return n
}

// Insert adds a key/value pair. Every full node on the way down is split
// before the descent enters it (a full root first grows the tree by one
// level), so the leaf the descent reaches always has room.
func (bt *BTree) Insert(t *pmm.Thread, key, val uint64) {
	rootAddr := t.Load64(bt.meta.At(metaRoot))
	x, _ := bt.pool.node(rootAddr)
	leaf := t.Load64(x.At(btreeLeaf)) == 1
	if int(t.Load64(x.At(btreeN))) >= BTreeOrder {
		x = bt.growRoot(t, x)
		leaf = false
	}
	for !leaf {
		pos, child := bt.routeChild(t, x, key)
		if int(t.Load64(child.At(btreeN))) >= BTreeOrder {
			bt.splitChild(t, x, child, pos)
			_, child = bt.routeChild(t, x, key)
		}
		x = child
		leaf = t.Load64(x.At(btreeLeaf)) == 1
	}
	bt.leafInsert(t, x, key, val)
}

func (bt *BTree) routeChild(t *pmm.Thread, root pmm.Struct, key uint64) (int, pmm.Struct) {
	n := int(t.Load64(root.At(btreeN)))
	idx := 0
	for ; idx < n; idx++ {
		if key <= t.Load64(root.At(bKey[idx])) {
			break
		}
	}
	childAddr := t.Load64(root.At(bChild[idx]))
	c, _ := bt.pool.node(childAddr)
	return idx, c
}

// growRoot links a fresh interior root above the full old root, then splits
// the old root as the new root's only child: the tree grows one level. The
// tree is consistent in between (a zero-key root routes every key to its
// one child).
func (bt *BTree) growRoot(t *pmm.Thread, old pmm.Struct) pmm.Struct {
	root := bt.newNode(t, false)
	t.Store64(root.At(bChild[0]), uint64(old.Base()))
	t.Persist(root.Base(), root.Size())
	tx := bt.pool.TxBegin(t)
	tx.Set(bt.meta.At(metaRoot), uint64(root.Base()))
	tx.Commit()
	bt.splitChild(t, root, old, 0)
	return root
}

// splitChild splits the full node at child position pos of the non-full
// interior node parent, moving its upper half into a fresh sibling and
// tx-logging the parent's shift. A leaf keeps its lower half and copies its
// largest key up as the separator; an interior node moves its middle key up
// and hands the children right of it to the sibling.
func (bt *BTree) splitChild(t *pmm.Thread, parent, child pmm.Struct, pos int) {
	half := BTreeOrder / 2
	leaf := t.Load64(child.At(btreeLeaf)) == 1
	sib := bt.newNode(t, leaf)
	for i := half; i < BTreeOrder; i++ {
		t.Store64(sib.At(bKey[i-half]), t.Load64(child.At(bKey[i])))
		if leaf {
			t.Store64(sib.At(bVal[i-half]), t.Load64(child.At(bVal[i])))
		}
	}
	keep := half
	if !leaf {
		for i := half; i <= BTreeOrder; i++ {
			t.Store64(sib.At(bChild[i-half]), t.Load64(child.At(bChild[i])))
		}
		keep = half - 1
	}
	t.Store64(sib.At(btreeN), uint64(BTreeOrder-half))
	t.Persist(sib.Base(), sib.Size())
	sep := t.Load64(child.At(bKey[half-1]))

	tx := bt.pool.TxBegin(t)
	n := int(t.Load64(parent.At(btreeN)))
	// Shift parent keys/children right of pos up by one.
	for i := n - 1; i >= pos; i-- {
		tx.Set(parent.At(bKey[i+1]), t.Load64(parent.At(bKey[i])))
		tx.Set(parent.At(bChild[i+2]), t.Load64(parent.At(bChild[i+1])))
	}
	tx.Set(parent.At(bKey[pos]), sep)
	tx.Set(parent.At(bChild[pos+1]), uint64(sib.Base()))
	tx.Set(parent.At(btreeN), uint64(n+1))
	tx.Set(child.At(btreeN), uint64(keep))
	tx.Commit()
}

// leafInsert shifts larger keys right and installs the pair, all tx-logged.
func (bt *BTree) leafInsert(t *pmm.Thread, leaf pmm.Struct, key, val uint64) {
	tx := bt.pool.TxBegin(t)
	n := int(t.Load64(leaf.At(btreeN)))
	i := n - 1
	for ; i >= 0; i-- {
		k := t.Load64(leaf.At(bKey[i]))
		if k <= key {
			break
		}
		tx.Set(leaf.At(bKey[i+1]), k)
		tx.Set(leaf.At(bVal[i+1]), t.Load64(leaf.At(bVal[i])))
	}
	tx.Set(leaf.At(bKey[i+1]), key)
	tx.Set(leaf.At(bVal[i+1]), val)
	tx.Set(leaf.At(btreeN), uint64(n+1))
	tx.Commit()
}

// Get looks a key up.
func (bt *BTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	rootAddr := t.Load64(bt.meta.At(metaRoot))
	n, ok := bt.pool.node(rootAddr)
	if !ok {
		return 0, false
	}
	for t.Load64(n.At(btreeLeaf)) == 0 {
		_, n = bt.routeChild(t, n, key)
	}
	cnt := int(t.Load64(n.At(btreeN)))
	if cnt > BTreeOrder {
		cnt = BTreeOrder
	}
	for i := 0; i < cnt; i++ {
		if t.Load64(n.At(bKey[i])) == key {
			return t.Load64(n.At(bVal[i])), true
		}
	}
	return 0, false
}

// --- CTree (crit-bit-style binary tree, tx-logged) ---

var (
	ctreeNodeType = pmm.Compile(pmm.Layout{
		{Name: "key", Size: 8}, {Name: "value", Size: 8},
		{Name: "left", Size: 8}, {Name: "right", Size: 8},
	})
	ctreeKey   = ctreeNodeType.Ref("key")
	ctreeValue = ctreeNodeType.Ref("value")
	ctreeLeft  = ctreeNodeType.Ref("left")
	ctreeRight = ctreeNodeType.Ref("right")
)

// CTree is the PMDK ctree example: a binary tree keyed by comparison, with
// tx-logged link updates.
type CTree struct {
	pool *Pool
	meta pmm.Struct // "ctree_meta" {root}
}

// NewCTree allocates the tree metadata during Setup.
func NewCTree(p *Pool) *CTree {
	return &CTree{pool: p, meta: p.h.AllocStruct("ctree_meta", metaType)}
}

func (ct *CTree) newNode(t *pmm.Thread, key, val uint64) uint64 {
	n := ct.pool.h.AllocStruct("ctree_node", ctreeNodeType)
	t.Store64(n.At(ctreeKey), key)
	t.Store64(n.At(ctreeValue), val)
	t.Persist(n.Base(), n.Size())
	return uint64(n.Base())
}

// Insert adds or updates a key.
func (ct *CTree) Insert(t *pmm.Thread, key, val uint64) {
	cur := t.Load64(ct.meta.At(metaRoot))
	if cur == 0 {
		addr := ct.newNode(t, key, val)
		tx := ct.pool.TxBegin(t)
		tx.Set(ct.meta.At(metaRoot), addr)
		tx.Commit()
		return
	}
	for {
		n, _ := ct.pool.node(cur)
		k := t.Load64(n.At(ctreeKey))
		if k == key {
			tx := ct.pool.TxBegin(t)
			tx.Set(n.At(ctreeValue), val)
			tx.Commit()
			return
		}
		side := ctreeLeft
		if key > k {
			side = ctreeRight
		}
		next := t.Load64(n.At(side))
		if next == 0 {
			addr := ct.newNode(t, key, val)
			tx := ct.pool.TxBegin(t)
			tx.Set(n.At(side), addr)
			tx.Commit()
			return
		}
		cur = next
	}
}

// Get looks a key up.
func (ct *CTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	cur := t.Load64(ct.meta.At(metaRoot))
	for cur != 0 {
		n, ok := ct.pool.node(cur)
		if !ok {
			return 0, false
		}
		k := t.Load64(n.At(ctreeKey))
		if k == key {
			return t.Load64(n.At(ctreeValue)), true
		}
		if key < k {
			cur = t.Load64(n.At(ctreeLeft))
		} else {
			cur = t.Load64(n.At(ctreeRight))
		}
	}
	return 0, false
}

// --- RBTree (red-black-flavoured BST, tx-logged) ---

const (
	colorRed   = 0
	colorBlack = 1
)

var (
	rbNodeType = pmm.Compile(pmm.Layout{
		{Name: "key", Size: 8}, {Name: "value", Size: 8},
		{Name: "left", Size: 8}, {Name: "right", Size: 8},
		{Name: "parent", Size: 8}, {Name: "color", Size: 8},
	})
	rbKey    = rbNodeType.Ref("key")
	rbValue  = rbNodeType.Ref("value")
	rbLeft   = rbNodeType.Ref("left")
	rbRight  = rbNodeType.Ref("right")
	rbParent = rbNodeType.Ref("parent")
	rbColor  = rbNodeType.Ref("color")
)

// RBTree is the PMDK rbtree example, reproduced as a BST with tx-logged
// color maintenance (full rotation rebalancing is omitted; the persistence
// protocol — which is what races — is the same).
type RBTree struct {
	pool *Pool
	meta pmm.Struct // "rbtree_meta" {root}
}

// NewRBTree allocates the tree metadata during Setup.
func NewRBTree(p *Pool) *RBTree {
	return &RBTree{pool: p, meta: p.h.AllocStruct("rbtree_meta", metaType)}
}

func (rb *RBTree) newNode(t *pmm.Thread, key, val, parent uint64) uint64 {
	n := rb.pool.h.AllocStruct("rbtree_node", rbNodeType)
	t.Store64(n.At(rbKey), key)
	t.Store64(n.At(rbValue), val)
	t.Store64(n.At(rbParent), parent)
	t.Store64(n.At(rbColor), colorRed)
	t.Persist(n.Base(), n.Size())
	return uint64(n.Base())
}

// Insert adds or updates a key, then recolors the insertion path.
func (rb *RBTree) Insert(t *pmm.Thread, key, val uint64) {
	cur := t.Load64(rb.meta.At(metaRoot))
	if cur == 0 {
		addr := rb.newNode(t, key, val, 0)
		tx := rb.pool.TxBegin(t)
		tx.Set(rb.meta.At(metaRoot), addr)
		n, _ := rb.pool.node(addr)
		tx.Set(n.At(rbColor), colorBlack) // root is black
		tx.Commit()
		return
	}
	for {
		n, _ := rb.pool.node(cur)
		k := t.Load64(n.At(rbKey))
		if k == key {
			tx := rb.pool.TxBegin(t)
			tx.Set(n.At(rbValue), val)
			tx.Commit()
			return
		}
		side := rbLeft
		if key > k {
			side = rbRight
		}
		next := t.Load64(n.At(side))
		if next == 0 {
			addr := rb.newNode(t, key, val, cur)
			tx := rb.pool.TxBegin(t)
			tx.Set(n.At(side), addr)
			// Recolor: if the parent was red, blacken it (flattened
			// fix-up; the logged multi-word update is what matters).
			if t.Load64(n.At(rbColor)) == colorRed {
				tx.Set(n.At(rbColor), colorBlack)
			}
			tx.Commit()
			return
		}
		cur = next
	}
}

// Get looks a key up.
func (rb *RBTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	cur := t.Load64(rb.meta.At(metaRoot))
	for cur != 0 {
		n, ok := rb.pool.node(cur)
		if !ok {
			return 0, false
		}
		k := t.Load64(n.At(rbKey))
		if k == key {
			return t.Load64(n.At(rbValue)), true
		}
		if key < k {
			cur = t.Load64(n.At(rbLeft))
		} else {
			cur = t.Load64(n.At(rbRight))
		}
	}
	return 0, false
}

// --- Hashmap-TX (chained buckets, tx-logged) ---

// HashBuckets is the bucket count of both hashmap variants.
const HashBuckets = 8

var (
	hashEntryType  = pmm.Compile(pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}, {Name: "next", Size: 8}})
	hashEntryKey   = hashEntryType.Ref("key")
	hashEntryValue = hashEntryType.Ref("value")
	hashEntryNext  = hashEntryType.Ref("next")

	// hashBucketType is the {head} bucket of both hashmap variants.
	hashBucketType = pmm.Compile(pmm.Layout{{Name: "head", Size: 8}})
	hashBucketHead = hashBucketType.Ref("head")
)

// HashmapTX is the PMDK hashmap_tx example: chained buckets where the
// bucket-head publication is tx-logged.
type HashmapTX struct {
	pool    *Pool
	buckets pmm.Array // "hashmap_tx_bucket" {head}
}

// NewHashmapTX allocates the bucket array during Setup.
func NewHashmapTX(p *Pool) *HashmapTX {
	return &HashmapTX{
		pool:    p,
		buckets: p.h.AllocArray("hashmap_tx_bucket", hashBucketType, HashBuckets),
	}
}

func hashBucket(key uint64) int { return int((key * 0x9E3779B97F4A7C15) % HashBuckets) }

// Put inserts or updates a key.
func (hm *HashmapTX) Put(t *pmm.Thread, key, val uint64) {
	b := hm.buckets.At(hashBucket(key))
	cur := t.Load64(b.At(hashBucketHead))
	for addr := cur; addr != 0; {
		n, _ := hm.pool.node(addr)
		if t.Load64(n.At(hashEntryKey)) == key {
			tx := hm.pool.TxBegin(t)
			tx.Set(n.At(hashEntryValue), val)
			tx.Commit()
			return
		}
		addr = t.Load64(n.At(hashEntryNext))
	}
	n := hm.pool.h.AllocStruct("hashmap_tx_entry", hashEntryType)
	t.Store64(n.At(hashEntryKey), key)
	t.Store64(n.At(hashEntryValue), val)
	t.Store64(n.At(hashEntryNext), cur)
	t.Persist(n.Base(), n.Size())
	addr := uint64(n.Base())
	tx := hm.pool.TxBegin(t)
	tx.Set(b.At(hashBucketHead), addr)
	tx.Commit()
}

// Get looks a key up.
func (hm *HashmapTX) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	b := hm.buckets.At(hashBucket(key))
	for addr := t.Load64(b.At(hashBucketHead)); addr != 0; {
		n, ok := hm.pool.node(addr)
		if !ok {
			return 0, false
		}
		if t.Load64(n.At(hashEntryKey)) == key {
			return t.Load64(n.At(hashEntryValue)), true
		}
		addr = t.Load64(n.At(hashEntryNext))
	}
	return 0, false
}

// --- Hashmap-atomic (atomic publication + logged element count) ---

var (
	hashCountType = pmm.Compile(pmm.Layout{{Name: "count", Size: 8}})
	hashCount     = hashCountType.Ref("count")
)

// HashmapAtomic is the PMDK hashmap_atomic example: entries are persisted
// and then published with a single atomic release store; the persistent
// element counter, however, goes through the pool's internal log — which is
// how this "atomic" structure still exposes the ulog race (Table 5's
// hashmap-atomic row).
type HashmapAtomic struct {
	pool    *Pool
	buckets pmm.Array  // "hashmap_atomic_bucket" {head}
	count   pmm.Struct // "hashmap_atomic_meta" {count}
}

// NewHashmapAtomic allocates the bucket array and counter during Setup.
func NewHashmapAtomic(p *Pool) *HashmapAtomic {
	return &HashmapAtomic{
		pool:    p,
		buckets: p.h.AllocArray("hashmap_atomic_bucket", hashBucketType, HashBuckets),
		count:   p.h.AllocStruct("hashmap_atomic_meta", hashCountType),
	}
}

// Put inserts or updates a key.
func (hm *HashmapAtomic) Put(t *pmm.Thread, key, val uint64) {
	b := hm.buckets.At(hashBucket(key))
	cur := t.LoadAcquire64(b.At(hashBucketHead))
	for addr := cur; addr != 0; {
		n, _ := hm.pool.node(addr)
		if t.Load64(n.At(hashEntryKey)) == key {
			t.StoreRelease64(n.At(hashEntryValue), val)
			t.Persist(n.At(hashEntryValue), 8)
			return
		}
		addr = t.Load64(n.At(hashEntryNext))
	}
	n := hm.pool.h.AllocStruct("hashmap_atomic_entry", hashEntryType)
	t.Store64(n.At(hashEntryKey), key)
	t.Store64(n.At(hashEntryValue), val)
	t.Store64(n.At(hashEntryNext), cur)
	t.Persist(n.Base(), n.Size())
	addr := uint64(n.Base())
	// Atomic publication: release store + persist.
	t.StoreRelease64(b.At(hashBucketHead), addr)
	t.Persist(b.At(hashBucketHead), 8)
	// The element counter update uses the pool's internal log.
	tx := hm.pool.TxBegin(t)
	tx.Set(hm.count.At(hashCount), t.Load64(hm.count.At(hashCount))+1)
	tx.Commit()
}

// Get looks a key up (acquire-loading the published head).
func (hm *HashmapAtomic) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	b := hm.buckets.At(hashBucket(key))
	for addr := t.LoadAcquire64(b.At(hashBucketHead)); addr != 0; {
		n, ok := hm.pool.node(addr)
		if !ok {
			return 0, false
		}
		if t.Load64(n.At(hashEntryKey)) == key {
			return t.Load64(n.At(hashEntryValue)), true
		}
		addr = t.Load64(n.At(hashEntryNext))
	}
	return 0, false
}

// Count reads the logged element counter.
func (hm *HashmapAtomic) Count(t *pmm.Thread) uint64 { return t.Load64(hm.count.At(hashCount)) }
