package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hilbert"
	"repro/internal/keys"
)

// node is a tree node. Leaves hold items; directory nodes hold children.
// A node's key always describes (at least) everything below it, and its
// agg is always the exact aggregate of the items below it once the tree is
// quiescent; during an insertion the path from the root to the inserter's
// current position already includes the new item (keys and aggregates are
// updated top-down under the node's write lock).
type node struct {
	mu  sync.RWMutex
	key *keys.Key
	agg Aggregate

	leaf     bool
	children []*node // directory nodes
	items    []Item  // leaves

	// Hilbert mode only: per-item indices (parallel to items, kept in
	// ascending order) and the max index of the subtree.
	hilberts []hilbert.Index
	maxH     hilbert.Index
}

// tree is the shared implementation of the PDC tree and Hilbert PDC tree.
type tree struct {
	cfg   Config
	curve *hilbert.Curve // non-nil in Hilbert mode
	count atomic.Uint64

	// anchor guards the root pointer: ops take anchor (writers: Lock,
	// readers: RLock), lock the root node, then release anchor. The root
	// pointer only changes under anchor.Lock.
	anchor sync.RWMutex
	root   *node

	scratch atomic.Pointer[splitScratch] // splitPos's reusable keys

	// leafSplit is t.leafSplitPos; tests substitute a reference scan.
	leafSplit func(items []Item) int
}

var _ Store = (*tree)(nil)

// newTree builds an empty tree store.
func newTree(cfg Config) (*tree, error) {
	t := &tree{cfg: cfg}
	t.leafSplit = t.leafSplitPos
	if cfg.Store == StoreHilbertPDC {
		c, err := curveFor(cfg.Schema)
		if err != nil {
			return nil, err
		}
		t.curve = c
	}
	t.root = t.newLeaf()
	return t, nil
}

func (t *tree) hilbertMode() bool { return t.curve != nil }

func (t *tree) newKey() *keys.Key {
	return keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
}

func (t *tree) newLeaf() *node {
	return &node{leaf: true, key: t.newKey(), agg: NewAggregate()}
}

func (t *tree) newDir() *node {
	return &node{key: t.newKey(), agg: NewAggregate()}
}

// full reports whether the node is at capacity (must be split before
// accepting more).
func (t *tree) full(n *node) bool {
	if n.leaf {
		return len(n.items) >= t.cfg.LeafCapacity
	}
	return len(n.children) >= t.cfg.DirCapacity
}

// hilbertOf computes the item's compact Hilbert index over ID-expanded
// coordinates into buf (Words() long), which the returned index then
// aliases. The expansion lives on the stack, so callers that carve buf
// out of one per-batch array pay no allocation per item.
func (t *tree) hilbertOf(coords, buf []uint64) hilbert.Index {
	var exp [64]uint64 // a curve has at most 64 dimensions
	for d, c := range coords {
		exp[d] = t.cfg.Schema.ExpandOrdinal(d, c)
	}
	// Coordinates were validated against the schema, so the expansion
	// fits the curve's bit widths.
	return t.curve.IndexInto(exp[:len(coords)], buf)
}

// hilbertsOf computes the Hilbert indices of a batch, backed by one
// array.
func (t *tree) hilbertsOf(items []Item) []hilbert.Index {
	w := t.curve.Words()
	words := make([]uint64, len(items)*w)
	idx := make([]hilbert.Index, len(items))
	for i := range items {
		idx[i] = t.hilbertOf(items[i].Coords, words[i*w:(i+1)*w:(i+1)*w])
	}
	return idx
}

// Config returns the store's configuration.
func (t *tree) Config() Config { return t.cfg }

// Count returns the number of items in the tree.
func (t *tree) Count() uint64 { return t.count.Load() }

// Key returns a snapshot of the root's bounding key.
func (t *tree) Key() *keys.Key {
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	k := r.key.Clone()
	r.mu.RUnlock()
	return k
}

// Insert adds one item, descending with lock coupling and splitting full
// nodes preemptively so at most two node locks are held at a time.
func (t *tree) Insert(it Item) error {
	if err := t.cfg.Schema.ValidatePoint(it.Coords); err != nil {
		return err
	}
	var h hilbert.Index
	if t.hilbertMode() {
		h = t.hilbertOf(it.Coords, make([]uint64, t.curve.Words()))
	}
	t.insert(it, h)
	return nil
}

// insert places one validated item whose Hilbert index (zero outside
// Hilbert mode) the caller already computed — the shared descent behind
// Insert and the sorted batches of bulkInsert.
func (t *tree) insert(it Item, h hilbert.Index) {
	// Admission: lock the root via the anchor, splitting a full root
	// first (the only place the tree grows in height).
	t.anchor.Lock()
	cur := t.root
	cur.mu.Lock()
	if t.full(cur) {
		left := cur
		right := t.splitNode(cur)
		newRoot := t.newDir()
		newRoot.children = []*node{left, right}
		newRoot.key.ExtendKey(left.key)
		newRoot.key.ExtendKey(right.key)
		newRoot.agg = left.agg
		newRoot.agg.Merge(right.agg)
		if t.hilbertMode() {
			newRoot.maxH = right.maxH
		}
		t.root = newRoot
		// cur is the old root, now the left child; swap the lock we hold
		// to the new root. No other goroutine can observe newRoot yet
		// because we still hold the anchor.
		newRoot.mu.Lock()
		cur.mu.Unlock()
		cur = newRoot
	}
	t.anchor.Unlock()

	// Descent: cur is write-locked and not full.
	for {
		cur.key.ExtendPoint(it.Coords)
		cur.agg.AddItem(it.Measure)
		if t.hilbertMode() && (cur.maxH.IsZero() || cur.maxH.Less(h)) {
			cur.maxH = h
		}
		if cur.leaf {
			t.leafInsert(cur, it, h)
			cur.mu.Unlock()
			break
		}
		idx := t.chooseChild(cur, it.Coords, h)
		child := cur.children[idx]
		child.mu.Lock()
		if t.full(child) {
			// splitNode mutates child into the left half and returns a
			// fresh right half; insert the right sibling after it.
			right := t.splitNode(child)
			cur.children = append(cur.children, nil)
			copy(cur.children[idx+2:], cur.children[idx+1:])
			cur.children[idx+1] = right
			// Re-route between the halves.
			target := child
			if t.betterHalf(child, right, it.Coords, h) {
				target = right
				right.mu.Lock()
				child.mu.Unlock()
			}
			cur.mu.Unlock()
			cur = target
			continue
		}
		cur.mu.Unlock()
		cur = child
	}
	t.count.Add(1)
}

// leafInsert places the item inside a non-full, write-locked leaf.
func (t *tree) leafInsert(n *node, it Item, h hilbert.Index) {
	if !t.hilbertMode() {
		n.items = append(n.items, it)
		return
	}
	// Keep leaf items sorted by Hilbert index (B+-tree style).
	pos := sort.Search(len(n.hilberts), func(i int) bool { return h.Less(n.hilberts[i]) })
	n.items = append(n.items, Item{})
	copy(n.items[pos+1:], n.items[pos:])
	n.items[pos] = it
	n.hilberts = append(n.hilberts, hilbert.Index{})
	copy(n.hilberts[pos+1:], n.hilberts[pos:])
	n.hilberts[pos] = h
}

// chooseChild picks the insertion subtree of a write-locked directory
// node. Hilbert mode follows the linear order (first child whose max
// Hilbert index is >= h); geometric mode picks the child whose extension
// by the point adds the least overlap with its siblings (§III-C), with
// enlargement and size as tie-breakers.
func (t *tree) chooseChild(n *node, coords []uint64, h hilbert.Index) int {
	if t.hilbertMode() {
		for i, c := range n.children {
			c.mu.RLock()
			last := !c.maxH.Less(h) // maxH >= h
			c.mu.RUnlock()
			if last {
				return i
			}
		}
		return len(n.children) - 1
	}

	// Geometric: score every child by the total sibling overlap its
	// extension would cause. Child keys are read under their own read
	// locks (a descending inserter may be mutating them).
	snaps := make([]*keys.Key, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		snaps[i] = c.key.Clone()
		c.mu.RUnlock()
	}
	best, bestOverlap, bestEnlarge, bestVol := -1, 0.0, 0.0, 0.0
	for i := range n.children {
		ext := snaps[i].Clone()
		ext.ExtendPoint(coords)
		overlap := 0.0
		for j := range n.children {
			if j != i {
				overlap += ext.OverlapVolume(snaps[j])
			}
		}
		enlarge := snaps[i].EnlargementPoint(coords)
		vol := snaps[i].Volume()
		if best == -1 || overlap < bestOverlap ||
			(overlap == bestOverlap && enlarge < bestEnlarge) ||
			(overlap == bestOverlap && enlarge == bestEnlarge && vol < bestVol) {
			best, bestOverlap, bestEnlarge, bestVol = i, overlap, enlarge, vol
		}
	}
	return best
}

// betterHalf reports whether the right half should receive the item after
// a preemptive split of a child.
func (t *tree) betterHalf(left, right *node, coords []uint64, h hilbert.Index) bool {
	if t.hilbertMode() {
		// Follow the linear order: go right iff h > left.maxH.
		return left.maxH.Less(h)
	}
	lo := left.key.EnlargementPoint(coords)
	ro := right.key.EnlargementPoint(coords)
	return ro < lo
}

// Query aggregates every item inside q.
func (t *tree) Query(q keys.Rect) Aggregate {
	agg, _ := t.QueryWithStats(q)
	return agg
}

// QueryWithStats aggregates every item inside q and reports traversal
// statistics.
func (t *tree) QueryWithStats(q keys.Rect) (Aggregate, QueryStats) {
	agg := NewAggregate()
	var st QueryStats
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	t.queryNode(r, q, &agg, &st)
	return agg, st
}

// queryNode aggregates the read-locked node n into agg and releases it.
// Children are read-locked before n is released (lock coupling), so a
// concurrent split cannot move items out from under the traversal.
func (t *tree) queryNode(n *node, q keys.Rect, agg *Aggregate, st *QueryStats) {
	st.NodesVisited++
	if n.key.Empty() || !n.key.OverlapsRect(q) {
		n.mu.RUnlock()
		return
	}
	if n.key.CoveredByRect(q) {
		st.CoveredNodes++
		agg.Merge(n.agg)
		n.mu.RUnlock()
		return
	}
	if n.leaf {
		st.LeavesScanned++
		st.ItemsScanned += len(n.items)
		for _, it := range n.items {
			if q.ContainsPoint(it.Coords) {
				agg.AddItem(it.Measure)
			}
		}
		n.mu.RUnlock()
		return
	}
	// Lock the relevant children before releasing n.
	rel := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		c.mu.RLock()
		rel = append(rel, c)
	}
	n.mu.RUnlock()
	for _, c := range rel {
		t.queryNode(c, q, agg, st)
	}
}

// Items streams the tree's items using the same read-coupled traversal as
// queries.
func (t *tree) Items(fn func(Item) bool) {
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	t.itemsNode(r, fn)
}

// itemsNode visits the read-locked node n and releases it. Returns false
// to stop the iteration.
func (t *tree) itemsNode(n *node, fn func(Item) bool) bool {
	if n.leaf {
		// Copy out so the callback runs without the lock held.
		batch := make([]Item, len(n.items))
		copy(batch, n.items)
		n.mu.RUnlock()
		for _, it := range batch {
			if !fn(it) {
				return false
			}
		}
		return true
	}
	children := make([]*node, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		children[i] = c
	}
	n.mu.RUnlock()
	stopped := false
	for _, c := range children {
		if stopped {
			// Still must release the locks we acquired.
			c.mu.RUnlock()
			continue
		}
		if !t.itemsNode(c, fn) {
			stopped = true
		}
	}
	return !stopped
}

// MemoryBytes estimates the tree's footprint: items plus directory
// overhead.
func (t *tree) MemoryBytes() uint64 {
	dims := uint64(t.cfg.Schema.NumDims())
	per := dims*8 + 24 + 8 // coords + slice header + measure
	if t.hilbertMode() {
		per += uint64(t.curve.Words())*8 + 24
	}
	n := t.count.Load()
	// Directory overhead: roughly one node per LeafCapacity items, times
	// a small fan-in factor for internal levels.
	nodes := n/uint64(t.cfg.LeafCapacity) + 1
	return n*per + nodes*(uint64(t.cfg.Schema.NumDims())*32+128)*3/2
}
