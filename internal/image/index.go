package image

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// Index is a server's local image (§III-C): a modified PDC tree whose
// leaves are shards. The leaf set is fixed by the global image — an
// insertion expands a leaf's bounding box but never splits it — and a
// separate map from shard ID to leaf supports the bottom-up expansion
// used during synchronization.
//
// Concurrency: routing operations use the same lock-coupling discipline
// as the shard trees (insert routing holds at most two node write locks;
// query routing read-locks a frontier). Structural operations (AddShard)
// and bottom-up expansions additionally serialize on structMu so that
// parent pointers never change under an upward walker; the upward walk
// itself holds only one node lock at a time, which — exactly as the paper
// notes — lets the enclosure invariant be violated transiently without
// ever hiding data from queries.
type Index struct {
	schema *hierarchy.Schema
	kind   keys.Kind
	mdsCap int
	dirCap int

	structMu sync.Mutex // serializes AddShard and ExpandLeaf

	anchor sync.RWMutex
	root   *inode

	leafMu sync.RWMutex
	leaves map[ShardID]*inode
}

type inode struct {
	mu       sync.RWMutex
	key      *keys.Key
	gen      uint64 // bumped under mu whenever key changes
	parent   *inode
	children []*inode

	leaf  bool
	shard ShardID
	count uint64

	sib siblings // directory nodes: chooseChild's cache, guarded by mu
}

// ErrNoShards is returned by RouteInsert on an empty index.
var ErrNoShards = errors.New("image: no shards in local image")

// NewIndex builds an empty local image. dirCap bounds directory fan-out
// (0 = 8).
func NewIndex(schema *hierarchy.Schema, kind keys.Kind, mdsCap, dirCap int) *Index {
	if dirCap < 3 {
		dirCap = 8
	}
	idx := &Index{
		schema: schema,
		kind:   kind,
		mdsCap: mdsCap,
		dirCap: dirCap,
		leaves: make(map[ShardID]*inode),
	}
	idx.root = idx.newDir()
	return idx
}

func (x *Index) newDir() *inode {
	return &inode{key: keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)}
}

// NumShards returns the number of leaves.
func (x *Index) NumShards() int {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	return len(x.leaves)
}

// Has reports whether the shard is present.
func (x *Index) Has(id ShardID) bool {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	_, ok := x.leaves[id]
	return ok
}

// Shards lists all shard IDs.
func (x *Index) Shards() []ShardID {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	out := make([]ShardID, 0, len(x.leaves))
	for id := range x.leaves {
		out = append(out, id)
	}
	return out
}

// LeafSnapshot returns a clone of the shard's current bounding key and
// its locally tracked count.
func (x *Index) LeafSnapshot(id ShardID) (*keys.Key, uint64, bool) {
	x.leafMu.RLock()
	n := x.leaves[id]
	x.leafMu.RUnlock()
	if n == nil {
		return nil, 0, false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.key.Clone(), n.count, true
}

// AddShard inserts a new leaf for the shard (empty key if k is nil).
// Directory nodes split preemptively on the way down, keeping all leaves
// at uniform depth.
func (x *Index) AddShard(id ShardID, k *keys.Key) error {
	x.leafMu.Lock()
	if _, dup := x.leaves[id]; dup {
		x.leafMu.Unlock()
		return fmt.Errorf("image: shard %d already present", id)
	}
	x.leafMu.Unlock()

	leaf := &inode{leaf: true, shard: id, key: keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)}
	if k != nil {
		leaf.key.ExtendKey(k)
	}

	x.structMu.Lock()
	defer x.structMu.Unlock()

	x.anchor.Lock()
	cur := x.root
	cur.mu.Lock()
	if len(cur.children) >= x.dirCap {
		right := x.splitDir(cur)
		newRoot := x.newDir()
		newRoot.children = []*inode{cur, right}
		cur.parent, right.parent = newRoot, newRoot
		newRoot.key.ExtendKey(cur.key)
		newRoot.key.ExtendKey(right.key)
		x.root = newRoot
		newRoot.mu.Lock()
		cur.mu.Unlock()
		cur = newRoot
	}
	x.anchor.Unlock()

	for {
		cur.key.ExtendKey(leaf.key)
		cur.gen++
		if len(cur.children) == 0 || cur.children[0].leaf {
			leaf.parent = cur
			cur.children = append(cur.children, leaf)
			cur.mu.Unlock()
			break
		}
		i := x.chooseChild(cur, leaf.key, nil)
		child := cur.children[i]
		child.mu.Lock()
		if len(child.children) >= x.dirCap {
			right := x.splitDir(child)
			right.parent = cur
			cur.children = append(cur.children, nil)
			copy(cur.children[i+2:], cur.children[i+1:])
			cur.children[i+1] = right
			// Route into the better half. child is write-locked by us and
			// right is not yet reachable by others (cur is write-locked),
			// so the keys are read directly.
			if keyEnlargement(right.key, leaf.key) < keyEnlargement(child.key, leaf.key) {
				right.mu.Lock()
				child.mu.Unlock()
				child = right
			}
		}
		cur.mu.Unlock()
		cur = child
	}

	x.leafMu.Lock()
	x.leaves[id] = leaf
	x.leafMu.Unlock()
	return nil
}

// splitDir splits a full, write-locked directory node in place and
// returns the new right sibling (unlocked, parent unset). Children are
// ordered along the widest dimension; parent pointers of moved children
// are fixed under their own locks.
func (x *Index) splitDir(n *inode) *inode {
	// Order children by midpoint along the widest dimension of n's key.
	d := 0
	bestSpan := -1.0
	for dim := 0; dim < x.schema.NumDims(); dim++ {
		if n.key.Empty() {
			break
		}
		b := n.key.Bounds(dim)
		span := float64(b.Len()) / float64(x.schema.Dim(dim).LeafCount())
		if span > bestSpan {
			d, bestSpan = dim, span
		}
	}
	mids := func(c *inode) uint64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		if c.key.Empty() {
			return 0
		}
		b := c.key.Bounds(d)
		return b.Lo + b.Hi
	}
	// Insertion sort (fan-outs are small).
	for i := 1; i < len(n.children); i++ {
		for j := i; j > 0 && mids(n.children[j]) < mids(n.children[j-1]); j-- {
			n.children[j], n.children[j-1] = n.children[j-1], n.children[j]
		}
	}
	mid := len(n.children) / 2
	right := x.newDir()
	right.children = append(right.children, n.children[mid:]...)
	n.children = n.children[:mid:mid]

	recompute := func(dir *inode) {
		dir.key = keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)
		dir.gen++
		for _, c := range dir.children {
			c.mu.Lock()
			c.parent = dir
			dir.key.ExtendKey(c.key)
			c.mu.Unlock()
		}
	}
	recompute(n)
	recompute(right)
	return right
}

// keyEnlargement measures how much extending base by k grows it. The
// caller must have exclusive or read access to base.
func keyEnlargement(base, k *keys.Key) float64 {
	if base.Empty() {
		return k.Volume()
	}
	ext := base.Clone()
	ext.ExtendKey(k)
	return ext.Volume() - base.Volume()
}

// chooseChild picks the subtree that minimizes the overlap its extension
// (by key k or point coords) would cause with its siblings — the paper's
// least-overlap rule ("the high global cost of overlap dominates the cost
// of performing overlap calculations in the index", §III-C). Ties go to
// the smaller enlargement, then to the first child. The caller holds n's
// write lock.
//
// The sums are taken over n.sib, whose pairwise table only changes when
// a child's key does: a child that already contains the point scores its
// cached row sum, and any other child recomputes only the dimensions its
// extension grew. Extending a key never shrinks its overlaps, so the row
// sum also bounds an extended child's score from below, and a child (or
// partial sum) that provably cannot replace the current best is skipped.
// Every sum and product that is taken runs in the same order as the
// direct OverlapVolume evaluation, so the choice is bit-identical to it.
func (x *Index) chooseChild(n *inode, k *keys.Key, coords []uint64) int {
	s := &n.sib
	s.refresh(n.children, x)
	nc, dims := len(n.children), x.schema.NumDims()
	best, bestOv, bestEnl := -1, 0.0, 0.0
	for i, snap := range s.snap {
		contained := coords != nil && snap.ContainsPoint(coords)
		if best != -1 && !contained && (s.row[i] > bestOv || (s.row[i] == bestOv && bestEnl == 0)) {
			continue
		}
		// vol-vol is 0, or NaN for an infinite volume, as in the direct
		// evaluation.
		ov, enl := s.row[i], s.vol[i]-s.vol[i]
		if !contained {
			s.ext.CopyFrom(snap)
			if coords != nil {
				s.ext.ExtendPoint(coords)
			} else {
				s.ext.ExtendKey(k)
			}
			grew := false
			for d := range s.grown {
				s.grown[d] = !slices.Equal(s.ext.Set(d), snap.Set(d))
				grew = grew || s.grown[d]
			}
			if grew {
				ov = 0
				for j := range s.snap {
					if j == i {
						continue
					}
					v := 1.0
					row := s.ix[(i*nc+j)*dims:]
					for d, g := range s.grown {
						l := row[d]
						if g {
							l = s.ext.DimIntersectLen(s.snap[j], d)
						}
						if l == 0 {
							v = 0
							break
						}
						v *= float64(l)
					}
					if ov += v; best != -1 && ov > bestOv {
						break // the rest of the sum can only grow
					}
				}
				enl = s.ext.Volume() - s.vol[i]
			}
		}
		if best == -1 || ov < bestOv || (ov == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, ov, enl
		}
	}
	return best
}

// siblings caches, for one directory node, copies of its children's keys
// and the sibling overlaps between them. A slot is valid while the child
// it was filled from is still in that position and its gen is unchanged;
// only stale slots are refilled. It is read and written only under the
// owning node's write lock.
type siblings struct {
	of   []*inode    // the child each slot was filled from
	gen  []uint64    // that child's gen when the slot was filled
	snap []*keys.Key // copies of the children's keys
	vol  []float64   // snap[i].Volume()
	row  []float64   // sum over j != i, ascending, of snap[i].OverlapVolume(snap[j])
	ix   []uint64    // ix[(i*n+j)*dims+d]: snap[i].DimIntersectLen(snap[j], d)

	stale []bool    // scratch: slots refilled by the current refresh
	ext   *keys.Key // scratch: a child's key extended by the routed point or key
	grown []bool    // scratch: per dimension, whether ext differs from the snapshot
}

// overlap multiplies per-dimension intersection lengths in dimension
// order, exactly as keys.OverlapVolume does. (chooseChild inlines the
// same product so that it only computes the lengths it multiplies.)
func overlap(lens []uint64) float64 {
	v := 1.0
	for _, l := range lens {
		if l == 0 {
			return 0
		}
		v *= float64(l)
	}
	return v
}

// refresh brings the cache up to date with children, whose keys it reads
// under their read locks.
func (s *siblings) refresh(children []*inode, x *Index) {
	n, dims := len(children), x.schema.NumDims()
	if len(s.of) != n {
		*s = siblings{
			of:    make([]*inode, n),
			gen:   make([]uint64, n),
			snap:  make([]*keys.Key, n),
			vol:   make([]float64, n),
			row:   make([]float64, n),
			ix:    make([]uint64, n*n*dims),
			stale: make([]bool, n),
			ext:   keys.NewEmpty(x.kind, dims, x.mdsCap),
			grown: make([]bool, dims),
		}
		for i := range s.snap {
			s.snap[i] = keys.NewEmpty(x.kind, dims, x.mdsCap)
		}
	}
	refilled := false
	for i, c := range children {
		c.mu.RLock()
		if s.of[i] != c || s.gen[i] != c.gen {
			s.snap[i].CopyFrom(c.key)
			s.of[i], s.gen[i] = c, c.gen
			s.stale[i], refilled = true, true
		}
		c.mu.RUnlock()
	}
	if !refilled {
		return
	}
	for i, stale := range s.stale {
		if !stale {
			continue
		}
		s.stale[i] = false
		s.vol[i] = s.snap[i].Volume()
		for j := range s.snap {
			for d := 0; d < dims; d++ {
				l := s.snap[i].DimIntersectLen(s.snap[j], d)
				s.ix[(i*n+j)*dims+d], s.ix[(j*n+i)*dims+d] = l, l
			}
		}
	}
	for i := range s.row {
		ov := 0.0
		for j := range s.snap {
			if j == i {
				continue
			}
			ov += overlap(s.ix[(i*n+j)*dims : (i*n+j+1)*dims])
		}
		s.row[i] = ov
	}
}

// RouteInsert picks the shard for a new item, expanding bounding boxes
// along the path (the local image is "changed by an insertion", §III-B).
// It reports whether the chosen leaf's box actually grew, which is what
// the server must eventually synchronize.
func (x *Index) RouteInsert(coords []uint64) (ShardID, bool, error) {
	x.anchor.RLock()
	cur := x.root
	cur.mu.Lock()
	x.anchor.RUnlock()
	if len(cur.children) == 0 {
		cur.mu.Unlock()
		return 0, false, ErrNoShards
	}
	for {
		grew := !cur.key.ContainsPoint(coords)
		if grew {
			cur.key.ExtendPoint(coords)
			cur.gen++
		}
		if cur.leaf {
			cur.count++
			id := cur.shard
			cur.mu.Unlock()
			return id, grew, nil
		}
		i := x.chooseChild(cur, nil, coords)
		child := cur.children[i]
		child.mu.Lock()
		cur.mu.Unlock()
		cur = child
	}
}

// RouteQuery returns the shards whose bounding boxes touch the query
// rectangle (§III-C search).
func (x *Index) RouteQuery(q keys.Rect) []ShardID {
	x.anchor.RLock()
	cur := x.root
	cur.mu.RLock()
	x.anchor.RUnlock()
	var out []ShardID
	x.routeQuery(cur, q, &out)
	return out
}

// routeQuery visits the read-locked node n and releases it.
func (x *Index) routeQuery(n *inode, q keys.Rect, out *[]ShardID) {
	if n.leaf {
		if n.key.OverlapsRect(q) {
			*out = append(*out, n.shard)
		}
		n.mu.RUnlock()
		return
	}
	children := make([]*inode, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		children[i] = c
	}
	n.mu.RUnlock()
	for _, c := range children {
		x.routeQuery(c, q, out)
	}
}

// ExpandLeaf applies a remote bounding-box expansion (and count) to the
// shard's leaf and propagates the expansion bottom-up toward the root,
// holding one node lock at a time (§III-C: the expansion "is propagated
// up the tree towards the root as necessary", transiently violating the
// enclosure invariant without hiding previously covered data).
func (x *Index) ExpandLeaf(id ShardID, k *keys.Key, count uint64) bool {
	x.leafMu.RLock()
	leaf := x.leaves[id]
	x.leafMu.RUnlock()
	if leaf == nil {
		return false
	}
	x.structMu.Lock()
	defer x.structMu.Unlock()

	leaf.mu.Lock()
	leaf.key.ExtendKey(k)
	leaf.gen++
	if count > leaf.count {
		leaf.count = count
	}
	p := leaf.parent
	leaf.mu.Unlock()
	for p != nil {
		p.mu.Lock()
		p.key.ExtendKey(k)
		p.gen++
		next := p.parent
		p.mu.Unlock()
		p = next
	}
	return true
}

// CheckInvariants verifies (on a quiescent index) that every leaf key is
// covered by the union of its ancestors' coverage for routing purposes:
// specifically that a query overlapping a leaf's key also overlaps every
// ancestor's key, which is the property RouteQuery relies on. It also
// checks the leaf map and uniform leaf depth.
func (x *Index) CheckInvariants() error {
	x.anchor.RLock()
	root := x.root
	x.anchor.RUnlock()
	leafDepth := -1
	seen := 0
	var walk func(n *inode, depth int, anc []*keys.Key) error
	walk = func(n *inode, depth int, anc []*keys.Key) error {
		n.mu.RLock()
		defer n.mu.RUnlock()
		if n.leaf {
			seen++
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("image: leaves at depths %d and %d", leafDepth, depth)
			}
			x.leafMu.RLock()
			mapped := x.leaves[n.shard]
			x.leafMu.RUnlock()
			if mapped != n {
				return fmt.Errorf("image: leaf map stale for shard %d", n.shard)
			}
			if !n.key.Empty() {
				for _, a := range anc {
					if !n.key.OverlapsKey(a) {
						return fmt.Errorf("image: ancestor key misses leaf %d", n.shard)
					}
				}
			}
			return nil
		}
		anc = append(anc, n.key)
		for _, c := range n.children {
			if err := walk(c, depth+1, anc); err != nil {
				return err
			}
			c.mu.RLock()
			if c.parent != n {
				c.mu.RUnlock()
				return fmt.Errorf("image: broken parent pointer")
			}
			c.mu.RUnlock()
		}
		return nil
	}
	if err := walk(root, 0, nil); err != nil {
		return err
	}
	if seen != x.NumShards() {
		return fmt.Errorf("image: walked %d leaves, map has %d", seen, x.NumShards())
	}
	return nil
}
