package image

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// naiveChooseChild is the reference least-overlap rule: clone every
// child key, extend each clone in turn and sum its overlap with every
// sibling. chooseChild must pick the same child on the same keys.
func naiveChooseChild(n *inode, k *keys.Key, coords []uint64) int {
	snaps := make([]*keys.Key, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		snaps[i] = c.key.Clone()
		c.mu.RUnlock()
	}
	best, bestOv, bestEnl := -1, 0.0, 0.0
	for i := range n.children {
		ext := snaps[i].Clone()
		if coords != nil {
			ext.ExtendPoint(coords)
		} else {
			ext.ExtendKey(k)
		}
		ov := 0.0
		for j := range snaps {
			if j != i {
				ov += ext.OverlapVolume(snaps[j])
			}
		}
		enl := ext.Volume() - snaps[i].Volume()
		if best == -1 || ov < bestOv || (ov == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, ov, enl
		}
	}
	return best
}

// oracleRoute returns the shard the reference rule sends coords to. It
// only reads: RouteInsert extends a node's own key before choosing among
// its children, which never changes the choice at that node.
func oracleRoute(x *Index, coords []uint64) ShardID {
	x.anchor.RLock()
	cur := x.root
	x.anchor.RUnlock()
	for !cur.leaf {
		cur.mu.Lock()
		next := cur.children[naiveChooseChild(cur, nil, coords)]
		cur.mu.Unlock()
		cur = next
	}
	return cur.shard
}

// checkKeyRouting compares chooseChild with the reference for routing key
// k (the AddShard descent) at every directory node of the index.
func checkKeyRouting(t *testing.T, x *Index, k *keys.Key) {
	t.Helper()
	x.anchor.RLock()
	root := x.root
	x.anchor.RUnlock()
	var walk func(n *inode)
	walk = func(n *inode) {
		if n.leaf || len(n.children) == 0 {
			return
		}
		n.mu.Lock()
		got, want := x.chooseChild(n, k, nil), naiveChooseChild(n, k, nil)
		children := append([]*inode(nil), n.children...)
		n.mu.Unlock()
		if got != want {
			t.Fatalf("key routing of %v: chooseChild = %d, reference = %d", k, got, want)
		}
		for _, c := range children {
			walk(c)
		}
	}
	walk(root)
}

// randPoint draws a skewed point, so shard keys overlap unevenly.
func randPoint(rng *rand.Rand, s *hierarchy.Schema) []uint64 {
	coords := make([]uint64, s.NumDims())
	for d := range coords {
		f := rng.Float64()
		coords[d] = uint64(f * f * float64(s.Dim(d).LeafCount()))
	}
	return coords
}

// TestRouteMatchesNaive drives seeded random interleavings of AddShard
// (nil, empty and populated keys, enough shards for several root splits),
// ExpandLeaf and RouteInsert, and checks every routed item lands where the
// reference least-overlap rule sends it and every AddShard descent
// chooses as the reference does.
func TestRouteMatchesNaive(t *testing.T) {
	// "wide" has key volumes that overflow float64, so enlargements
	// come out as Inf-Inf = NaN and the tie-break order is exercised too.
	schemas := map[string]*hierarchy.Schema{
		"small": testSchema(t),
		"tpcds": tpcds.Schema(),
		"wide":  tpcds.SyntheticSchema(64, 2, 400),
	}
	for _, kind := range []keys.Kind{keys.MDS, keys.MBR} {
		for name, s := range schemas {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, name, seed), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed))
					x := NewIndex(s, kind, 3, 3+int(seed))
					dims := s.NumDims()
					var shards []ShardID
					routed := 0
					ops := 4000
					if dims > 8 {
						ops = 1000
					}
					for op := 0; op < ops; op++ {
						switch r := rng.Intn(100); {
						case r < 3 || len(shards) == 0:
							var k *keys.Key
							switch rng.Intn(3) {
							case 1:
								k = keys.NewEmpty(kind, dims, 3)
							case 2:
								k = keys.NewPoint(kind, 3, randPoint(rng, s))
								k.ExtendPoint(randPoint(rng, s))
							}
							leafKey := keys.NewEmpty(kind, dims, 3)
							if k != nil {
								leafKey.ExtendKey(k)
							}
							checkKeyRouting(t, x, leafKey)
							id := ShardID(len(shards))
							if err := x.AddShard(id, k); err != nil {
								t.Fatal(err)
							}
							shards = append(shards, id)
						case r < 8:
							k := keys.NewPoint(kind, 3, randPoint(rng, s))
							x.ExpandLeaf(shards[rng.Intn(len(shards))], k, uint64(op))
						default:
							coords := randPoint(rng, s)
							want := oracleRoute(x, coords)
							got, _, err := x.RouteInsert(coords)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("op %d: %v routed to shard %d, reference %d", op, coords, got, want)
							}
							routed++
						}
					}
					if err := x.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if routed < ops*3/4 || len(shards) < 2*x.dirCap {
						t.Fatalf("weak interleaving: %d routed, %d shards", routed, len(shards))
					}
				})
			}
		}
	}
}

// benchIndex builds the benchmark profile's local image: 8 shards,
// directory capacity 8, MDS keys capped at 4 intervals, warmed by routing
// the first warm items of a TPC-DS stream. It returns the next fresh
// items of the stream.
func benchIndex(tb testing.TB, warm, fresh int) (*Index, [][]uint64) {
	tb.Helper()
	s := tpcds.Schema()
	x := NewIndex(s, keys.MDS, 4, 8)
	for i := 0; i < 8; i++ {
		if err := x.AddShard(ShardID(i), nil); err != nil {
			tb.Fatal(err)
		}
	}
	gen := tpcds.NewGenerator(s, 1, 1.1)
	for _, it := range gen.Items(warm) {
		if _, _, err := x.RouteInsert(it.Coords); err != nil {
			tb.Fatal(err)
		}
	}
	pts := make([][]uint64, fresh)
	for i, it := range gen.Items(fresh) {
		pts[i] = it.Coords
	}
	return x, pts
}

// TestRouteInsertAllocs guards the warm routing path against per-item
// allocation.
func TestRouteInsertAllocs(t *testing.T) {
	x, pts := benchIndex(t, 20000, 2000)
	i := 0
	allocs := testing.AllocsPerRun(len(pts)-1, func() {
		if _, _, err := x.RouteInsert(pts[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm RouteInsert allocates %.1f times per item, want 0", allocs)
	}
}

// BenchmarkIndexRouteInsert measures routing one item through a warm
// local image at the benchmark profile.
func BenchmarkIndexRouteInsert(b *testing.B) {
	x, pts := benchIndex(b, 20000, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := x.RouteInsert(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}
