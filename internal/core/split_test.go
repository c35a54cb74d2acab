package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hilbert"
	"repro/internal/keys"
)

// naiveSplitPos is the reference split-position scan: it clones a fresh
// suffix key per position and extends by one key per element. splitPos
// must pick the same position.
func naiveSplitPos(t *tree, elem []*keys.Key) int {
	n := len(elem)
	if n < 2 {
		return 1
	}
	if t.cfg.SplitPolicy == SplitMedian {
		return n / 2
	}
	suffix := make([]*keys.Key, n+1)
	suffix[n] = keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Clone()
		suffix[i].ExtendKey(elem[i])
	}
	prefix := keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
	best, bestOv, bestBal := 1, math.Inf(1), n
	for i := 1; i < n; i++ {
		prefix.ExtendKey(elem[i-1])
		ov := prefix.OverlapVolume(suffix[i])
		bal := i - n/2
		if bal < 0 {
			bal = -bal
		}
		if ov < bestOv || (ov == bestOv && bal < bestBal) {
			best, bestOv, bestBal = i, ov, bal
		}
	}
	return best
}

// naiveLeafSplitPos is the reference leaf scan: one point key per item.
func naiveLeafSplitPos(t *tree, items []Item) int {
	elem := make([]*keys.Key, len(items))
	for i, it := range items {
		elem[i] = keys.NewPoint(t.cfg.Keys, t.cfg.MDSCap, it.Coords)
	}
	return naiveSplitPos(t, elem)
}

// treeConfigs are the four tree variants with small nodes, so that a few
// thousand items already split leaves and directories many times.
func treeConfigs(tb testing.TB) map[string]Config {
	out := make(map[string]Config)
	for name, cfg := range allConfigs(tb) {
		if cfg.Store != StoreArray {
			out[name] = cfg
		}
	}
	return out
}

func newTestTree(tb testing.TB, cfg Config) *tree {
	tb.Helper()
	st, err := NewStore(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return st.(*tree)
}

// TestSplitPosMatchesNaive compares the split scans with the reference on
// random leaves (in Hilbert or widest-dimension order, as splitLeaf
// presents them) and on the children of real directory nodes.
func TestSplitPosMatchesNaive(t *testing.T) {
	for name, cfg := range treeConfigs(t) {
		t.Run(name, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 300; trial++ {
				items := make([]Item, 2+rng.Intn(2*tr.cfg.LeafCapacity))
				for i := range items {
					items[i] = randItem(rng, tr.cfg.Schema)
				}
				if tr.hilbertMode() {
					h := tr.hilbertsOf(items)
					sort.Sort(byHilbert{items, h})
				} else {
					d := rng.Intn(tr.cfg.Schema.NumDims())
					sort.SliceStable(items, func(i, j int) bool { return items[i].Coords[d] < items[j].Coords[d] })
				}
				if got, want := tr.leafSplitPos(items), naiveLeafSplitPos(tr, items); got != want {
					t.Fatalf("trial %d: leaf split at %d, reference %d", trial, got, want)
				}
			}
			for i := 0; i < 3000; i++ {
				if err := tr.Insert(randItem(rng, tr.cfg.Schema)); err != nil {
					t.Fatal(err)
				}
			}
			dirs := 0
			var walk func(n *node)
			walk = func(n *node) {
				if n.leaf {
					return
				}
				snaps := tr.snapshotChildren(n)
				elem := make([]*keys.Key, len(snaps))
				for i, s := range snaps {
					elem[i] = s.key
				}
				got := tr.splitPos(len(snaps), func(k *keys.Key, i int) { k.ExtendKey(snaps[i].key) })
				if want := naiveSplitPos(tr, elem); got != want {
					t.Fatalf("directory split at %d, reference %d", got, want)
				}
				dirs++
				for _, c := range n.children {
					walk(c)
				}
			}
			walk(tr.root)
			if dirs < 3 {
				t.Fatalf("only %d directory nodes checked", dirs)
			}
		})
	}
}

// byHilbert sorts items by their Hilbert indices.
type byHilbert struct {
	items []Item
	h     []hilbert.Index
}

func (b byHilbert) Len() int           { return len(b.items) }
func (b byHilbert) Less(i, j int) bool { return b.h[i].Less(b.h[j]) }
func (b byHilbert) Swap(i, j int) {
	b.items[i], b.items[j] = b.items[j], b.items[i]
	b.h[i], b.h[j] = b.h[j], b.h[i]
}

// TestDrainMatchesNaiveSplits builds every tree variant twice from the
// same preload plus (for the Hilbert PDC trees) 30k items applied in sorted drain batches — once with
// the leaf split scan and once with the reference scan — and requires
// identical item order and identical query results and traversal stats,
// i.e. the same tree shape.
func TestDrainMatchesNaiveSplits(t *testing.T) {
	for name, cfg := range treeConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11))
			// The geometric PDC insert is far slower than the Hilbert one;
			// fewer items still split every level many times.
			n := 32000
			if cfg.Store == StorePDC {
				n = 8000
			}
			items := make([]Item, n)
			for i := range items {
				items[i] = randItem(rng, cfg.Schema)
			}
			build := func(reference bool) *tree {
				tr := newTestTree(t, cfg)
				if reference {
					tr.leafSplit = func(items []Item) int { return naiveLeafSplitPos(tr, items) }
				}
				if err := tr.BulkLoad(append([]Item(nil), items[:2000]...)); err != nil {
					t.Fatal(err)
				}
				for off := 2000; off < len(items); off += 64 {
					if err := tr.BulkLoad(append([]Item(nil), items[off:min(off+64, len(items))]...)); err != nil {
						t.Fatal(err)
					}
				}
				return tr
			}
			got, want := build(false), build(true)

			if err := CheckInvariants(got); err != nil {
				t.Fatal(err)
			}
			if gs, ws := Stats(got), Stats(want); gs != ws {
				t.Fatalf("tree stats %+v, reference %+v", gs, ws)
			}
			collect := func(tr *tree) []Item {
				var out []Item
				tr.Items(func(it Item) bool { out = append(out, it); return true })
				return out
			}
			if !reflect.DeepEqual(collect(got), collect(want)) {
				t.Fatal("item order differs from the reference-built tree")
			}
			qrng := rand.New(rand.NewSource(12))
			for i := 0; i < 300; i++ {
				q := randRect(qrng, cfg.Schema)
				ga, gs := got.QueryWithStats(q)
				wa, ws := want.QueryWithStats(q)
				if ga != wa || gs != ws {
					t.Fatalf("query %v: %v %+v, reference %v %+v", q, ga, gs, wa, ws)
				}
			}
		})
	}
}
