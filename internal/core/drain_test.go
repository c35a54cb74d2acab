package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tpcds"
)

// drainBatch is the size of the drain batches the benchmarks apply.
const drainBatch = 16

// drainStore builds the benchmark profile's shard store — a Hilbert PDC
// tree with MDS keys and default capacities — bulk-loaded with preload
// TPC-DS items. It returns fresh items from the same stream to drain in.
func drainStore(tb testing.TB, preload, fresh int) (core.Store, []core.Item, []core.Item) {
	tb.Helper()
	s := tpcds.Schema()
	gen := tpcds.NewGenerator(s, 1, 1.1)
	base := gen.Items(preload)
	st := loadStore(tb, base)
	return st, base, gen.Items(fresh)
}

func loadStore(tb testing.TB, items []core.Item) core.Store {
	tb.Helper()
	st, err := core.NewStore(core.Config{Schema: tpcds.Schema()})
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.BulkLoad(append([]core.Item(nil), items...)); err != nil {
		tb.Fatal(err)
	}
	return st
}

// maxDrainAllocsPerItem bounds the allocations of a sorted drain batch
// applied to a populated tree, amortized per item: the batch's index and
// permutation arrays, slice growth in the leaves it lands in, and the
// nodes and keys of the splits it causes. Building a key per item for
// every split scan costs several times this.
const maxDrainAllocsPerItem = 20

// TestDrainInsertAllocs guards the drain insert path (BulkLoad into a
// non-empty tree) against per-item allocation creeping back in.
func TestDrainInsertAllocs(t *testing.T) {
	st, _, fresh := drainStore(t, 12000, 12000)
	next := 0
	perBatch := testing.AllocsPerRun(len(fresh)/drainBatch-1, func() {
		if err := st.BulkLoad(fresh[next : next+drainBatch]); err != nil {
			t.Fatal(err)
		}
		next += drainBatch
	})
	if perItem := perBatch / drainBatch; perItem > maxDrainAllocsPerItem {
		t.Fatalf("drain insert allocates %.1f times per item, want <= %d", perItem, maxDrainAllocsPerItem)
	}
}

// BenchmarkTreeDrainInsert measures applying one item, in sorted
// 16-item drain batches, to a Hilbert PDC tree holding 12k-24k items.
func BenchmarkTreeDrainInsert(b *testing.B) {
	st, base, fresh := drainStore(b, 12000, 12000)
	b.ReportAllocs()
	b.ResetTimer()
	next := 0
	for i := 0; i < b.N; i += drainBatch {
		if next+drainBatch > len(fresh) {
			b.StopTimer()
			st, next = loadStore(b, base), 0
			b.StartTimer()
		}
		n := min(drainBatch, b.N-i)
		if err := st.BulkLoad(fresh[next : next+n]); err != nil {
			b.Fatal(err)
		}
		next += n
	}
}
