package main

import (
	"fmt"
	"math"
	"math/rand"

	volap "repro"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// Query kinds of the dashboard mix, one third each.
const (
	kindRange   = iota // leader range aggregate
	kindReplica        // the same range aggregates under ReadPreferReplica
	kindGroupBy        // full-space group-by, answered from rollups
	numKinds
)

var kindNames = [numKinds]string{"range", "replica", "groupby"}

// reference is the correctness oracle: a standalone store over exactly
// the preloaded items, plus per-group totals for the group-by queries.
// Items acknowledged during a run are checked against it by count and
// sum (ingest), or by per-batch bounds (mixed).
type reference struct {
	schema *volap.Schema
	store  core.Store
	count  uint64
	sum    float64
}

func newReference(schema *volap.Schema, preload []volap.Item) (*reference, error) {
	store, err := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS})
	if err != nil {
		return nil, err
	}
	// BulkLoad reorders the slice it is given; keep the caller's order.
	if err := store.BulkLoad(append([]volap.Item(nil), preload...)); err != nil {
		return nil, err
	}
	ref := &reference{schema: schema, store: store, count: uint64(len(preload))}
	for _, it := range preload {
		ref.sum += it.Measure
	}
	return ref, nil
}

// groupSpec is one full-space group-by of the dashboard mix: every value
// of dimension dim at level 0, with its region and its reference
// aggregate over the preload.
type groupSpec struct {
	dim, level int
	rects      []volap.Rect
	want       []volap.Aggregate
}

// queryPool is the dashboard's query set: range aggregates binned by true
// coverage against the reference (§IV), and the two group-bys.
type queryPool struct {
	all    volap.Rect
	ranges []volap.Rect
	bands  [3][]int // indices into ranges, per coverage band
	want   []volap.Aggregate
	groups []groupSpec
}

// Pool shape: queries per coverage band, the candidate budget spent
// filling the bands, and the seed of the candidate stream. A dashboard
// asks the same questions whatever the workload seed; their coverage, and
// hence their band, is measured on the preloaded data. A per-seed pool of
// a few dozen queries made the latency medians depend more on which
// queries were drawn than on the system.
const (
	perBand     = 32
	binAttempts = 2000
	poolSeed    = 0x51ab
)

// binQueries draws the range-query pool and bins it by coverage measured
// on the reference (§IV). The low and medium bands keep only queries no
// rollup covers, so the range kinds exercise the trees. Every query above
// 66% coverage spans whole levels in all but the Store and Date
// dimensions, so the rollups answer the high band; with half of all range
// queries rollup-covered, the latency median would sit in the gap between
// the two answer paths and jump between them from run to run.
func (ref *reference) binQueries(defs []volap.RollupDef) *queryPool {
	gen := volap.NewGenerator(ref.schema, poolSeed, 1.1)
	pool := &queryPool{all: volap.AllRect(ref.schema)}
	covered := func(q volap.Rect) bool {
		for _, def := range defs {
			if def.Covers(ref.schema, q) {
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < binAttempts; attempt++ {
		q := gen.Query()
		band := tpcds.BandOf(float64(ref.store.Query(q).Count) / float64(ref.count))
		if len(pool.bands[band]) >= perBand || (band != tpcds.High && covered(q)) {
			continue
		}
		pool.bands[band] = append(pool.bands[band], len(pool.ranges))
		pool.ranges = append(pool.ranges, q)
	}
	for b := range pool.bands {
		if len(pool.bands[b]) == 0 {
			// Only tiny data sets leave a band empty; the full space stands in.
			pool.bands[b] = []int{len(pool.ranges)}
			pool.ranges = append(pool.ranges, pool.all)
		}
	}
	return pool
}

// answer fills the pool's reference answers.
func (ref *reference) answer(pool *queryPool, preload []volap.Item) {
	pool.want = make([]volap.Aggregate, len(pool.ranges))
	for i, q := range pool.ranges {
		pool.want[i] = ref.store.Query(q)
	}
	// Store country and Date year: the group-bys the Store:1 and Date:1
	// rollups answer.
	pool.groups = nil
	for _, dim := range []int{0, 4} {
		d := ref.schema.Dim(dim)
		span := d.LeavesUnder(1)
		n := d.LeafCount() / span
		g := groupSpec{dim: dim, level: 0, rects: make([]volap.Rect, n), want: make([]volap.Aggregate, n)}
		for v := uint64(0); v < n; v++ {
			r := volap.AllRect(ref.schema)
			r.Ivs[dim] = volap.Interval{Lo: v * span, Hi: (v+1)*span - 1}
			g.rects[v] = r
			g.want[v] = volap.Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
		}
		for _, it := range preload {
			g.want[it.Coords[dim]/span].AddItem(it.Measure)
		}
		pool.groups = append(pool.groups, g)
	}
}

// draw picks the next query of the dashboard mix: its kind and its index
// (into ranges, or into groups for a group-by). Range queries are drawn
// uniformly from the whole pool, so each band weighs by the share of the
// pool it holds.
func (pool *queryPool) draw(rng *rand.Rand) (kind, idx int) {
	kind = rng.Intn(numKinds)
	if kind == kindGroupBy {
		return kind, rng.Intn(len(pool.groups))
	}
	return kind, rng.Intn(len(pool.ranges))
}

// sameAggregate reports whether an answer equals the reference: counts,
// minima and maxima exactly, float sums within a small relative
// tolerance (the cluster sums in a different order).
func sameAggregate(got, want volap.Aggregate) bool {
	if got.Count != want.Count {
		return false
	}
	if want.Count == 0 {
		return true
	}
	return got.Min == want.Min && got.Max == want.Max && closeSum(got.Sum, want.Sum)
}

func closeSum(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkStatic verifies one answer on unchanged data against the pool's
// reference answers.
func (pool *queryPool) checkStatic(kind, idx int, res *volap.Result) error {
	if kind != kindGroupBy {
		if !sameAggregate(res.Agg, pool.want[idx]) {
			return fmt.Errorf("%s query %d: got %v, want %v", kindNames[kind], idx, res.Agg, pool.want[idx])
		}
		return nil
	}
	g := pool.groups[idx]
	if len(res.Groups) != len(g.want) {
		return fmt.Errorf("group-by dim %d: %d groups, want %d", g.dim, len(res.Groups), len(g.want))
	}
	for v, gr := range res.Groups {
		if gr.Value != uint64(v) || !sameAggregate(gr.Agg, g.want[v]) {
			return fmt.Errorf("group-by dim %d value %d: got %v, want %v", g.dim, gr.Value, gr.Agg, g.want[v])
		}
	}
	return nil
}

// sentBatch is one insert batch of the mixed workload's open loop.
type sentBatch struct {
	items            []volap.Item
	due, sent, acked int64 // nanoseconds since the phase epoch
	ok               bool
	countIn          []uint32 // items inside each check region, filled by the oracle
}

// mixedQuery is one answer of the mixed workload, kept for the bounds
// check after the run.
type mixedQuery struct {
	kind, idx      int
	sent, returned int64
	counts         []uint64 // one per check region of the query
}

// checkBounds verifies the mixed workload's answers: every count must lie
// between the reference count over items acknowledged before the query
// was sent and the count over items sent before it returned. Returns the
// number of answers outside their bounds and the first such error.
func (pool *queryPool) checkBounds(batches []*sentBatch, queries []mixedQuery) (int, error) {
	// Check regions: every range rect, then every group rect.
	regions := append([]volap.Rect(nil), pool.ranges...)
	base := make([]uint64, 0, len(regions))
	for _, w := range pool.want {
		base = append(base, w.Count)
	}
	groupOff := make([]int, len(pool.groups))
	for gi, g := range pool.groups {
		groupOff[gi] = len(regions)
		regions = append(regions, g.rects...)
		for _, w := range g.want {
			base = append(base, w.Count)
		}
	}
	for _, b := range batches {
		b.countIn = make([]uint32, len(regions))
		for _, it := range b.items {
			for r, rect := range regions {
				if rect.ContainsPoint(it.Coords) {
					b.countIn[r]++
				}
			}
		}
	}
	bad := 0
	var first error
	for _, q := range queries {
		first0 := 0
		if q.kind == kindGroupBy {
			first0 = groupOff[q.idx]
		} else {
			first0 = q.idx
		}
		for i, got := range q.counts {
			r := first0 + i
			lo, hi := base[r], base[r]
			for _, b := range batches {
				if b.ok && b.acked < q.sent {
					lo += uint64(b.countIn[r])
				}
				if b.sent < q.returned {
					hi += uint64(b.countIn[r])
				}
			}
			if got < lo || got > hi {
				bad++
				if first == nil {
					first = fmt.Errorf("%s query %d region %d: count %d outside [%d, %d]",
						kindNames[q.kind], q.idx, i, got, lo, hi)
				}
				break
			}
		}
	}
	return bad, first
}
