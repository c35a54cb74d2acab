package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	volap "repro"
)

// TestWorkloadsTiny runs every workload for about a second on a few
// thousand items, untraced and traced, and checks that the oracle passes
// and every named metric is reported with its unit and a sample count.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{workload: w.name, seed: 7, seconds: time.Second, trace: trace,
				preload: 3000, setups: 2, dir: t.TempDir()}
			res, err := run(context.Background(), rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d first wrong: %v",
					w.name, trace, res.correct, res.attempted, res.failed, res.firstWrong)
			}
			want := append(append([]metricSpec(nil), endToEnd...), endToEndRecordOnly...)
			if trace {
				want = append(append([]metricSpec(nil), perLayer...), recordOnly...)
			}
			for _, s := range want {
				if s.name == "loadgen.late_p99_ms" && w.name != "mixed" {
					continue
				}
				m, ok := res.metrics.get(s.name)
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, s.name)
					continue
				}
				if m.Unit != s.unit || m.Samples <= 0 {
					t.Errorf("%s trace=%v: metric %s has unit %q and %d samples, want unit %q and samples > 0",
						w.name, trace, s.name, m.Unit, m.Samples, s.unit)
				}
			}
			sum := res.summary(trace)["metrics"].(map[string]any)
			if n := len(sum); (!trace && n != len(endToEnd)) || (trace && n != len(perLayer)) {
				t.Errorf("%s trace=%v: summary holds %d metrics", w.name, trace, n)
			}
		}
	}
}

// TestOracleRejectsPerturbed checks that the oracle notices a wrong
// aggregate, a wrong group and a count outside its mixed-workload bounds.
func TestOracleRejectsPerturbed(t *testing.T) {
	schema := volap.TPCDSSchema()
	preload := volap.NewGenerator(schema, 3, 1.1).Items(2000)
	ref, err := newReference(schema, preload)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := rollupDefs(schema)
	if err != nil {
		t.Fatal(err)
	}
	pool := ref.binQueries(defs)
	ref.answer(pool, preload)

	idx := pool.bands[2][0]
	good := &volap.Result{Agg: pool.want[idx]}
	if err := pool.checkStatic(kindRange, idx, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, perturb := range map[string]func(*volap.Aggregate){
		"count": func(a *volap.Aggregate) { a.Count++ },
		"sum":   func(a *volap.Aggregate) { a.Sum *= 1 + 1e-6 },
		"max":   func(a *volap.Aggregate) { a.Max += 0.01 },
	} {
		bad := &volap.Result{Agg: pool.want[idx]}
		perturb(&bad.Agg)
		if pool.checkStatic(kindReplica, idx, bad) == nil {
			t.Errorf("perturbed %s accepted", name)
		}
	}

	g := pool.groups[0]
	groups := make([]volap.GroupResult, len(g.want))
	for v, w := range g.want {
		groups[v] = volap.GroupResult{Value: uint64(v), Agg: w}
	}
	if err := pool.checkStatic(kindGroupBy, 0, &volap.Result{Groups: groups}); err != nil {
		t.Fatalf("correct group-by rejected: %v", err)
	}
	groups[1].Agg.Count++
	if pool.checkStatic(kindGroupBy, 0, &volap.Result{Groups: groups}) == nil {
		t.Error("perturbed group accepted")
	}

	// One acked batch of every-item-everywhere: a query sent after the
	// ack must see it, and a query that returned before the send must not.
	all := volap.AllRect(schema)
	batch := &sentBatch{items: []volap.Item{{Coords: preload[0].Coords, Measure: 1}}, sent: 10, acked: 20, ok: true}
	whole := -1
	for i, q := range pool.ranges {
		if q.String() == all.String() {
			whole = i
		}
	}
	if whole < 0 {
		pool.ranges = append(pool.ranges, all)
		pool.want = append(pool.want, ref.store.Query(all))
		whole = len(pool.ranges) - 1
	}
	base := pool.want[whole].Count
	ok := []mixedQuery{
		{kind: kindRange, idx: whole, sent: 30, returned: 40, counts: []uint64{base + 1}},
		{kind: kindRange, idx: whole, sent: 1, returned: 5, counts: []uint64{base}},
		{kind: kindRange, idx: whole, sent: 15, returned: 25, counts: []uint64{base}},
	}
	if bad, err := pool.checkBounds([]*sentBatch{batch}, ok); bad != 0 {
		t.Fatalf("answers inside their bounds rejected: %v", err)
	}
	wrong := []mixedQuery{
		{kind: kindRange, idx: whole, sent: 30, returned: 40, counts: []uint64{base}},
		{kind: kindRange, idx: whole, sent: 1, returned: 5, counts: []uint64{base + 1}},
	}
	if bad, _ := pool.checkBounds([]*sentBatch{batch}, wrong); bad != 2 {
		t.Errorf("%d of 2 out-of-bounds answers rejected", bad)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name  string
		got   []entry
		specs []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.specs) {
			t.Fatalf("%s: %d metrics, want %d", c.name, len(c.got), len(c.specs))
		}
		for i, s := range c.specs {
			g := c.got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, want %s %s %s",
					c.name, i, g.Name, g.Unit, g.Better, s.name, s.unit, s.better)
			}
		}
	}
}
