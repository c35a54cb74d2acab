package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	volap "repro"
	"repro/internal/metrics"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration // timed phase
	trace    bool
	preload  int    // items preloaded
	setups   int    // timed set-ups in an untraced run; the last one is used
	dir      string // parent of the run's scratch directories
}

// datasetSeed fixes the preloaded data, the way a TPC-DS scale factor
// fixes a database; the workload seed drives everything sent during the
// run: the insert streams and the order of queries. With 8 shards the
// layout the servers' image builds from the first few thousand items
// differs so much between data sets that a per-seed preload moved the
// query medians by up to 1.6x between seeds, more than any bound the
// benchmark may set.
const datasetSeed = 1

// probeLength is the complementary probe phase: half the timed phase. It
// measures the operations the workload's timed phase does not issue
// (queries on ingest, inserts on dashboard), so every end-to-end metric
// has a value on every workload.
func (rc runConfig) probeLength() time.Duration { return rc.seconds / 2 }

// result is everything one run measured.
type result struct {
	correct    bool
	firstWrong error
	attempted  int
	failed     int
	metrics    metricSet
	record     map[string]any
}

// summary is the contract line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func (r *result) summary(trace bool) map[string]any {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	m := make(map[string]any, len(specs))
	for _, s := range specs {
		if x, ok := r.metrics.get(s.name); ok {
			m[s.name] = map[string]any{"value": x.Value, "unit": x.Unit}
		}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": m}
}

// runner drives one run.
type runner struct {
	rc      runConfig
	schema  *volap.Schema
	env     *env
	tr      *tracer
	clients []*volap.Client // at most two sessions
	streams int64           // generator streams handed out so far

	// Traced windows: worker busy time per op and the largest replica lag
	// sampled.
	busy       map[string]opTotal
	replicaLag uint64
	lagSamples int
	moves      uint64
}

type opTotal struct {
	count  uint64
	busyUS float64
}

func run(ctx context.Context, rc runConfig) (*result, error) {
	schema := volap.TPCDSSchema()
	defs, err := rollupDefs(schema)
	if err != nil {
		return nil, err
	}
	preload := volap.NewGenerator(schema, datasetSeed, 1.1).Items(rc.preload)
	ref, err := newReference(schema, preload)
	if err != nil {
		return nil, err
	}
	n := rc.setups
	if rc.trace {
		n = 1 // the traced run reports no set-up time
	}
	var setupTimes []time.Duration
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		if e, d, err = setUp(ctx, rc.dir, schema, defs, ref, preload); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, d)
	}
	defer e.close()
	ref.answer(e.pool, preload)

	r := &runner{rc: rc, schema: schema, env: e, busy: make(map[string]opTotal)}
	for i := 0; i < 2; i++ {
		c, err := e.cluster.Client()
		if err != nil {
			return nil, err
		}
		defer c.Close()
		r.clients = append(r.clients, c)
	}
	if rc.trace {
		if r.tr, err = newTracer(e.cluster, ref, preload, defs, rc.dir); err != nil {
			return nil, fmt.Errorf("tracer: %w", err)
		}
		defer r.tr.close()
	}

	res := &result{correct: true}
	var main, probe *phaseStats
	var insertPh, queryPh *phaseStats // phases that measured each op type
	movesBefore := e.cluster.BalanceStats()
	stealBefore, hostBefore := hostCPU()
	switch rc.workload {
	case "ingest":
		probe = r.queryPhase(ctx, rc.probeLength(), false)
		main = r.ingestPhase(ctx, rc.seconds)
		insertPh, queryPh = main, probe
	case "dashboard":
		main = r.queryPhase(ctx, rc.seconds, true)
		probe = r.insertPhase(ctx, rc.probeLength())
		insertPh, queryPh = probe, main
	case "mixed":
		main = r.mixedPhase(ctx, rc.seconds)
		insertPh, queryPh = main, main
	}
	stealAfter, hostAfter := hostCPU()
	movesAfter := e.cluster.BalanceStats()
	r.moves = movesAfter.Splits + movesAfter.Migrations - movesBefore.Splits - movesBefore.Migrations

	all := &phaseStats{}
	all.merge(main)
	if probe != nil {
		all.merge(probe)
	}
	// Final check: the full-space count and sum equal preload plus every
	// acknowledged item.
	all.attempted++
	if err := e.waitCount(ctx, ref.count+uint64(all.acked), ref.sum+all.ackedSum); err != nil {
		all.wrong++
		if all.firstErr == nil {
			all.firstErr = err
		}
	}
	if all.wrong > 0 {
		res.correct = false
		res.firstWrong = all.firstErr
	}
	res.attempted = all.attempted
	res.failed = all.errors + all.partials + all.wrong

	items := float64(ref.count) + float64(all.acked)
	cs, err := e.client.ClusterStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster stats: %w", err)
	}
	var mem uint64
	for _, w := range cs.Workers {
		mem += w.MemBytes
	}
	disk, err := e.diskBytes()
	if err != nil {
		return nil, err
	}

	m := &res.metrics
	setupF := make(floats, len(setupTimes))
	for i, d := range setupTimes {
		setupF[i] = d.Seconds()
	}
	src := func(p *phaseStats) string {
		if p == main {
			return "main"
		}
		return "probe"
	}
	m.add("setup_s", setupF.median(), "s", len(setupF), "setup")
	// Closed loops report the median one-second rate; the open loop sends
	// on a fixed schedule, so its per-second rates all equal the schedule
	// and its mean rate shows whether the schedule was met.
	ipsRate, ipsN := rateMedian(insertPh.insertDone, batchItems, insertPh.elapsed)
	if rc.workload == "mixed" {
		ipsRate, ipsN = float64(insertPh.acked)/insertPh.elapsed.Seconds(), len(insertPh.insertDone)
	}
	m.add("ingest_items_per_s", ipsRate, "1/s", ipsN, src(insertPh))
	m.add("insert_p50_ms", ms(insertPh.insertLat.quantile(0.5)), "ms", len(insertPh.insertLat), src(insertPh))
	m.add("insert_p99_ms", ms(insertPh.insertLat.quantile(0.99)), "ms", len(insertPh.insertLat), src(insertPh))
	for _, k := range []struct {
		kind   int
		prefix string
	}{{kindRange, "query"}, {kindReplica, "replica_query"}, {kindGroupBy, "groupby"}} {
		l := queryPh.queryLat[k.kind]
		m.add(k.prefix+"_p50_ms", ms(l.quantile(0.5)), "ms", len(l), src(queryPh))
		m.add(k.prefix+"_p99_ms", ms(l.quantile(0.99)), "ms", len(l), src(queryPh))
	}
	qpsRate, qpsN := rateMedian(queryPh.queryDone, 1, queryPh.elapsed)
	m.add("queries_per_s", qpsRate, "1/s", qpsN, src(queryPh))
	m.add("mem_bytes_per_item", float64(mem)/items, "B", len(cs.Workers), "run")
	m.add("error_rate", float64(res.failed)/float64(res.attempted), "ratio", res.attempted, "run")
	if rc.workload == "mixed" {
		m.add("loadgen.late_p99_ms", ms(main.late.quantile(0.99)), "ms", len(main.late), "main")
	}
	if rc.trace {
		r.layerMetrics(m, all, disk, items)
	}

	res.record = r.describe(res, all, main, probe, insertPh, len(setupTimes))
	if hostAfter > hostBefore {
		// CPU time the hypervisor gave to other guests: the main source of
		// run-to-run noise on a shared host.
		res.record["host_steal_share"] = float64(stealAfter-stealBefore) / float64(hostAfter-hostBefore)
	}
	return res, nil
}

// session hands out a session on client i for a phase ending at until.
func (r *runner) session(i int, start, until, traceFrom time.Time) *session {
	s := &session{client: r.clients[i], start: start, until: until, traceFrom: traceFrom}
	if r.rc.trace {
		s.tracer = r.tr
	}
	return s
}

// generator returns the next seeded insert stream.
func (r *runner) generator() *volap.Generator {
	r.streams++
	return volap.NewGenerator(r.schema, r.rc.seed*1000+r.streams, 1.1)
}

// window runs fn as one phase of length d. In a traced run the second
// half of a main phase (or all of a probe) is traced: the returned
// traceFrom tells sessions when to start their replays, and worker busy
// time and replica lag are sampled over exactly that window.
func (r *runner) window(ctx context.Context, d time.Duration, halfTraced bool, fn func(start, until, traceFrom time.Time)) time.Duration {
	// Start every phase from a collected heap, so that it does not pay for
	// the garbage of the set-ups or of the phase before it.
	runtime.GC()
	start := time.Now()
	until := start.Add(d)
	var traceFrom time.Time
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if r.rc.trace {
		traceFrom = start
		if halfTraced {
			traceFrom = start.Add(d / 2)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.monitor(ctx, traceFrom, stop)
		}()
	}
	fn(start, until, traceFrom)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	return elapsed
}

// monitor snapshots worker op totals when the traced window opens and
// when the phase stops, sampling replica lag in between.
func (r *runner) monitor(ctx context.Context, from time.Time, stop <-chan struct{}) {
	select {
	case <-time.After(time.Until(from)):
	case <-stop:
		return
	}
	before, lag, err := r.opTotals(ctx)
	if err != nil {
		return
	}
	r.sampleLag(lag)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if _, lag, err := r.opTotals(ctx); err == nil {
				r.sampleLag(lag)
			}
		case <-stop:
			after, lag, err := r.opTotals(ctx)
			if err != nil {
				return
			}
			r.sampleLag(lag)
			for op, a := range after {
				b := before[op]
				t := r.busy[op]
				t.count += a.count - b.count
				t.busyUS += a.busyUS - b.busyUS
				r.busy[op] = t
			}
			return
		}
	}
}

func (r *runner) sampleLag(lag uint64) {
	r.replicaLag = max(r.replicaLag, lag)
	r.lagSamples++
}

// opTotals reads the workers' op-latency summaries: call counts and total
// busy time per op, and the largest replica lag.
func (r *runner) opTotals(ctx context.Context) (map[string]opTotal, uint64, error) {
	cs, err := r.env.client.ClusterStats(ctx)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]opTotal)
	var lag uint64
	for _, w := range cs.Workers {
		for op, l := range w.OpLatency {
			t := out[op]
			t.count += l.Count
			t.busyUS += float64(l.Count) * us(l.Mean)
			out[op] = t
		}
		for _, rep := range w.Replicas {
			lag = max(lag, rep.Lag())
		}
	}
	return out, lag, nil
}

// ingestPhase: two closed-loop insert sessions.
func (r *runner) ingestPhase(ctx context.Context, d time.Duration) *phaseStats {
	ps := &phaseStats{}
	ps.elapsed = r.window(ctx, d, true, func(start, until, traceFrom time.Time) {
		var wg sync.WaitGroup
		sessions := []*session{r.session(0, start, until, traceFrom), r.session(1, start, until, traceFrom)}
		for _, s := range sessions {
			gen := r.generator()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.insertLoop(ctx, gen)
			}()
		}
		wg.Wait()
		for _, s := range sessions {
			ps.merge(&s.stats)
		}
	})
	return ps
}

// insertPhase: one closed-loop insert session (the dashboard's probe).
func (r *runner) insertPhase(ctx context.Context, d time.Duration) *phaseStats {
	ps := &phaseStats{}
	ps.elapsed = r.window(ctx, d, false, func(start, until, traceFrom time.Time) {
		s := r.session(0, start, until, traceFrom)
		s.insertLoop(ctx, r.generator())
		ps.merge(&s.stats)
	})
	return ps
}

// queryPhase: one closed-loop session running the dashboard mix on
// static data, every answer checked against the reference.
func (r *runner) queryPhase(ctx context.Context, d time.Duration, main bool) *phaseStats {
	ps := &phaseStats{}
	rng := rand.New(rand.NewSource(r.rc.seed*1000 + 999))
	ps.elapsed = r.window(ctx, d, main, func(start, until, traceFrom time.Time) {
		s := r.session(0, start, until, traceFrom)
		s.queryLoop(ctx, rng, r.env.pool, true, nil)
		ps.merge(&s.stats)
	})
	return ps
}

// mixedPhase: the open-loop insert session beside the closed-loop
// dashboard session; answers are checked against per-batch bounds after
// the phase.
func (r *runner) mixedPhase(ctx context.Context, d time.Duration) *phaseStats {
	ps := &phaseStats{}
	rng := rand.New(rand.NewSource(r.rc.seed*1000 + 999))
	gen := r.generator()
	var batches []*sentBatch
	var kept []mixedQuery
	ps.elapsed = r.window(ctx, d, true, func(start, until, traceFrom time.Time) {
		ins, qs := r.session(0, start, until, traceFrom), r.session(1, start, until, traceFrom)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			batches = ins.openLoop(ctx, gen, mixedRate)
		}()
		qs.queryLoop(ctx, rng, r.env.pool, false, &kept)
		wg.Wait()
		ps.merge(&ins.stats)
		ps.merge(&qs.stats)
	})
	bad, err := r.env.pool.checkBounds(batches, kept)
	ps.wrong += bad
	if err != nil && ps.firstErr == nil {
		ps.firstErr = err
	}
	return ps
}

// layerMetrics derives the traced run's per-layer metrics.
func (r *runner) layerMetrics(m *metricSet, all *phaseStats, disk uint64, items float64) {
	t := &all.tr
	add := func(name string, v float64, n int) {
		for _, specs := range [][]metricSpec{perLayer, recordOnly} {
			for _, s := range specs {
				if s.name == name {
					m.add(name, v, s.unit, n, "trace")
					m.list[len(m.list)-1].Moves = s.moves
					return
				}
			}
		}
		m.add(name, v, "count", n, "trace")
	}
	medUS := func(d durations) float64 { return us(d.quantile(0.5)) }

	add("client.insert_batch_ms", ms(t.rootInsert.quantile(0.5)), len(t.rootInsert))
	add("client.query_ms", ms(t.rootQuery.quantile(0.5)), len(t.rootQuery))
	traced, untraced := t.rootQuery, t.untracedQuery
	if r.rc.workload == "ingest" {
		traced, untraced = t.rootInsert, t.untracedInsert
	}
	overhead := 0.0
	if u := untraced.quantile(0.5); u > 0 {
		overhead = (float64(traced.quantile(0.5))/float64(u) - 1) * 100
	}
	add("trace.overhead_pct", overhead, len(traced)+len(untraced))
	add("netmsg.server_rtt_us", medUS(t.serverRTT), len(t.serverRTT))
	add("netmsg.worker_rtt_us", medUS(t.workerRTT), len(t.workerRTT))
	var reconnects float64
	for _, c := range r.clients {
		reconnects += counterTotal(c.Metrics(), "netmsg_reconnects_total")
	}
	add("netmsg.reconnects", reconnects, len(r.clients))
	add("image.route_insert_us_per_item", t.routeInsertPerItem.median(), len(t.routeInsertPerItem))
	add("image.shard_groups_per_batch", t.shardGroups.mean(), len(t.shardGroups))
	add("image.route_query_us", medUS(t.routeQuery), len(t.routeQuery))
	add("image.shards_per_query", t.shardsPerQuery.mean(), len(t.shardsPerQuery))
	add("server.query_self_us", t.querySelf.median(), len(t.querySelf))
	ri := all.info[kindRange]
	add("server.workers_per_query", ratio(float64(ri.workers), float64(ri.n)), ri.n)
	ins := r.busy["insert"]
	insBusy := ratio(ins.busyUS, float64(ins.count))
	add("server.insert_self_us", medUS(t.rootInsert)-medUS(t.routeInsertBatch)-insBusy-medUS(t.workerRTT), len(t.rootInsert))
	add("worker.query_rpc_us", medUS(t.queryRPC), len(t.queryRPC))
	add("worker.groupby_rpc_us", medUS(t.groupbyRPC), len(t.groupbyRPC))
	add("worker.replica_query_rpc_us", medUS(t.replicaRPC), len(t.replicaRPC))
	q := r.busy["query"]
	add("worker.query_busy_us", ratio(q.busyUS, float64(q.count)), int(q.count))
	add("worker.insert_busy_us", insBusy, int(ins.count))
	add("worker.shards_searched_per_query", ratio(float64(ri.searched), float64(ri.n)), ri.n)
	add("core.query_us", medUS(t.coreQuery), len(t.coreQuery))
	add("core.nodes_visited_per_query", t.coreNodes.mean(), len(t.coreNodes))
	add("core.covered_nodes_per_query", t.coreCovered.mean(), len(t.coreCovered))
	add("core.items_scanned_per_query", t.coreItems.mean(), len(t.coreItems))
	add("core.bulk_insert_us_per_item", t.coreBulkPerItem.median(), len(t.coreBulkPerItem))
	add("core.mem_bytes_per_item", ratio(float64(r.tr.drain.MemoryBytes()), float64(r.tr.drain.Count())), int(r.tr.drain.Count()))
	add("rollup.groupby_us", medUS(t.rollupGroupBy), len(t.rollupGroupBy))
	gi := all.info[kindGroupBy]
	add("rollup.cells_per_groupby", ratio(float64(gi.rollupCells), float64(gi.n)), gi.n)
	for k := 0; k < numKinds; k++ {
		in := all.info[k]
		add("rollup.hit_ratio."+kindNames[k], ratio(float64(in.rollupShards), float64(in.searched)), in.n)
	}
	add("rollup.add_us_per_item", t.rollupAddPerItem.median(), len(t.rollupAddPerItem))
	add("durable.append_us_per_batch", medUS(t.durableAppend), len(t.durableAppend))
	add("durable.disk_bytes_per_item", float64(disk)/items, int(items))
	add("replica.max_lag_records", float64(r.replicaLag), r.lagSamples)
	rp := all.info[kindReplica]
	add("replica.share", ratio(float64(rp.replicaShards), float64(rp.searched)), rp.n)
	add("manager.moves", float64(r.moves), 1)
	add("wire.encode_insert_us_per_batch", medUS(t.wireEncode), len(t.wireEncode))
	if t.replayErrors > 0 {
		add("trace.replay_errors", float64(t.replayErrors), t.replayErrors)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterTotal sums every series of a counter family.
func counterTotal(reg *metrics.Registry, name string) float64 {
	total := 0.0
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			for _, s := range f.Series {
				total += s.Value
			}
		}
	}
	return total
}

// describe builds the run's self-describing record.
func (r *runner) describe(res *result, all, main, probe, insertPh *phaseStats, setups int) map[string]any {
	rec := map[string]any{
		"workload":          r.rc.workload,
		"seed":              r.rc.seed,
		"trace":             r.rc.trace,
		"timed_seconds":     main.elapsed.Seconds(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            commit(),
		"source_sha256":     sourceDigest(),
		"preload_items":     r.rc.preload,
		"setups":            setups,
		"mixed_rate_items":  mixedRate,
		"max_pending_items": maxPendingItems,
		"range_pool_bands":  [3]int{len(r.env.pool.bands[0]), len(r.env.pool.bands[1]), len(r.env.pool.bands[2])},
		"correct":           res.correct,
		"attempted":         res.attempted,
		"failed":            res.failed,
		"errors":            all.errors,
		"partials":          all.partials,
		"wrong":             all.wrong,
		"metrics":           res.metrics.list,
	}
	if probe != nil {
		rec["probe_seconds"] = probe.elapsed.Seconds()
	}
	if insertPh.acked > 0 {
		// Acks run ahead of applied items by at most the pending cap.
		rec["pending_cap_share_of_acked"] = float64(maxPendingItems*profileWorkers*profileShards) / float64(insertPh.acked)
	}
	if all.firstErr != nil {
		rec["first_error"] = all.firstErr.Error()
	}
	if all.tr.firstReplayErr != nil {
		rec["first_replay_error"] = all.tr.firstReplayErr.Error()
	}
	return rec
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the code under test when no commit is stamped.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify code
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostCPU reads the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
