package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	volap "repro"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/netmsg"
	"repro/internal/rollup"
	"repro/internal/server"
	"repro/internal/worker"
)

// The traced run measures each layer from outside: after every operation
// a session replays that operation's inputs against the layer's public
// functions and times them. Replays are reads of the cluster (pings,
// worker.query, worker.groupby, worker.queryreplica) or calls on the
// benchmark's own standalone objects (index, store, rollup tables, log);
// no replayed insert ever reaches the cluster.

// traceSamples holds one session's per-layer samples.
type traceSamples struct {
	rootInsert, untracedInsert durations // client InsertBatch root spans
	rootQuery, untracedQuery   durations // client leader range-query root spans

	serverRTT, workerRTT durations

	routeInsertPerItem floats // µs
	routeInsertBatch   durations
	shardGroups        floats
	routeQuery         durations
	shardsPerQuery     floats
	querySelf          floats // µs: root − route − slowest worker RPC

	queryRPC, groupbyRPC, replicaRPC durations

	coreQuery                 durations
	coreNodes, coreCovered    floats
	coreItems                 floats
	coreBulkPerItem           floats // µs
	rollupGroupBy             durations
	rollupAddPerItem          floats // µs
	durableAppend, wireEncode durations
	replayErrors              int
	firstReplayErr            error
}

func (t *traceSamples) merge(o *traceSamples) {
	t.rootInsert = append(t.rootInsert, o.rootInsert...)
	t.untracedInsert = append(t.untracedInsert, o.untracedInsert...)
	t.rootQuery = append(t.rootQuery, o.rootQuery...)
	t.untracedQuery = append(t.untracedQuery, o.untracedQuery...)
	t.serverRTT = append(t.serverRTT, o.serverRTT...)
	t.workerRTT = append(t.workerRTT, o.workerRTT...)
	t.routeInsertPerItem = append(t.routeInsertPerItem, o.routeInsertPerItem...)
	t.routeInsertBatch = append(t.routeInsertBatch, o.routeInsertBatch...)
	t.shardGroups = append(t.shardGroups, o.shardGroups...)
	t.routeQuery = append(t.routeQuery, o.routeQuery...)
	t.shardsPerQuery = append(t.shardsPerQuery, o.shardsPerQuery...)
	t.querySelf = append(t.querySelf, o.querySelf...)
	t.queryRPC = append(t.queryRPC, o.queryRPC...)
	t.groupbyRPC = append(t.groupbyRPC, o.groupbyRPC...)
	t.replicaRPC = append(t.replicaRPC, o.replicaRPC...)
	t.coreQuery = append(t.coreQuery, o.coreQuery...)
	t.coreNodes = append(t.coreNodes, o.coreNodes...)
	t.coreCovered = append(t.coreCovered, o.coreCovered...)
	t.coreItems = append(t.coreItems, o.coreItems...)
	t.coreBulkPerItem = append(t.coreBulkPerItem, o.coreBulkPerItem...)
	t.rollupGroupBy = append(t.rollupGroupBy, o.rollupGroupBy...)
	t.rollupAddPerItem = append(t.rollupAddPerItem, o.rollupAddPerItem...)
	t.durableAppend = append(t.durableAppend, o.durableAppend...)
	t.wireEncode = append(t.wireEncode, o.wireEncode...)
	t.replayErrors += o.replayErrors
	if t.firstReplayErr == nil {
		t.firstReplayErr = o.firstReplayErr
	}
}

func (t *traceSamples) replayFailed(err error) {
	t.replayErrors++
	if t.firstReplayErr == nil {
		t.firstReplayErr = err
	}
}

// tracer replays operations against the benchmark's own copies of the
// layers and against the cluster's read-only RPCs.
type tracer struct {
	schema *volap.Schema
	defs   []rollup.Def

	idx      *image.Index
	owners   map[image.ShardID]string
	replicas map[image.ShardID]string // the follower a replica read goes to
	srv      *netmsg.Client
	workers  map[string]*netmsg.Client
	wids     []string
	pings    atomic.Uint64

	ref    *reference
	drain  core.Store      // preload copy the drain-path replays load into
	tables []*rollup.Table // preload tables, one per definition
	log    *durable.Log
}

// newTracer builds the benchmark's own layer objects from the cluster's
// coordinator records and the preload.
func newTracer(cl *volap.Cluster, ref *reference, preload []volap.Item, defs []rollup.Def, dir string) (*tracer, error) {
	cl.SyncAll() // push the servers' preload expansions to the coordinator
	schema := cl.Schema()
	t := &tracer{
		schema:   schema,
		defs:     defs,
		idx:      image.NewIndex(schema, keys.MDS, 0, 8),
		owners:   make(map[image.ShardID]string),
		replicas: make(map[image.ShardID]string),
		workers:  make(map[string]*netmsg.Client),
		ref:      ref,
	}
	snap, _ := cl.CoordStore().Snapshot(image.PathShards)
	var metas []*image.ShardMeta
	for path, data := range snap {
		if _, ok := image.ParseShardPath(path); !ok {
			continue
		}
		m, err := image.DecodeShardMetaBytes(data)
		if err != nil {
			return nil, fmt.Errorf("shard record %s: %w", path, err)
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	for _, m := range metas {
		if err := t.idx.AddShard(m.ID, m.Key); err != nil {
			return nil, err
		}
		t.owners[m.ID] = m.Worker
		t.replicas[m.ID] = m.Worker
		for _, r := range m.Replicas {
			if r != m.Worker {
				t.replicas[m.ID] = r
				break
			}
		}
	}
	var err error
	if t.srv, err = netmsg.Dial(cl.ServerAddr(0)); err != nil {
		t.close()
		return nil, err
	}
	for i := 0; i < cl.NumWorkers(); i++ {
		id := fmt.Sprintf("w%d", i)
		c, err := netmsg.Dial(cl.WorkerAddr(i))
		if err != nil {
			t.close()
			return nil, err
		}
		t.workers[id] = c
		t.wids = append(t.wids, id)
	}
	if t.drain, err = core.NewStore(ref.store.Config()); err != nil {
		t.close()
		return nil, err
	}
	if err := t.drain.BulkLoad(append([]volap.Item(nil), preload...)); err != nil {
		t.close()
		return nil, err
	}
	for _, def := range defs {
		tb := rollup.NewTable(schema, def)
		tb.Add(preload)
		t.tables = append(t.tables, tb)
	}
	if t.log, err = durable.Open(filepath.Join(dir, "replay-wal"), "replay", durable.ModeAsync, durable.Config{}); err != nil {
		t.close()
		return nil, err
	}
	if err := t.log.CreateShard(1); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	if t.srv != nil {
		t.srv.Close()
	}
	for _, c := range t.workers {
		c.Close()
	}
	if t.log != nil {
		_ = t.log.Close() // replay-only log, discarded with the run directory
	}
}

// ping times one server.ping and one worker.ping (workers in rotation).
func (t *tracer) ping(s *traceSamples) {
	t0 := time.Now()
	if _, err := t.srv.Request("server.ping", nil); err != nil {
		s.replayFailed(err)
	} else {
		s.serverRTT = append(s.serverRTT, time.Since(t0))
	}
	wid := t.wids[int(t.pings.Add(1))%len(t.wids)]
	t0 = time.Now()
	if _, err := t.workers[wid].Request("worker.ping", nil); err != nil {
		s.replayFailed(err)
	} else {
		s.workerRTT = append(s.workerRTT, time.Since(t0))
	}
}

// replayInsert times one acknowledged batch through the insert-path
// layers: client wire encoding, server routing, the drain's bulk insert,
// rollup maintenance and the WAL append.
func (t *tracer) replayInsert(batch []volap.Item, s *traceSamples) {
	dims := t.schema.NumDims()
	n := float64(len(batch))

	t0 := time.Now()
	_ = server.EncodeItems(dims, batch)
	s.wireEncode = append(s.wireEncode, time.Since(t0))

	groups := make(map[image.ShardID]struct{})
	t0 = time.Now()
	for _, it := range batch {
		id, _, err := t.idx.RouteInsert(it.Coords)
		if err != nil {
			s.replayFailed(err)
			return
		}
		groups[id] = struct{}{}
	}
	route := time.Since(t0)
	s.routeInsertBatch = append(s.routeInsertBatch, route)
	s.routeInsertPerItem = append(s.routeInsertPerItem, us(route)/n)
	s.shardGroups = append(s.shardGroups, float64(len(groups)))

	cp := append([]volap.Item(nil), batch...)
	t0 = time.Now()
	if err := t.drain.BulkLoad(cp); err != nil {
		s.replayFailed(err)
	}
	s.coreBulkPerItem = append(s.coreBulkPerItem, us(time.Since(t0))/n)

	t0 = time.Now()
	for _, tb := range t.tables {
		tb.Add(batch)
	}
	s.rollupAddPerItem = append(s.rollupAddPerItem, us(time.Since(t0))/n)

	t0 = time.Now()
	if err := t.log.AppendInsert(1, dims, batch); err != nil {
		s.replayFailed(err)
	}
	s.durableAppend = append(s.durableAppend, time.Since(t0))

	t.ping(s)
}

// pickRollup mirrors the server's choice of rollup definition: the
// cheapest covering one, retaining the grouped dimension deep enough.
func (t *tracer) pickRollup(q volap.Rect, groupDim, groupDepth int) int {
	best, bestCells := -1, uint64(0)
	for i, def := range t.defs {
		if groupDim >= 0 && def.Depths[groupDim] < groupDepth {
			continue
		}
		if !def.Covers(t.schema, q) {
			continue
		}
		if c := def.CellsIn(t.schema, q); best < 0 || c < bestCells {
			best, bestCells = i, c
		}
	}
	return best
}

// fanOut sends one request per worker in parallel, as the server does,
// and returns each RPC's latency.
func (t *tracer) fanOut(op string, byWorker map[string][]image.ShardID, payload func([]image.ShardID) []byte) ([]time.Duration, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []time.Duration
		err1 error
	)
	for wid, ids := range byWorker {
		c := t.workers[wid]
		if c == nil {
			return nil, fmt.Errorf("no connection to worker %s", wid)
		}
		p := payload(ids)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_, err := c.RequestCtx(context.Background(), op, p)
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && err1 == nil {
				err1 = fmt.Errorf("%s: %w", op, err)
			}
			lats = append(lats, d)
		}()
	}
	wg.Wait()
	return lats, err1
}

// replayQuery times one answered query through the query-path layers:
// server routing, the worker RPCs on the routed shard lists, and the
// standalone tree or rollup table.
func (t *tracer) replayQuery(kind, idx int, pool *queryPool, root time.Duration, s *traceSamples) {
	q := pool.all
	if kind != kindGroupBy {
		q = pool.ranges[idx]
	}
	t0 := time.Now()
	ids := t.idx.RouteQuery(q)
	route := time.Since(t0)
	if kind == kindRange {
		s.routeQuery = append(s.routeQuery, route)
		s.shardsPerQuery = append(s.shardsPerQuery, float64(len(ids)))
	}
	group := func(of map[image.ShardID]string) map[string][]image.ShardID {
		out := make(map[string][]image.ShardID)
		for _, id := range ids {
			out[of[id]] = append(out[of[id]], id)
		}
		return out
	}
	switch kind {
	case kindRange:
		def := t.pickRollup(q, -1, 0)
		lats, err := t.fanOut("worker.query", group(t.owners), func(ids []image.ShardID) []byte {
			return worker.EncodeQueryRequestRollup(q, ids, def)
		})
		if err != nil {
			s.replayFailed(err)
			return
		}
		s.queryRPC = append(s.queryRPC, lats...)
		slowest := time.Duration(0)
		for _, l := range lats {
			slowest = max(slowest, l)
		}
		s.querySelf = append(s.querySelf, us(root-route-slowest))
		t0 = time.Now()
		_, st := t.ref.store.QueryWithStats(q)
		s.coreQuery = append(s.coreQuery, time.Since(t0))
		s.coreNodes = append(s.coreNodes, float64(st.NodesVisited))
		s.coreCovered = append(s.coreCovered, float64(st.CoveredNodes))
		s.coreItems = append(s.coreItems, float64(st.ItemsScanned))
	case kindReplica:
		lats, err := t.fanOut("worker.queryreplica", group(t.replicas), func(ids []image.ShardID) []byte {
			return worker.EncodeReplicaQueryRequest(q, ids, volap.DefaultMaxReplicaLag)
		})
		if err != nil {
			s.replayFailed(err)
			return
		}
		s.replicaRPC = append(s.replicaRPC, lats...)
	case kindGroupBy:
		g := pool.groups[idx]
		def := t.pickRollup(q, g.dim, g.level+1)
		lats, err := t.fanOut("worker.groupby", group(t.owners), func(ids []image.ShardID) []byte {
			return worker.EncodeGroupByRequest(q, g.dim, g.level, ids, def)
		})
		if err != nil {
			s.replayFailed(err)
			return
		}
		s.groupbyRPC = append(s.groupbyRPC, lats...)
		if def >= 0 {
			span := t.schema.Dim(g.dim).LeavesUnder(g.level + 1)
			out := make(map[uint64]core.Aggregate)
			t0 = time.Now()
			t.tables[def].GroupBy(q, g.dim, span, out)
			s.rollupGroupBy = append(s.rollupGroupBy, time.Since(t0))
		}
	}
	t.ping(s)
}
