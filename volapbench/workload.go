package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	volap "repro"
)

// infoSums accumulates QueryInfo over one query kind.
type infoSums struct {
	n             int
	searched      int
	workers       int
	rollupShards  int
	rollupCells   uint64
	replicaShards int
}

func (s *infoSums) add(info volap.QueryInfo) {
	s.n++
	s.searched += info.ShardsSearched
	s.workers += info.WorkersContacted
	s.rollupShards += info.RollupShards
	s.rollupCells += info.RollupCells
	s.replicaShards += len(info.ReplicaShards)
}

func (s *infoSums) merge(o infoSums) {
	s.n += o.n
	s.searched += o.searched
	s.workers += o.workers
	s.rollupShards += o.rollupShards
	s.rollupCells += o.rollupCells
	s.replicaShards += o.replicaShards
}

// phaseStats is what one session measured in one phase; sessions own
// theirs and the phase merges them when every session has returned.
type phaseStats struct {
	elapsed time.Duration

	insertLat  durations
	insertDone durations // acknowledgement times since the phase start
	late       durations // open loop: how late each batch was sent
	acked      int       // items acknowledged
	ackedSum   float64

	queryLat  [numKinds]durations
	queryDone durations // answer times since the phase start
	info      [numKinds]infoSums

	attempted int
	errors    int // failed calls, timeouts included
	partials  int
	wrong     int
	firstErr  error

	tr traceSamples
}

func (p *phaseStats) fail(err error) {
	p.errors++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phaseStats) merge(o *phaseStats) {
	p.insertLat = append(p.insertLat, o.insertLat...)
	p.insertDone = append(p.insertDone, o.insertDone...)
	p.late = append(p.late, o.late...)
	p.acked += o.acked
	p.ackedSum += o.ackedSum
	p.queryDone = append(p.queryDone, o.queryDone...)
	for k := range p.queryLat {
		p.queryLat[k] = append(p.queryLat[k], o.queryLat[k]...)
		p.info[k].merge(o.info[k])
	}
	p.attempted += o.attempted
	p.errors += o.errors
	p.partials += o.partials
	p.wrong += o.wrong
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.tr.merge(&o.tr)
}

// session is one client session's view of a phase. In a traced run,
// traceFrom is when its replays start; until ends the phase.
type session struct {
	client    *volap.Client
	tracer    *tracer // nil in untraced runs
	start     time.Time
	traceFrom time.Time
	until     time.Time
	stats     phaseStats
}

func (s *session) traced(at time.Time) bool {
	return s.tracer != nil && !at.Before(s.traceFrom)
}

// insertLoop is a closed-loop insert session: 64-item batches back to
// back until the phase ends.
func (s *session) insertLoop(ctx context.Context, gen *volap.Generator) {
	for time.Now().Before(s.until) {
		batch := gen.Items(batchItems)
		t0 := time.Now()
		err := s.client.InsertBatch(ctx, batch)
		d := time.Since(t0)
		s.stats.attempted++
		if err != nil {
			s.stats.fail(err)
			continue
		}
		s.stats.insertLat = append(s.stats.insertLat, d)
		s.stats.insertDone = append(s.stats.insertDone, time.Since(s.start))
		s.stats.acked += len(batch)
		for _, it := range batch {
			s.stats.ackedSum += it.Measure
		}
		if s.tracer != nil {
			if s.traced(t0) {
				s.stats.tr.rootInsert = append(s.stats.tr.rootInsert, d)
				s.tracer.replayInsert(batch, &s.stats.tr)
			} else {
				s.stats.tr.untracedInsert = append(s.stats.tr.untracedInsert, d)
			}
		}
	}
}

// queryLoop is a closed-loop query session running the dashboard mix.
// With static set, each answer is verified at once against the static
// reference; otherwise (mixed) answers are kept for the bounds check.
func (s *session) queryLoop(ctx context.Context, rng *rand.Rand, pool *queryPool, static bool, kept *[]mixedQuery) {
	for time.Now().Before(s.until) {
		kind, idx := pool.draw(rng)
		var q volap.Rect
		var opts []volap.QueryOption
		switch kind {
		case kindRange:
			q = pool.ranges[idx]
		case kindReplica:
			q = pool.ranges[idx]
			opts = append(opts, volap.WithReadPref(volap.ReadPreferReplica))
		case kindGroupBy:
			g := pool.groups[idx]
			q = pool.all
			opts = append(opts, volap.WithGroupBy(g.dim, g.level))
		}
		t0 := time.Now()
		res, err := s.client.Query(ctx, q, opts...)
		t1 := time.Now()
		d := t1.Sub(t0)
		s.stats.attempted++
		if err != nil {
			s.stats.fail(err)
			continue
		}
		if res.Info.Partial() {
			s.stats.partials++
			continue
		}
		if static {
			if err := pool.checkStatic(kind, idx, res); err != nil {
				s.stats.wrong++
				if s.stats.firstErr == nil {
					s.stats.firstErr = err
				}
				continue
			}
		} else {
			mq := mixedQuery{kind: kind, idx: idx, sent: t0.Sub(s.start).Nanoseconds(), returned: t1.Sub(s.start).Nanoseconds()}
			if kind == kindGroupBy {
				for _, g := range res.Groups {
					mq.counts = append(mq.counts, g.Agg.Count)
				}
			} else {
				mq.counts = []uint64{res.Agg.Count}
			}
			*kept = append(*kept, mq)
		}
		s.stats.queryLat[kind] = append(s.stats.queryLat[kind], d)
		s.stats.queryDone = append(s.stats.queryDone, t1.Sub(s.start))
		s.stats.info[kind].add(res.Info)
		if s.tracer != nil {
			if s.traced(t0) {
				if kind == kindRange {
					s.stats.tr.rootQuery = append(s.stats.tr.rootQuery, d)
				}
				s.tracer.replayQuery(kind, idx, pool, d, &s.stats.tr)
			} else if kind == kindRange {
				s.stats.tr.untracedQuery = append(s.stats.tr.untracedQuery, d)
			}
		}
	}
}

// openLoop is the mixed workload's insert session: one 64-item batch
// every 64/rate seconds, sent at its due time whether or not earlier
// batches have returned. Latency counts from the due time, so a stall
// charges every batch queued behind it.
func (s *session) openLoop(ctx context.Context, gen *volap.Generator, rate float64) []*sentBatch {
	epoch := s.start
	interval := time.Duration(float64(batchItems) / rate * float64(time.Second))
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		batches []*sentBatch
	)
	for k := 0; ; k++ {
		due := epoch.Add(time.Duration(k) * interval)
		if !due.Before(s.until) {
			break
		}
		b := &sentBatch{items: gen.Items(batchItems), due: due.Sub(epoch).Nanoseconds()}
		batches = append(batches, b)
		time.Sleep(time.Until(due))
		sent := time.Now()
		b.sent = sent.Sub(epoch).Nanoseconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.client.InsertBatch(ctx, b.items)
			acked := time.Now()
			var tr traceSamples
			if err == nil && s.traced(sent) {
				tr.rootInsert = durations{acked.Sub(sent)}
				s.tracer.replayInsert(b.items, &tr)
			}
			mu.Lock()
			defer mu.Unlock()
			s.stats.attempted++
			s.stats.late = append(s.stats.late, sent.Sub(due))
			if err != nil {
				s.stats.fail(err)
				return
			}
			b.ok = true
			b.acked = acked.Sub(epoch).Nanoseconds()
			s.stats.insertLat = append(s.stats.insertLat, acked.Sub(due))
			s.stats.insertDone = append(s.stats.insertDone, acked.Sub(epoch))
			s.stats.acked += len(b.items)
			for _, it := range b.items {
				s.stats.ackedSum += it.Measure
			}
			s.stats.tr.merge(&tr)
		}()
	}
	wg.Wait()
	return batches
}
