package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	volap "repro"
)

// Cluster profile, the same for every workload.
const (
	profileWorkers = 2
	profileShards  = 4 // per worker
	// maxPendingItems caps each shard's unapplied-item buffer. With 8
	// primary shards the cap on unapplied items is 4096, under 5% of what
	// one ingest run acknowledges, so acks track applied items closely.
	maxPendingItems = 512
	preloadChunk    = 5000
	batchItems      = 64
	// mixedRate is the mixed workload's open-loop insert rate in items per
	// second: about a quarter of what ingest sustains on a 2-CPU host.
	// It is a constant so that every commit receives identical load.
	mixedRate = 3000.0
)

// rollupSpecs cover the dashboard's group-bys and almost no range
// aggregates.
var rollupSpecs = []string{"Store:1", "Date:1", "Store:1,Date:1"}

func rollupDefs(schema *volap.Schema) ([]volap.RollupDef, error) {
	defs := make([]volap.RollupDef, 0, len(rollupSpecs))
	for _, spec := range rollupSpecs {
		def, err := volap.ParseRollupDef(schema, spec)
		if err != nil {
			return nil, fmt.Errorf("rollup %q: %w", spec, err)
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// env is one booted, preloaded cluster.
type env struct {
	cluster *volap.Cluster
	client  *volap.Client // the set-up session, reused for checks
	dataDir string
	pool    *queryPool
}

func (e *env) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.cluster != nil {
		e.cluster.Stop()
	}
	_ = os.RemoveAll(e.dataDir) // scratch state; a leftover is harmless
}

// setUp boots the cluster over TCP, preloads it, bins the query pool and
// waits until the full preload count is visible. The returned duration is
// the set-up time.
func setUp(ctx context.Context, parent string, schema *volap.Schema, defs []volap.RollupDef,
	ref *reference, preload []volap.Item) (*env, time.Duration, error) {
	dir, err := os.MkdirTemp(parent, "cluster-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{dataDir: dir}
	start := time.Now()
	e.cluster, err = volap.Start(volap.Options{
		Schema:            schema,
		Transport:         "tcp",
		Workers:           profileWorkers,
		Servers:           1,
		ShardsPerWorker:   profileShards,
		IngestWorkers:     1,
		MaxPendingItems:   maxPendingItems,
		Durability:        volap.DurabilityAsync,
		DataDir:           dir,
		ReplicationFactor: 2,
		Rollups:           defs,
		// Splits and migrations belong to no workload: the balancer runs
		// its passes but never finds a gap worth moving.
		MinMoveItems: 1 << 62,
	})
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	if e.client, err = e.cluster.Client(); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("connect: %w", err)
	}
	for i := 0; i < len(preload); i += preloadChunk {
		j := min(i+preloadChunk, len(preload))
		if err := e.client.BulkLoad(ctx, preload[i:j]); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	e.pool = ref.binQueries(defs)
	if err := e.waitCount(ctx, ref.count, ref.sum); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// waitCount waits until the full-space count is visible, then checks the
// count and sum against the expected totals.
func (e *env) waitCount(ctx context.Context, count uint64, sum float64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := e.client.Query(ctx, volap.AllRect(e.cluster.Schema()))
		if err != nil {
			return fmt.Errorf("full-space query: %w", err)
		}
		if res.Agg.Count == count && !res.Info.Partial() {
			if !closeSum(res.Agg.Sum, sum) {
				return fmt.Errorf("full-space sum %v, want %v", res.Agg.Sum, sum)
			}
			return nil
		}
		if res.Agg.Count > count || time.Now().After(deadline) {
			return fmt.Errorf("full-space count %d, want %d", res.Agg.Count, count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// diskBytes sums the sizes of the files under the cluster's data dir.
func (e *env) diskBytes() (uint64, error) {
	var total uint64
	err := filepath.WalkDir(e.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// Checkpoints prune files while we walk; skip what vanished.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += uint64(info.Size())
			}
		}
		return nil
	})
	return total, err
}
