package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Config tunes group commit and checkpointing.
type Config struct {
	// GroupInterval is the group-commit window: sync-mode appends wait at
	// most this long to share an fsync, and async-mode buffers are
	// flushed+fsynced on this period (default 2ms).
	GroupInterval time.Duration
	// SnapshotBytes checkpoints a shard once its WAL grows past this many
	// bytes (default 4 MiB; <0 disables the size trigger).
	SnapshotBytes int64
	// SnapshotRecords checkpoints a shard once its WAL holds this many
	// records (default 50000; <0 disables the count trigger).
	SnapshotRecords int64
	// Metrics receives the durable_* families; nil uses a private
	// registry.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.GroupInterval <= 0 {
		c.GroupInterval = 2 * time.Millisecond
	}
	if c.SnapshotBytes == 0 {
		c.SnapshotBytes = 4 << 20
	}
	if c.SnapshotRecords == 0 {
		c.SnapshotRecords = 50000
	}
	return c
}

// ErrLogClosed is returned by operations on a closed Log.
var ErrLogClosed = errors.New("durable: log closed")

// logMetrics bundles the durable_* instrument handles.
type logMetrics struct {
	appendLat        *metrics.Histogram
	appendedRecords  *metrics.Counter
	appendedBytes    *metrics.Counter
	fsyncBatches     *metrics.Counter
	fsyncRecords     *metrics.Counter
	fsyncLat         *metrics.Histogram
	snapshots        *metrics.Counter
	snapshotBytes    *metrics.Counter
	snapshotLat      *metrics.Histogram
	truncations      *metrics.Counter
	releases         *metrics.Counter
	recoveryReplayed *metrics.Counter
	recoveredShards  *metrics.Gauge
	recoverySeconds  *metrics.Gauge
}

func newLogMetrics(reg *metrics.Registry) *logMetrics {
	return &logMetrics{
		appendLat:        reg.Histogram("durable_append_seconds").With(),
		appendedRecords:  reg.Counter("durable_appended_records_total").With(),
		appendedBytes:    reg.Counter("durable_appended_bytes_total").With(),
		fsyncBatches:     reg.Counter("durable_fsync_batches_total").With(),
		fsyncRecords:     reg.Counter("durable_fsync_records_total").With(),
		fsyncLat:         reg.Histogram("durable_fsync_seconds").With(),
		snapshots:        reg.Counter("durable_snapshots_total").With(),
		snapshotBytes:    reg.Counter("durable_snapshot_bytes_total").With(),
		snapshotLat:      reg.Histogram("durable_snapshot_seconds").With(),
		truncations:      reg.Counter("durable_wal_truncations_total").With(),
		releases:         reg.Counter("durable_releases_total").With(),
		recoveryReplayed: reg.Counter("durable_recovery_replayed_records").With(),
		recoveredShards:  reg.Gauge("durable_recovered_shards").With(),
		recoverySeconds:  reg.Gauge("durable_recovery_seconds").With(),
	}
}

// shardLog is the live durability state of one owned shard.
type shardLog struct {
	dir string
	gen uint64 // active WAL generation
	w   *wal
}

// Log is one worker's durability subsystem: the manifest, and a WAL (+
// snapshot lineage) per owned shard. All methods are safe for concurrent
// use; per-shard ordering against the in-memory store is the caller's
// responsibility (the worker holds its shard lock across apply+append,
// and its shard write lock across serialize+rotate).
type Log struct {
	dir  string
	mode Mode
	cfg  Config
	m    *logMetrics

	mu        sync.Mutex
	man       *manifest
	shards    map[uint64]*shardLog
	recovered bool
	closed    bool
}

// Open attaches to (creating if needed) a worker data directory. The
// directory is bound to workerID: opening another worker's directory is
// refused, so two workers can never interleave one WAL lineage. Call
// Recover before serving.
func Open(dir, workerID string, mode Mode, cfg Config) (*Log, error) {
	if mode == ModeOff {
		return nil, errors.New("durable: Open with ModeOff (leave the log nil instead)")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(dir, workerID)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Log{
		dir:    dir,
		mode:   mode,
		cfg:    cfg,
		m:      newLogMetrics(reg),
		man:    man,
		shards: make(map[uint64]*shardLog),
	}
	if err := saveManifest(dir, man); err != nil {
		return nil, err
	}
	return d, nil
}

// Mode returns the durability mode.
func (d *Log) Mode() Mode { return d.mode }

// shardDir returns the directory of one shard's files.
func (d *Log) shardDir(id uint64) string {
	return filepath.Join(d.dir, "shards", strconv.FormatUint(id, 10))
}

// Recovery reports what a Recover pass rebuilt.
type Recovery struct {
	// Shards maps each recovered shard to its rebuilt store.
	Shards map[uint64]core.Store
	// ReplayedRecords and ReplayedBytes count the WAL tail replayed over
	// the snapshots.
	ReplayedRecords uint64
	ReplayedBytes   uint64
	// TruncatedTails counts shards whose WAL ended in a torn or corrupt
	// record that was cleanly truncated.
	TruncatedTails int
	// Released counts manifest tombstones of migrated-away shards that
	// were honored (not resurrected).
	Released int
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// RecoverHooks lets the caller ride along on recovery and rebuild
// derived per-shard state (materialized rollup tables) without a second
// pass over the data. Both callbacks are optional and run sequentially
// per shard: SnapshotTrailer first (if the winning snapshot carried
// trailer bytes beyond the serialized store), then Replayed once per
// replayed WAL insert batch, in replay order.
type RecoverHooks struct {
	// SnapshotTrailer receives the bytes the chosen snapshot blob holds
	// after the serialized store. Not called when the snapshot is a
	// plain store blob or the shard recovered without a snapshot.
	SnapshotTrailer func(shard uint64, trailer []byte)
	// Replayed receives every WAL-replayed insert batch, after it was
	// applied to the shard's store.
	Replayed func(shard uint64, items []core.Item)
}

// Recover rebuilds every owned shard: newest valid snapshot, then WAL
// replay in generation order, truncating torn tails. newStore builds an
// empty store for shards that have no snapshot yet; dims is the schema
// dimension count used to decode insert records. Recover must be called
// exactly once, before any append.
func (d *Log) Recover(dims int, newStore func() (core.Store, error)) (*Recovery, error) {
	return d.RecoverWithHooks(dims, newStore, RecoverHooks{})
}

// RecoverWithHooks is Recover with derived-state callbacks.
func (d *Log) RecoverWithHooks(dims int, newStore func() (core.Store, error), hooks RecoverHooks) (*Recovery, error) {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrLogClosed
	}
	if d.recovered {
		return nil, errors.New("durable: Recover called twice")
	}
	d.recovered = true

	rec := &Recovery{Shards: make(map[uint64]core.Store)}
	for id, status := range d.man.Shards {
		if status == StatusReleased {
			rec.Released++
			continue
		}
		store, released, err := d.recoverShard(id, dims, newStore, rec, hooks)
		if err != nil {
			return nil, fmt.Errorf("durable: recover shard %d: %w", id, err)
		}
		if released {
			// The WAL tail says the shard migrated away but the crash beat
			// the manifest update: honor the log.
			d.man.Shards[id] = StatusReleased
			_ = os.RemoveAll(d.shardDir(id))
			rec.Released++
			continue
		}
		rec.Shards[id] = store
	}
	if err := saveManifest(d.dir, d.man); err != nil {
		return nil, err
	}
	rec.Duration = time.Since(start)
	d.m.recoveryReplayed.Add(rec.ReplayedRecords)
	d.m.recoveredShards.Set(float64(len(rec.Shards)))
	d.m.recoverySeconds.Set(rec.Duration.Seconds())
	d.m.truncations.Add(uint64(rec.TruncatedTails))
	return rec, nil
}

// recoverShard rebuilds one shard and opens its WAL for appending;
// callers hold d.mu. The released return is true when the log ends in an
// ownership-release record.
func (d *Log) recoverShard(id uint64, dims int, newStore func() (core.Store, error), rec *Recovery, hooks RecoverHooks) (core.Store, bool, error) {
	dir := d.shardDir(id)
	snaps, wals, err := shardFiles(dir)
	if err != nil {
		return nil, false, err
	}

	// Newest snapshot that decodes wins; older generations are the
	// fallback when the latest was half-written by a dying checkpoint.
	var store core.Store
	var snapGen uint64
	haveSnap := false
	for i := len(snaps) - 1; i >= 0; i-- {
		g := snaps[i]
		b, err := os.ReadFile(filepath.Join(dir, snapName(g)))
		if err != nil {
			continue
		}
		blob, err := decodeSnapshot(b, id, g)
		if err != nil {
			continue
		}
		s, trailer, err := core.DeserializeStoreTrailer(blob)
		if err != nil {
			continue
		}
		store, snapGen, haveSnap = s, g, true
		if len(trailer) > 0 && hooks.SnapshotTrailer != nil {
			hooks.SnapshotTrailer(id, trailer)
		}
		break
	}
	if !haveSnap {
		s, err := newStore()
		if err != nil {
			return nil, false, err
		}
		store = s
	}

	// Replay every WAL generation the snapshot does not cover, oldest
	// first. A torn or corrupt tail truncates the file and ends that
	// generation's replay.
	released := false
	maxGen := snapGen
	for _, g := range wals {
		if g < snapGen {
			continue
		}
		if g > maxGen {
			maxGen = g
		}
		path := filepath.Join(dir, walName(g))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, false, err
		}
		valid, scanErr := ScanRecords(b, func(r Record) error {
			if r.Shard != id {
				return fmt.Errorf("record for shard %d in shard %d's log", r.Shard, id)
			}
			switch r.Type {
			case RecInsert:
				items, err := core.DecodeItems(wire.NewReader(r.Data), dims)
				if err != nil {
					return err
				}
				if err := store.BulkLoad(items); err != nil {
					return err
				}
				if hooks.Replayed != nil {
					hooks.Replayed(id, items)
				}
				rec.ReplayedRecords++
			case RecRelease:
				released = true
			case RecAdopt:
				// informational
			default:
				return fmt.Errorf("unknown record type %d", r.Type)
			}
			return nil
		})
		rec.ReplayedBytes += uint64(valid)
		if scanErr != nil {
			if !errors.Is(scanErr, ErrTornRecord) && !errors.Is(scanErr, ErrCorruptRecord) {
				return nil, false, scanErr
			}
			// Torn tail: keep the valid prefix, drop the garbage.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, false, err
			}
			rec.TruncatedTails++
		}
	}
	if released {
		return nil, true, nil
	}

	// Append into the newest generation (creating wal-0 for a shard that
	// lost its files but kept its manifest entry).
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	w, err := openWAL(filepath.Join(dir, walName(maxGen)), d.mode, d.cfg.GroupInterval, d.m)
	if err != nil {
		return nil, false, err
	}
	d.shards[id] = &shardLog{dir: dir, gen: maxGen, w: w}
	return store, false, nil
}

// CreateShard registers a brand-new empty shard: manifest entry first
// (a crash before the files exist recovers it as empty), then wal-0.
func (d *Log) CreateShard(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrLogClosed
	}
	if st, ok := d.man.Shards[id]; ok && st == StatusOwned {
		return fmt.Errorf("durable: shard %d already owned", id)
	}
	d.man.Shards[id] = StatusOwned
	if err := saveManifest(d.dir, d.man); err != nil {
		return err
	}
	return d.openShardLocked(id, 0)
}

// AdoptShard persists a shard received whole — a migration arrival or
// the new half of a split: snapshot + empty WAL first, manifest entry
// last, so a crash mid-adopt is indistinguishable from never adopting
// (the sender only releases after this returns).
func (d *Log) AdoptShard(id uint64, blob []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrLogClosed
	}
	if st, ok := d.man.Shards[id]; ok && st == StatusOwned {
		return fmt.Errorf("durable: shard %d already owned", id)
	}
	dir := d.shardDir(id)
	// A released tombstone's stale files (or a half-finished previous
	// adopt) must not leak into the new lineage.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	if err := writeFileAtomic(dir, snapName(0), encodeSnapshot(id, 0, blob)); err != nil {
		return err
	}
	d.m.snapshots.Inc()
	d.m.snapshotBytes.Add(uint64(len(blob)))
	d.m.snapshotLat.Record(time.Since(start))
	if err := d.openShardLocked(id, 0); err != nil {
		return err
	}
	if err := d.shards[id].w.append(Record{Type: RecAdopt, Shard: id}, d.mode == ModeSync); err != nil {
		return err
	}
	d.man.Shards[id] = StatusOwned
	return saveManifest(d.dir, d.man)
}

// openShardLocked opens generation gen's WAL for id; callers hold d.mu.
func (d *Log) openShardLocked(id, gen uint64) error {
	dir := d.shardDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := openWAL(filepath.Join(dir, walName(gen)), d.mode, d.cfg.GroupInterval, d.m)
	if err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		w.crash()
		return err
	}
	d.shards[id] = &shardLog{dir: dir, gen: gen, w: w}
	return nil
}

// shard returns the live state of an owned shard.
func (d *Log) shard(id uint64) (*shardLog, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrLogClosed
	}
	s, ok := d.shards[id]
	if !ok {
		return nil, fmt.Errorf("durable: shard %d not owned", id)
	}
	return s, nil
}

// AppendInsert logs one applied insert batch. In sync mode it returns
// after the record is fsynced (group-committed with its neighbors); in
// async mode after it is buffered.
func (d *Log) AppendInsert(id uint64, dims int, items []core.Item) error {
	if len(items) == 0 {
		return nil
	}
	s, err := d.shard(id)
	if err != nil {
		return err
	}
	return s.w.append(Record{Type: RecInsert, Shard: id, Data: core.EncodeItems(dims, items)}, d.mode == ModeSync)
}

// ReleaseShard marks a shard as migrated away: a release record is
// force-synced into the WAL (so recovery honors the release even if the
// manifest update below never lands), the manifest entry becomes a
// tombstone, and the shard's files are deleted.
func (d *Log) ReleaseShard(id uint64) error {
	s, err := d.shard(id)
	if err != nil {
		return err
	}
	if err := s.w.append(Record{Type: RecRelease, Shard: id}, true); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrLogClosed
	}
	if err := s.w.close(); err != nil {
		return err
	}
	delete(d.shards, id)
	d.man.Shards[id] = StatusReleased
	if err := saveManifest(d.dir, d.man); err != nil {
		return err
	}
	_ = os.RemoveAll(s.dir)
	d.m.releases.Inc()
	return nil
}

// ShouldCheckpoint reports whether a shard's WAL has outgrown the
// snapshot thresholds.
func (d *Log) ShouldCheckpoint(id uint64) bool {
	d.mu.Lock()
	s, ok := d.shards[id]
	d.mu.Unlock()
	if !ok {
		return false
	}
	if d.cfg.SnapshotBytes > 0 && s.w.size() >= d.cfg.SnapshotBytes {
		return true
	}
	return d.cfg.SnapshotRecords > 0 && int64(s.w.records()) >= d.cfg.SnapshotRecords
}

// RotateWAL begins a checkpoint: the current WAL is sealed (flushed,
// fsynced, closed) and appends switch to generation gen+1. The caller
// must hold whatever lock orders appends against the store serialization
// it is about to snapshot — every record in sealed generations must be
// contained in that snapshot. Complete the checkpoint with WriteSnapshot.
func (d *Log) RotateWAL(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrLogClosed
	}
	s, ok := d.shards[id]
	if !ok {
		return fmt.Errorf("durable: shard %d not owned", id)
	}
	next, err := openWAL(filepath.Join(s.dir, walName(s.gen+1)), d.mode, d.cfg.GroupInterval, d.m)
	if err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		next.crash()
		return err
	}
	if err := s.w.close(); err != nil {
		next.crash()
		return err
	}
	s.gen++
	s.w = next
	return nil
}

// WriteSnapshot completes a checkpoint begun by RotateWAL: the blob
// (which must cover every generation before the current one) is written
// as the current generation's snapshot and all older files are pruned —
// the WAL truncation at the snapshot boundary.
func (d *Log) WriteSnapshot(id uint64, blob []byte) error {
	d.mu.Lock()
	s, ok := d.shards[id]
	if !ok || d.closed {
		d.mu.Unlock()
		if d.closed {
			return ErrLogClosed
		}
		return fmt.Errorf("durable: shard %d not owned", id)
	}
	gen := s.gen
	dir := s.dir
	d.mu.Unlock()

	start := time.Now()
	if err := writeFileAtomic(dir, snapName(gen), encodeSnapshot(id, gen, blob)); err != nil {
		return err
	}
	d.m.snapshots.Inc()
	d.m.snapshotBytes.Add(uint64(len(blob)))
	d.m.snapshotLat.Record(time.Since(start))
	pruneShardFiles(dir, gen)
	return nil
}

// OwnedShards lists the shards the manifest marks owned, sorted.
func (d *Log) OwnedShards() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.man.Shards))
	for id, st := range d.man.Shards {
		if st == StatusOwned {
			out = append(out, id)
		}
	}
	sortU64(out)
	return out
}

// Close flushes and fsyncs every WAL and closes the log — the graceful
// shutdown path.
func (d *Log) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	shards := make([]*shardLog, 0, len(d.shards))
	for _, s := range d.shards {
		shards = append(shards, s)
	}
	d.mu.Unlock()
	var first error
	for _, s := range shards {
		if err := s.w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Crash closes every WAL without flushing — the in-process stand-in for
// SIGKILL. Async-mode records still in the buffer are lost, exactly like
// a real crash; sync mode never acknowledged them.
func (d *Log) Crash() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	shards := make([]*shardLog, 0, len(d.shards))
	for _, s := range d.shards {
		shards = append(shards, s)
	}
	d.mu.Unlock()
	for _, s := range shards {
		s.w.crash()
	}
}
