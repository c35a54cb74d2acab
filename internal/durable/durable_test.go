package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/wire"
)

// testSchema builds a small 3-dimensional hierarchical schema.
func testSchema(tb testing.TB) *hierarchy.Schema {
	tb.Helper()
	return hierarchy.MustSchema(
		hierarchy.MustDimension("Store",
			hierarchy.Level{Name: "Region", Fanout: 8},
			hierarchy.Level{Name: "City", Fanout: 8}),
		hierarchy.MustDimension("Item",
			hierarchy.Level{Name: "Brand", Fanout: 50}),
		hierarchy.MustDimension("Date",
			hierarchy.Level{Name: "Year", Fanout: 4},
			hierarchy.Level{Name: "Month", Fanout: 4}),
	)
}

func testStoreConfig(tb testing.TB) core.Config {
	return core.Config{
		Schema: testSchema(tb), Store: core.StoreHilbertPDC, Keys: keys.MDS,
		LeafCapacity: 16, DirCapacity: 8,
	}
}

func newTestStore(tb testing.TB) core.Store {
	tb.Helper()
	st, err := core.NewStore(testStoreConfig(tb))
	if err != nil {
		tb.Fatalf("NewStore: %v", err)
	}
	return st
}

// testItems builds n deterministic distinct items.
func testItems(n, seed int) []core.Item {
	items := make([]core.Item, n)
	for i := range items {
		v := uint64(seed*1000 + i)
		items[i] = core.Item{
			Coords:  []uint64{v % 64, (v * 7) % 50, (v * 13) % 16},
			Measure: float64(i) + float64(seed)/10,
		}
	}
	return items
}

// storeItems extracts and sorts a store's contents for comparison.
func storeItems(st core.Store) []core.Item {
	var items []core.Item
	st.Items(func(it core.Item) bool {
		c := make([]uint64, len(it.Coords))
		copy(c, it.Coords)
		items = append(items, core.Item{Coords: c, Measure: it.Measure})
		return true
	})
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		for d := range a.Coords {
			if a.Coords[d] != b.Coords[d] {
				return a.Coords[d] < b.Coords[d]
			}
		}
		return a.Measure < b.Measure
	})
	return items
}

func wantSameItems(t *testing.T, got, want core.Store) {
	t.Helper()
	g, w := storeItems(got), storeItems(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("store contents differ: got %d items, want %d", len(g), len(w))
	}
}

func openTestLog(t *testing.T, dir string, mode Mode) *Log {
	t.Helper()
	d, err := Open(dir, "w0", mode, Config{GroupInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func recoverAll(t *testing.T, d *Log, dims int) *Recovery {
	t.Helper()
	rec, err := d.Recover(dims, func() (core.Store, error) {
		return core.NewStore(testStoreConfig(t))
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecInsert, Shard: 0, Data: []byte("hello")},
		{Type: RecRelease, Shard: 1 << 40},
		{Type: RecAdopt, Shard: 7, Data: []byte{}},
	}
	for _, rec := range recs {
		b := EncodeRecord(rec)
		got, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("DecodeRecord(%v): %v", rec, err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if got.Type != rec.Type || got.Shard != rec.Shard || string(got.Data) != string(rec.Data) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	}
}

func TestScanRecordsTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = append(buf, EncodeRecord(Record{Type: RecInsert, Shard: uint64(i), Data: []byte("abc")})...)
	}
	clean := len(buf)
	// A torn frame: header promising more bytes than exist.
	buf = append(buf, EncodeRecord(Record{Type: RecInsert, Shard: 9, Data: []byte("torn")})[:7]...)

	var seen int
	off, err := ScanRecords(buf, func(Record) error { seen++; return nil })
	if !errors.Is(err, ErrTornRecord) {
		t.Fatalf("err = %v, want ErrTornRecord", err)
	}
	if off != clean || seen != 3 {
		t.Fatalf("off=%d seen=%d, want off=%d seen=3", off, seen, clean)
	}
}

func TestScanRecordsBadCRC(t *testing.T) {
	a := EncodeRecord(Record{Type: RecInsert, Shard: 1, Data: []byte("first")})
	b := EncodeRecord(Record{Type: RecInsert, Shard: 2, Data: []byte("second")})
	b[len(b)-1] ^= 0xff // damage the second record's payload
	buf := append(append([]byte{}, a...), b...)

	var seen int
	off, err := ScanRecords(buf, func(Record) error { seen++; return nil })
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	if off != len(a) || seen != 1 {
		t.Fatalf("off=%d seen=%d, want off=%d seen=1", off, seen, len(a))
	}
}

func TestInsertCodecRoundTrip(t *testing.T) {
	items := testItems(37, 1)
	got, err := core.DecodeItems(wire.NewReader(core.EncodeItems(3, items)), 3)
	if err != nil {
		t.Fatalf("DecodeItems: %v", err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("insert codec round trip mismatch")
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	d := openTestLog(t, t.TempDir(), ModeSync)
	rec := recoverAll(t, d, 3)
	if len(rec.Shards) != 0 || rec.ReplayedRecords != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAppendCloseRecover is the basic durability contract: everything
// appended before a clean Close comes back.
func TestAppendCloseRecover(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			want := newTestStore(t)

			d := openTestLog(t, dir, mode)
			recoverAll(t, d, 3)
			if err := d.CreateShard(4); err != nil {
				t.Fatalf("CreateShard: %v", err)
			}
			for i := 0; i < 5; i++ {
				items := testItems(20, i)
				if err := want.BulkLoad(items); err != nil {
					t.Fatalf("BulkLoad: %v", err)
				}
				if err := d.AppendInsert(4, 3, items); err != nil {
					t.Fatalf("AppendInsert: %v", err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			d2 := openTestLog(t, dir, mode)
			rec := recoverAll(t, d2, 3)
			if rec.ReplayedRecords != 5 {
				t.Fatalf("replayed %d records, want 5", rec.ReplayedRecords)
			}
			got, ok := rec.Shards[4]
			if !ok {
				t.Fatalf("shard 4 not recovered (got %v)", rec.Shards)
			}
			wantSameItems(t, got, want)
			d2.Close()
		})
	}
}

// TestCrashRecoverSync: in sync mode every acknowledged append survives a
// crash (fds closed without flushing).
func TestCrashRecoverSync(t *testing.T) {
	dir := t.TempDir()
	want := newTestStore(t)

	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(1); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				items := testItems(5, g*100+i)
				if err := d.AppendInsert(1, 3, items); err != nil {
					t.Errorf("AppendInsert: %v", err)
					return
				}
				mu.Lock()
				want.BulkLoad(items)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	d.Crash()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	got, ok := rec.Shards[1]
	if !ok {
		t.Fatalf("shard 1 not recovered")
	}
	wantSameItems(t, got, want)
	d2.Close()
}

// TestCheckpoint exercises the rotate → snapshot → prune cycle and
// recovery across generations.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := newTestStore(t)

	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(2); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	load := func(seed int) {
		items := testItems(30, seed)
		want.BulkLoad(items)
		if err := d.AppendInsert(2, 3, items); err != nil {
			t.Fatalf("AppendInsert: %v", err)
		}
	}
	load(1)
	load(2)

	// Checkpoint: as the worker would, serialize then rotate then snapshot.
	blob := want.Serialize()
	if err := d.RotateWAL(2); err != nil {
		t.Fatalf("RotateWAL: %v", err)
	}
	if err := d.WriteSnapshot(2, blob); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	// Old generation files must be pruned.
	shardDir := filepath.Join(dir, "shards", "2")
	if _, err := os.Stat(filepath.Join(shardDir, "wal-0")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal-0 not pruned after checkpoint: %v", err)
	}

	load(3) // records after the checkpoint land in wal-1
	d.Crash()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	if rec.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (snapshot should cover the rest)", rec.ReplayedRecords)
	}
	got, ok := rec.Shards[2]
	if !ok {
		t.Fatalf("shard 2 not recovered")
	}
	wantSameItems(t, got, want)
	d2.Close()
}

// TestTornTailTruncated: garbage appended to a WAL (a torn final record)
// is cleanly truncated at recovery and the shard keeps working.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	want := newTestStore(t)

	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(3); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	items := testItems(10, 1)
	want.BulkLoad(items)
	if err := d.AppendInsert(3, 3, items); err != nil {
		t.Fatalf("AppendInsert: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: a half-written frame at the tail.
	walPath := filepath.Join(dir, "shards", "3", "wal-0")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	torn := EncodeRecord(Record{Type: RecInsert, Shard: 3, Data: core.EncodeItems(3, testItems(5, 9))})
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	if rec.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", rec.TruncatedTails)
	}
	got := rec.Shards[3]
	wantSameItems(t, got, want)

	// The shard must accept appends after truncation and recover again.
	more := testItems(4, 2)
	want.BulkLoad(more)
	if err := d2.AppendInsert(3, 3, more); err != nil {
		t.Fatalf("AppendInsert after truncation: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d3 := openTestLog(t, dir, ModeSync)
	rec3 := recoverAll(t, d3, 3)
	wantSameItems(t, rec3.Shards[3], want)
	d3.Close()
}

// TestReleaseShard: a released shard is never resurrected, even when the
// crash happens between the WAL release record and the manifest update.
func TestReleaseShard(t *testing.T) {
	dir := t.TempDir()
	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(5); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	if err := d.AppendInsert(5, 3, testItems(10, 1)); err != nil {
		t.Fatalf("AppendInsert: %v", err)
	}
	if err := d.ReleaseShard(5); err != nil {
		t.Fatalf("ReleaseShard: %v", err)
	}
	if err := d.AppendInsert(5, 3, testItems(1, 2)); err == nil {
		t.Fatalf("AppendInsert after release succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "shards", "5")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("released shard's files not deleted: %v", err)
	}
	d.Close()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	if _, ok := rec.Shards[5]; ok {
		t.Fatalf("released shard resurrected")
	}
	if rec.Released != 1 {
		t.Fatalf("Released = %d, want 1", rec.Released)
	}
	d2.Close()
}

// TestReleaseRecordBeatsManifest: only the WAL release record lands (the
// crash preempts the manifest update and file deletion) — recovery must
// still honor it.
func TestReleaseRecordBeatsManifest(t *testing.T) {
	dir := t.TempDir()
	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(6); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	if err := d.AppendInsert(6, 3, testItems(3, 1)); err != nil {
		t.Fatalf("AppendInsert: %v", err)
	}
	d.Close()

	// Hand-append the release record, leaving manifest + files in place.
	walPath := filepath.Join(dir, "shards", "6", "wal-0")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write(EncodeRecord(Record{Type: RecRelease, Shard: 6})); err != nil {
		t.Fatalf("append release: %v", err)
	}
	f.Close()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	if _, ok := rec.Shards[6]; ok {
		t.Fatalf("shard with WAL release record resurrected")
	}
	if _, err := os.Stat(filepath.Join(dir, "shards", "6")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("released shard's files not cleaned up at recovery: %v", err)
	}
	d2.Close()

	// The tombstone persists across another cycle.
	d3 := openTestLog(t, dir, ModeSync)
	rec3 := recoverAll(t, d3, 3)
	if _, ok := rec3.Shards[6]; ok {
		t.Fatalf("tombstone lost")
	}
	d3.Close()
}

// TestAdoptShard: a migrated-in shard persists via its adopting snapshot,
// including re-adoption over a release tombstone.
func TestAdoptShard(t *testing.T) {
	dir := t.TempDir()
	want := newTestStore(t)
	want.BulkLoad(testItems(25, 3))
	blob := want.Serialize()

	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.AdoptShard(8, blob); err != nil {
		t.Fatalf("AdoptShard: %v", err)
	}
	extra := testItems(5, 4)
	want.BulkLoad(extra)
	if err := d.AppendInsert(8, 3, extra); err != nil {
		t.Fatalf("AppendInsert: %v", err)
	}
	if err := d.ReleaseShard(8); err != nil {
		t.Fatalf("ReleaseShard: %v", err)
	}
	// The shard comes back (re-adoption after a round trip elsewhere).
	blob2 := want.Serialize()
	if err := d.AdoptShard(8, blob2); err != nil {
		t.Fatalf("re-AdoptShard: %v", err)
	}
	d.Crash()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	got, ok := rec.Shards[8]
	if !ok {
		t.Fatalf("adopted shard not recovered")
	}
	wantSameItems(t, got, want)
	d2.Close()
}

// TestCrashMidCheckpoint: a crash between WAL rotation and snapshot write
// leaves two WAL generations; recovery replays both.
func TestCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := newTestStore(t)

	d := openTestLog(t, dir, ModeSync)
	recoverAll(t, d, 3)
	if err := d.CreateShard(9); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	items1 := testItems(10, 1)
	want.BulkLoad(items1)
	d.AppendInsert(9, 3, items1)
	if err := d.RotateWAL(9); err != nil {
		t.Fatalf("RotateWAL: %v", err)
	}
	// ... crash before WriteSnapshot: wal-0 and wal-1 both live.
	items2 := testItems(10, 2)
	want.BulkLoad(items2)
	d.AppendInsert(9, 3, items2)
	d.Crash()

	d2 := openTestLog(t, dir, ModeSync)
	rec := recoverAll(t, d2, 3)
	if rec.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (both generations)", rec.ReplayedRecords)
	}
	wantSameItems(t, rec.Shards[9], want)
	d2.Close()
}

func TestManifestWorkerIDMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, "w0", ModeSync, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d.Close()
	if _, err := Open(dir, "w1", ModeSync, Config{}); err == nil {
		t.Fatalf("Open with wrong worker ID succeeded")
	}
}

func TestShouldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, "w0", ModeAsync, Config{SnapshotRecords: 3, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	recoverAll(t, d, 3)
	if err := d.CreateShard(1); err != nil {
		t.Fatalf("CreateShard: %v", err)
	}
	for i := 0; i < 2; i++ {
		d.AppendInsert(1, 3, testItems(1, i))
	}
	if d.ShouldCheckpoint(1) {
		t.Fatalf("ShouldCheckpoint true at 2 records (threshold 3)")
	}
	d.AppendInsert(1, 3, testItems(1, 9))
	if !d.ShouldCheckpoint(1) {
		t.Fatalf("ShouldCheckpoint false at 3 records (threshold 3)")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": ModeOff, "async": ModeAsync, "sync": ModeSync} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Mode(%q).String() = %q", s, got.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatalf("ParseMode(bogus) succeeded")
	}
}
