// Package durable is the worker's persistence subsystem: a per-shard
// write-ahead log with batched group commit, periodic snapshots built on
// core's shard serialization, and a per-worker on-disk manifest. VOLAP as
// published is purely in-memory — a lost worker loses its shards and the
// cluster degrades to partial results. This package makes a worker
// restart a recoverable event instead: every acknowledged insert is
// framed into the owning shard's WAL (before the ack in sync mode,
// asynchronously in async mode), snapshots bound replay time by
// truncating the log at checkpoint boundaries, and recovery replays the
// surviving WAL tail over the latest snapshot of each owned shard.
//
// Layout under the worker's data directory:
//
//	MANIFEST                 worker identity + shard ownership table
//	shards/<id>/snap-<g>     snapshot covering every WAL generation < g
//	shards/<id>/wal-<g>      records appended after snapshot generation g
//
// Torn or corrupt WAL tails (a crash mid-append) truncate cleanly:
// recovery keeps the valid prefix and discards the rest, never aborting
// the whole shard.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// RecordType classifies one WAL record.
type RecordType uint8

// WAL record types.
const (
	// RecInsert carries a batch of inserted items (the hot-path record).
	RecInsert RecordType = 1
	// RecRelease marks the shard as migrated away: recovery must not
	// resurrect it even though its snapshot and log are still on disk.
	RecRelease RecordType = 2
	// RecAdopt marks the shard as received via migration or split; it is
	// informational (the adopting snapshot is the authority) but makes
	// logs self-describing.
	RecAdopt RecordType = 3
)

// Record is one WAL entry. Data is an opaque body whose meaning depends
// on Type; the framing (length prefix + CRC) is independent of it, so the
// codec decodes arbitrary logs without schema knowledge.
type Record struct {
	Type  RecordType
	Shard uint64
	Data  []byte
}

// Framing errors. Both mean "stop replaying here"; ErrCorruptRecord
// additionally indicates bytes were damaged rather than merely missing.
var (
	// ErrTornRecord means the buffer ends mid-record — the classic torn
	// tail of a crash during append.
	ErrTornRecord = errors.New("durable: torn record")
	// ErrCorruptRecord means a complete frame failed its CRC.
	ErrCorruptRecord = errors.New("durable: corrupt record")
)

// maxRecordLen bounds one frame's payload so a corrupt length prefix
// cannot drive allocation; real records are far smaller (an insert batch
// tops out around a few MB).
const maxRecordLen = 1 << 28

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems for its hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the fixed prefix of one frame: u32 payload length +
// u32 CRC-32C of the payload.
const frameHeaderLen = 8

// AppendRecord encodes one framed record onto w:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload = u8 type | uvarint shard | data...
func AppendRecord(w *wire.Writer, rec Record) {
	p := wire.NewWriter(2 + 10 + len(rec.Data))
	p.Uint8(uint8(rec.Type))
	p.Uvarint(rec.Shard)
	payload := append(p.Bytes(), rec.Data...)
	w.Uint32(uint32(len(payload)))
	w.Uint32(crc32.Checksum(payload, castagnoli))
	w.Raw(payload)
}

// EncodeRecord frames one record into a fresh buffer.
func EncodeRecord(rec Record) []byte {
	w := wire.NewWriter(frameHeaderLen + 11 + len(rec.Data))
	AppendRecord(w, rec)
	return w.Bytes()
}

// DecodeRecord decodes the first framed record of b, returning it and
// the number of bytes consumed. A short buffer returns ErrTornRecord; a
// complete frame with a wrong checksum returns ErrCorruptRecord.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, ErrTornRecord
	}
	r := wire.NewReader(b)
	n := int(r.Uint32())
	sum := r.Uint32()
	if n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", ErrCorruptRecord, n)
	}
	if len(b) < frameHeaderLen+n {
		return Record{}, 0, ErrTornRecord
	}
	payload := b[frameHeaderLen : frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, ErrCorruptRecord
	}
	pr := wire.NewReader(payload)
	rec := Record{Type: RecordType(pr.Uint8()), Shard: pr.Uvarint()}
	if pr.Err() != nil {
		return Record{}, 0, fmt.Errorf("%w: bad payload header", ErrCorruptRecord)
	}
	rec.Data = payload[len(payload)-pr.Remaining():]
	return rec, frameHeaderLen + n, nil
}

// ScanRecords decodes records from b in order, calling fn for each. It
// returns the offset of the first byte that did not decode — the clean
// truncation point — and the framing error that stopped the scan (nil
// when the buffer ended exactly on a record boundary). An error from fn
// aborts the scan and is returned as-is.
func ScanRecords(b []byte, fn func(Record) error) (int, error) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:])
		if err != nil {
			return off, err
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}
