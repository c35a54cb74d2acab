package durable

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// FuzzScanRecords pins the WAL codec's crash-safety contract on arbitrary
// bytes: scanning never panics, the reported truncation offset is a clean
// record boundary (rescanning the prefix succeeds exactly), and framing
// failures are always one of the two sentinel errors.
func FuzzScanRecords(f *testing.F) {
	// Seeds: empty, one record, two records, a torn tail, a corrupt CRC,
	// and an implausible length prefix.
	one := EncodeRecord(Record{Type: RecInsert, Shard: 4, Data: core.EncodeItems(3, testItems(3, 1))})
	two := append(append([]byte{}, one...), EncodeRecord(Record{Type: RecRelease, Shard: 4})...)
	torn := append(append([]byte{}, one...), one[:len(one)-5]...)
	bad := append([]byte{}, two...)
	bad[len(bad)-1] ^= 0x80
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(torn)
	f.Add(bad)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		var recs []Record
		off, err := ScanRecords(b, func(r Record) error {
			recs = append(recs, Record{Type: r.Type, Shard: r.Shard, Data: append([]byte{}, r.Data...)})
			return nil
		})
		if off < 0 || off > len(b) {
			t.Fatalf("offset %d outside buffer of %d bytes", off, len(b))
		}
		if err != nil && !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("non-framing error from framing scan: %v", err)
		}
		if err == nil && off != len(b) {
			t.Fatalf("clean scan stopped at %d of %d", off, len(b))
		}
		// The truncation contract: the prefix before off is exactly the
		// valid records, so a truncated file replays identically.
		n := 0
		off2, err2 := ScanRecords(b[:off], func(r Record) error {
			if n >= len(recs) {
				return errors.New("extra record after truncation")
			}
			got := recs[n]
			n++
			if got.Type != r.Type || got.Shard != r.Shard || !bytes.Equal(got.Data, r.Data) {
				return errors.New("record changed after truncation")
			}
			return nil
		})
		if err2 != nil || off2 != off || n != len(recs) {
			t.Fatalf("truncated prefix rescan: off=%d err=%v records=%d/%d", off2, err2, n, len(recs))
		}
		// Every decoded record re-encodes to a frame that decodes back.
		for _, r := range recs {
			rt, _, err := DecodeRecord(EncodeRecord(r))
			if err != nil || rt.Type != r.Type || rt.Shard != r.Shard || !bytes.Equal(rt.Data, r.Data) {
				t.Fatalf("re-encode round trip failed: %v", err)
			}
		}
	})
}

// FuzzDecodeInsert pins the item-batch decoder behind insert records and
// insert payloads: arbitrary bytes never panic or over-allocate, and
// valid bodies round trip.
func FuzzDecodeInsert(f *testing.F) {
	f.Add(core.EncodeItems(3, testItems(5, 2)), 3)
	f.Add(core.EncodeItems(1, testItems(1, 0)), 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 3) // huge count, tiny body
	f.Add([]byte{}, 2)

	f.Fuzz(func(t *testing.T, b []byte, dims int) {
		if dims < 1 || dims > 16 {
			return
		}
		items, err := core.DecodeItems(wire.NewReader(b), dims)
		if err != nil {
			return
		}
		back, err := core.DecodeItems(wire.NewReader(core.EncodeItems(dims, items)), dims)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if len(back) != len(items) {
			t.Fatalf("round trip changed count: %d -> %d", len(items), len(back))
		}
	})
}
