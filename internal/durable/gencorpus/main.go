// Command gencorpus regenerates the checked-in fuzz seed corpora for the
// durable WAL codec (testdata/fuzz/...). Run it from internal/durable
// after changing the record framing:
//
//	go run ./gencorpus
//
// The seeds pin the crash cases that matter: torn tails, corrupt CRCs and
// implausible length prefixes, alongside healthy single- and multi-record
// logs.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/durable"
)

func items(n, seed int) []core.Item {
	out := make([]core.Item, n)
	for i := range out {
		v := uint64(seed*1000 + i)
		out[i] = core.Item{
			Coords:  []uint64{v % 64, (v * 7) % 50, (v * 13) % 16},
			Measure: float64(i),
		}
	}
	return out
}

func writeSeed(dir, name string, values ...any) {
	body := "go test fuzz v1\n"
	for _, v := range values {
		switch v := v.(type) {
		case []byte:
			body += fmt.Sprintf("[]byte(%s)\n", strconv.Quote(string(v)))
		case int:
			body += fmt.Sprintf("int(%d)\n", v)
		default:
			log.Fatalf("unsupported seed value type %T", v)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	one := durable.EncodeRecord(durable.Record{
		Type: durable.RecInsert, Shard: 4, Data: core.EncodeItems(3, items(3, 1)),
	})
	release := durable.EncodeRecord(durable.Record{Type: durable.RecRelease, Shard: 4})
	adopt := durable.EncodeRecord(durable.Record{Type: durable.RecAdopt, Shard: 12})
	multi := append(append(append([]byte{}, one...), adopt...), release...)
	torn := append(append([]byte{}, one...), one[:len(one)-5]...)
	badCRC := append([]byte{}, multi...)
	badCRC[len(badCRC)-1] ^= 0x80
	hugeLen := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}
	tornHeader := one[:5]

	scan := filepath.Join("testdata", "fuzz", "FuzzScanRecords")
	writeSeed(scan, "seed-one-record", one)
	writeSeed(scan, "seed-multi-record", multi)
	writeSeed(scan, "seed-torn-tail", torn)
	writeSeed(scan, "seed-torn-header", tornHeader)
	writeSeed(scan, "seed-bad-crc", badCRC)
	writeSeed(scan, "seed-huge-length", hugeLen)

	ins := filepath.Join("testdata", "fuzz", "FuzzDecodeInsert")
	writeSeed(ins, "seed-valid-3d", core.EncodeItems(3, items(5, 2)), 3)
	writeSeed(ins, "seed-valid-1d", core.EncodeItems(1, items(1, 0)), 1)
	writeSeed(ins, "seed-huge-count", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 3)
	writeSeed(ins, "seed-truncated-item", core.EncodeItems(3, items(4, 2))[:9], 3)
	// A short payload claiming 2^40 items: must be rejected before any
	// allocation is sized by the count.
	writeSeed(ins, "seed-claims-2pow40-items", append(binary.AppendUvarint(nil, 1<<40), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 3)
}
