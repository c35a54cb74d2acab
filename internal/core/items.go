package core

import (
	"fmt"

	"repro/internal/wire"
)

// AppendItems writes an item batch: the count, then per item its
// coordinates as uvarints and its measure as a fixed float64. It is the
// one batch format of the system — server and worker insert payloads,
// replication shipments, WAL insert records and serialized shards all
// carry it.
func AppendItems(w *wire.Writer, items []Item) {
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		for _, c := range it.Coords {
			w.Uvarint(c)
		}
		w.Float64(it.Measure)
	}
}

// EncodeItems returns the batch encoding of dims-dimensional items.
func EncodeItems(dims int, items []Item) []byte {
	w := wire.NewWriter(8 + len(items)*(dims*4+8))
	AppendItems(w, items)
	return w.Bytes()
}

// DecodeItems reads a batch of dims-dimensional items written by
// AppendItems. Every item occupies at least one byte per coordinate plus
// its 8-byte measure, so a count the remaining payload cannot hold is
// rejected before anything is allocated for it. All coordinate slices
// sub-slice one flat backing array, so a batch costs two allocations
// rather than one per item.
func DecodeItems(r *wire.Reader, dims int) ([]Item, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining())/uint64(dims+8) {
		return nil, fmt.Errorf("core: item batch claims %d items, payload holds at most %d", n, r.Remaining()/(dims+8))
	}
	flat := make([]uint64, int(n)*dims)
	items := make([]Item, n)
	for i := range items {
		coords := flat[:dims:dims]
		flat = flat[dims:]
		for d := range coords {
			coords[d] = r.Uvarint()
		}
		items[i] = Item{Coords: coords, Measure: r.Float64()}
		if r.Err() != nil {
			return nil, fmt.Errorf("core: item batch truncated at item %d: %w", i, r.Err())
		}
	}
	return items, nil
}
