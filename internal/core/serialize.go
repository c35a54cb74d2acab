package core

import (
	"errors"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/wire"
)

// shardMagic guards against decoding unrelated blobs as shards.
const shardMagic = "VOLAPSHARD1"

// Serialize flattens the tree store into a binary blob (§III-E
// SerializeShard): configuration, schema, and all items.
func (t *tree) Serialize() []byte { return serializeStore(t) }

// serializeStore implements Serialize for any store by streaming items.
func serializeStore(s Store) []byte {
	cfg := s.Config()
	items := make([]Item, 0, s.Count())
	s.Items(func(it Item) bool {
		items = append(items, it)
		return true
	})

	w := wire.NewWriter(64 + len(items)*(cfg.Schema.NumDims()*4+8))
	w.String(shardMagic)
	w.Uint8(uint8(cfg.Store))
	w.Uint8(uint8(cfg.Keys))
	w.Uvarint(uint64(cfg.MDSCap))
	w.Uvarint(uint64(cfg.LeafCapacity))
	w.Uvarint(uint64(cfg.DirCapacity))
	w.Uint8(uint8(cfg.SplitPolicy))
	cfg.Schema.Encode(w)
	w.Uint64(cfg.Schema.Fingerprint())
	AppendItems(w, items)
	return w.Bytes()
}

// DeserializeStore rebuilds a store from a Serialize blob (§III-E
// DeserializeShard). The data is bulk-loaded, so a deserialized Hilbert
// PDC tree comes back packed. Bytes beyond the store's own fields are
// ignored, so composite blobs (store + rollup trailer) decode too.
func DeserializeStore(b []byte) (Store, error) {
	s, _, err := DeserializeStoreTrailer(b)
	return s, err
}

// DeserializeStoreTrailer is DeserializeStore returning any bytes the
// blob carries beyond the serialized store — the rollup trailer of a
// composite shard image, empty for a plain store blob.
func DeserializeStoreTrailer(b []byte) (Store, []byte, error) {
	r := wire.NewReader(b)
	if r.String() != shardMagic {
		return nil, nil, errors.New("core: not a serialized shard")
	}
	cfg := Config{
		Store:        StoreKind(r.Uint8()),
		Keys:         keys.Kind(r.Uint8()),
		MDSCap:       int(r.Uvarint()),
		LeafCapacity: int(r.Uvarint()),
		DirCapacity:  int(r.Uvarint()),
		SplitPolicy:  SplitPolicy(r.Uint8()),
	}
	schema, err := hierarchy.DecodeSchema(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard schema: %w", err)
	}
	cfg.Schema = schema
	if fp := r.Uint64(); fp != schema.Fingerprint() {
		return nil, nil, errors.New("core: shard schema fingerprint mismatch")
	}
	if cfg.LeafCapacity > 1<<20 || cfg.DirCapacity > 1<<20 || cfg.MDSCap > 1<<20 {
		return nil, nil, errors.New("core: implausible shard configuration")
	}
	items, err := DecodeItems(r, schema.NumDims())
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard items: %w", err)
	}
	s, err := NewStore(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.BulkLoad(items); err != nil {
		return nil, nil, err
	}
	return s, b[len(b)-r.Remaining():], nil
}
