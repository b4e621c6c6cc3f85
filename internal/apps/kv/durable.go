package kv

import "compmig/internal/store"

// Durability: every acked put logs a (partition, keyID, version) record
// at the partition's home, and the range-scan index logs node images
// (internal/apps/btree). Versions are absolute values, not increments,
// so replay is idempotent and a second wipe of the same processor
// recovers to the same state. Partition version maps start empty
// (version 0 = never written), so they seed nothing, and partitions
// never move.

// Record encodes key id's current version as a WAL record.
func (ps *partState) Record(id uint64) store.Record {
	return store.Record{Kind: store.KindState, G: ps.g, Sub: id, A: ps.vals[id]}
}

func (ps *partState) Seeds() []store.Record { return nil }

func (ps *partState) Apply(r store.Record) { ps.vals[r.Sub] = r.A }

func (ps *partState) Snapshot() []uint64 { panic("kv: partitions do not move") }

// Wipe models the crash on a storage processor: the partition's version
// map is discarded; the record-slot layout and shared-memory base are
// allocation metadata and survive.
func (ps *partState) Wipe() { ps.vals = make(map[uint64]uint64) }
