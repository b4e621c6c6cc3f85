package btree

import (
	"compmig/internal/gid"
	"compmig/internal/store"
)

// Durability: every committed node mutation logs the node's full image
// into its home processor's WAL (internal/store), so a wipe fault can
// discard node contents and recovery rebuilds them from checkpoint +
// suffix. Full images rather than deltas keep replay idempotent — a
// second wipe of the same processor replays to the same state — at a
// log-bandwidth cost the cycle model charges like any other work.

// encodeNode flattens a node's durable content into log words. The
// layout is versionless and self-sizing: flags, bounds, key count, keys,
// then children for interior nodes. Identity (g), the writer lock, and
// the shared-memory layout addresses are deliberately excluded: they are
// allocation metadata the wipe model preserves, not replayable state.
func encodeNode(nd *node) []uint64 {
	flags := uint64(0)
	if nd.leaf {
		flags |= 1
	}
	if nd.kidsAreLeaves {
		flags |= 2
	}
	blob := make([]uint64, 0, 4+len(nd.keys)+len(nd.children))
	blob = append(blob, flags, nd.high, uint64(nd.right), uint64(len(nd.keys)))
	blob = append(blob, nd.keys...)
	if !nd.leaf {
		for _, ch := range nd.children {
			blob = append(blob, uint64(ch))
		}
	}
	return blob
}

// decodeNodeInto reinstalls an encoded image into nd in place,
// preserving identity, lock state, and shared-memory addresses.
func decodeNodeInto(nd *node, blob []uint64) {
	flags := blob[0]
	nd.leaf = flags&1 != 0
	nd.kidsAreLeaves = flags&2 != 0
	nd.high = blob[1]
	nd.right = gid.GID(blob[2])
	n := int(blob[3])
	nd.keys = append(nd.keys[:0], blob[4:4+n]...)
	nd.children = nd.children[:0]
	if !nd.leaf {
		for _, w := range blob[4+n : 4+2*n] {
			nd.children = append(nd.children, gid.GID(w))
		}
	}
}

// Record builds the WAL image record for the node's current content.
func (nd *node) Record(uint64) store.Record {
	return store.Record{Kind: store.KindState, G: nd.g, Blob: encodeNode(nd)}
}

// Seeds installs a base image of the built node into its home
// checkpoint.
func (nd *node) Seeds() []store.Record { return []store.Record{nd.Record(0)} }

// Apply reinstalls one logged node image during recovery replay.
// KindState and KindMoveIn records both carry full images.
func (nd *node) Apply(r store.Record) { decodeNodeInto(nd, r.Blob) }

// Snapshot encodes the node's state for a move-in record (object-
// migration schemes pull nodes across processors while durable).
func (nd *node) Snapshot() []uint64 { return encodeNode(nd) }

// Wipe models the crash: the node's contents are discarded. Recovery
// replay (store.Store) reinstalls the images; node identity, locks, and
// shared-memory layout addresses survive, as allocation metadata would
// in a system that recovers in place.
func (nd *node) Wipe() {
	nd.keys = nil
	nd.children = nil
	nd.right = gid.Nil
	nd.high = 0
	nd.leaf = false
	nd.kidsAreLeaves = false
}
