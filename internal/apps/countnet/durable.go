package countnet

import "compmig/internal/store"

// Durability: every balancer routing decision and counter take logs the
// object's full (tiny) state at its home processor. Records carry the
// absolute post-mutation values — visits/toggle for a balancer, next for
// a counter — so replay is idempotent and a second wipe of the same
// processor recovers to the same state. Move-in records (the
// object-migration scheme pulls balancers and counters between
// processors) carry the same values in the snapshot blob. A wipe loses
// the volatile state (toggle, visit count, dispensed position); the
// wiring spec, shared-memory address and identity are allocation
// metadata and survive.

// Record encodes the balancer's current state as a WAL record.
func (b *balancer) Record(uint64) store.Record {
	return store.Record{Kind: store.KindState, G: b.g, A: b.visits, B: b.tog()}
}

func (b *balancer) tog() uint64 {
	if b.toggle {
		return 1
	}
	return 0
}

// Seeds seeds the checkpoints with the built state.
func (b *balancer) Seeds() []store.Record { return []store.Record{b.Record(0)} }

func (b *balancer) Apply(r store.Record) {
	visits, tog := r.A, r.B
	if r.Kind == store.KindMoveIn {
		visits, tog = r.Blob[0], r.Blob[1]
	}
	b.visits, b.toggle = visits, tog != 0
}

func (b *balancer) Snapshot() []uint64 { return []uint64{b.visits, b.tog()} }

func (b *balancer) Wipe() { b.toggle, b.visits = false, 0 }

// Record encodes the counter's current state as a WAL record.
func (c *counter) Record(uint64) store.Record {
	return store.Record{Kind: store.KindState, G: c.g, A: c.next}
}

// Seeds seeds the checkpoints with the built state: counters start at
// their logical rank, not zero, so seeding is mandatory.
func (c *counter) Seeds() []store.Record { return []store.Record{c.Record(0)} }

func (c *counter) Apply(r store.Record) {
	next := r.A
	if r.Kind == store.KindMoveIn {
		next = r.Blob[0]
	}
	c.next = next
}

func (c *counter) Snapshot() []uint64 { return []uint64{c.next} }

func (c *counter) Wipe() { c.next = 0 }
