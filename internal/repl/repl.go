// Package repl implements software replication of hot objects, after the
// multi-version memory scheme of Weihl and Wang [WW90] that the paper
// uses to replicate the B-tree root ("w/repl." rows in Tables 1-4).
//
// A replicated object's state is readable on every processor at local
// cost — no messages, no directory traffic — which removes the resource
// contention that otherwise bottlenecks both RPC and computation
// migration at the root. Writes are rare (root splits); each write
// publishes a new version and broadcasts an update to every processor,
// priced through the same software messaging model as everything else.
package repl

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/network"
)

type entry struct {
	version   uint64
	state     any
	sizeWords uint64
}

// Table tracks which objects are replicated and their current version.
type Table struct {
	rt      *core.Runtime
	entries map[gid.GID]*entry

	// ReadCycles is the local cost charged per replica read (a cached
	// table lookup); calibrated small, like a handful of loads.
	ReadCycles uint64

	// journal, when set, observes replication drops (see Journal).
	journal Journal
}

// Journal observes replication-table events a durability layer must
// survive: dropping an object's replicas changes which mechanism owns
// its state, so the switch itself is logged at the object's home.
type Journal interface {
	ReplicaDrop(g gid.GID, home int)
}

// SetJournal installs (or clears, with nil) the table's journal.
func (tb *Table) SetJournal(j Journal) { tb.journal = j }

// NewTable returns an empty replication table for rt.
func NewTable(rt *core.Runtime) *Table {
	return &Table{rt: rt, entries: make(map[gid.GID]*entry), ReadCycles: 10}
}

// Replicate starts replicating object g. state is the snapshot every
// processor reads; sizeWords is its wire size, used to price update
// broadcasts.
func (tb *Table) Replicate(g gid.GID, state any, sizeWords uint64) {
	if _, dup := tb.entries[g]; dup {
		panic("repl: object already replicated")
	}
	tb.entries[g] = &entry{version: 1, state: state, sizeWords: sizeWords}
}

// Drop stops replicating g, returning the final snapshot and its
// version so the caller can seed whatever mechanism takes over (e.g. a
// policy switching the object from replication to migration mid-run).
// Subsequent Reads of g panic; in-flight update broadcasts are
// unaffected — they only adjust per-processor accounting.
//
//simvet:allow replication's switch back to migration, journaled as a ReplicaDrop record; TestDropSwitchesToMigrationMidRun runs it, no experiment does yet (ROADMAP item 10)
func (tb *Table) Drop(g gid.GID) (state any, version uint64) {
	e, ok := tb.entries[g]
	if !ok {
		panic("repl: Drop of unreplicated object")
	}
	delete(tb.entries, g)
	if tb.journal != nil {
		tb.journal.ReplicaDrop(g, tb.rt.Objects.Home(g))
	}
	return e.state, e.version
}

// IsReplicated reports whether g has local replicas.
func (tb *Table) IsReplicated(g gid.GID) bool {
	_, ok := tb.entries[g]
	return ok
}

// Read returns the local replica of g's state, charging only local
// lookup cycles. It may be called from any processor.
func (tb *Table) Read(t *core.Task, g gid.GID) any {
	e, ok := tb.entries[g]
	if !ok {
		panic("repl: Read of unreplicated object")
	}
	tb.rt.Col.ReplicaReads++
	t.Work(tb.ReadCycles)
	return e.state
}

// Publish installs a new snapshot of g and broadcasts version updates to
// every other processor. The publisher pays the send path once per
// destination; each destination pays a receive path asynchronously.
func (tb *Table) Publish(t *core.Task, g gid.GID, state any, sizeWords uint64) {
	e, ok := tb.entries[g]
	if !ok {
		panic("repl: Publish of unreplicated object")
	}
	rt := tb.rt
	rt.Col.ReplicaWrites++
	e.version++
	e.state = state
	e.sizeWords = sizeWords

	self := t.Proc()
	for p := 0; p < rt.Mach.N(); p++ {
		if p == self {
			continue
		}
		words := sizeWords + network.HeaderWords
		t.Thread().Exec(rt.Mach.Proc(self), rt.ChargeSendPath(words))
		dst := p
		// The receiver prices the update from words and reads nothing, so
		// the snapshot is charged on the wire without being materialized.
		rt.Net.Send(&network.Message{Src: self, Dst: dst, Kind: "repl-update", ExtraWords: sizeWords},
			func(m *network.Message) {
				rt.Mach.Proc(dst).ExecAsync(rt.ChargeRecvReplyPath(words), nil)
			})
	}
}
