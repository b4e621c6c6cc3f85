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

// Table tracks which objects are replicated and their current snapshot.
type Table struct {
	rt      *core.Runtime
	entries map[gid.GID]any

	// ReadCycles is the local cost charged per replica read (a cached
	// table lookup); calibrated small, like a handful of loads.
	ReadCycles uint64
}

// NewTable returns an empty replication table for rt.
func NewTable(rt *core.Runtime) *Table {
	return &Table{rt: rt, entries: make(map[gid.GID]any), ReadCycles: 10}
}

// Replicate starts replicating object g. state is the snapshot every
// processor reads.
func (tb *Table) Replicate(g gid.GID, state any) {
	if _, dup := tb.entries[g]; dup {
		panic("repl: object already replicated")
	}
	tb.entries[g] = state
}

// IsReplicated reports whether g has local replicas.
func (tb *Table) IsReplicated(g gid.GID) bool {
	_, ok := tb.entries[g]
	return ok
}

// Read returns the local replica of g's state, charging only local
// lookup cycles. It may be called from any processor.
func (tb *Table) Read(t *core.Task, g gid.GID) any {
	state, ok := tb.entries[g]
	if !ok {
		panic("repl: Read of unreplicated object")
	}
	tb.rt.Col.ReplicaReads++
	t.Work(tb.ReadCycles)
	return state
}

// Publish installs a new snapshot of g and broadcasts version updates to
// every other processor. The publisher pays the send path once per
// destination; each destination pays a receive path asynchronously.
func (tb *Table) Publish(t *core.Task, g gid.GID, state any, sizeWords uint64) {
	if _, ok := tb.entries[g]; !ok {
		panic("repl: Publish of unreplicated object")
	}
	rt := tb.rt
	rt.Col.ReplicaWrites++
	tb.entries[g] = state

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
