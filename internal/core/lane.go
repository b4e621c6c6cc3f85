package core

import (
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/stats"
)

// laneState is one lane's slice of the runtime's mutable state: its
// statistics collector, its reply table, the arrival and wire-message
// pools and scratch codec of its message path, and the pooled
// activations and records of its walks. The runtime has one per lane of
// its machine: exactly one on the serial engine. Every field is
// touched only while that lane executes — reply slots are allocated,
// completed and waited on at the operation's originating processor,
// arrivals are taken and retired on the receiving processor,
// wire messages are taken by the sending lane and returned to the
// receiving lane's pool (see Runtime.release), and charges go to the
// collector of the processor doing the charging — so lanes never
// contend and never share a pooled record.
//
// A laneState outlives its run: it is the records core keeps on its
// lane's engine (sim.Keep), so when the machine retires, Retire scrubs
// it and the next runtime built on a revived lane takes it back with its
// pools full, and New rebinds it. Its pooled records reach the runtime
// only through rt, so rebinding the lane rebinds them all.
type laneState struct {
	rt  *Runtime
	col *stats.Collector

	replies []*replySlot // by reply id - 1: the slot live under the id, nil when none is
	issues  uint32       // reply slots issued, from 1; stamps replySlot.gen
	freeIDs []uint32
	slots   []*replySlot // settled slots whose waiter has read them

	rpcs    []*rpcArrival
	migs    []*migArrival
	rets    []*replyArrival
	fetches []*fetchArrival
	moves   []*moveArrival
	fwds    []*forwarding
	msgs    []*network.Message // consumed wire messages, payload arrays kept

	acts    []*Task    // idle activations for Walk
	records [][]Walker // idle operation records, by walker type
	kept    []keptRecords

	w msg.Writer // marshals outgoing payloads before they are copied out
	r msg.Reader // decodes reply words into the caller's record
}

// keptRecords are the zeroed operation records of one walker type that
// an earlier run on the lane left, waiting for a runtime to register a
// walker type of the same name.
type keptRecords struct {
	name string
	recs []Walker
}

// adopt gives walker type id, registered under name, the lane's kept
// records of that name, each rebound by init, as its pool.
func (ls *laneState) adopt(id ContID, name string, init func(Walker)) {
	if n := int(id) + 1 - len(ls.records); n > 0 {
		ls.records = append(ls.records, make([][]Walker, n)...)
	}
	for i, k := range ls.kept {
		if k.name != name {
			continue
		}
		for _, w := range k.recs {
			init(w)
		}
		ls.records[id] = k.recs
		last := len(ls.kept) - 1
		ls.kept[i], ls.kept[last] = ls.kept[last], keptRecords{}
		ls.kept = ls.kept[:last]
		return
	}
}

// scratch returns the lane's marshaling Writer, emptied. Its words must
// be copied into a payload before the calling thread next blocks.
func (ls *laneState) scratch() *msg.Writer {
	ls.w.Reset()
	return &ls.w
}

// message takes a wire message of the given kind from src out of the
// lane's pool and copies words into its payload, reusing the pooled
// payload array. Callers copy the scratch writer's words here before
// the send segment's Exec parks the thread, and set Dst once they know
// it.
func (ls *laneState) message(src int, kind string, words []uint32) *network.Message {
	m := pop(&ls.msgs)
	if m == nil {
		m = new(network.Message)
	}
	*m = network.Message{Src: src, Kind: kind, Payload: append(m.Payload[:0], words...)}
	return m
}

// Retire scrubs the lane's state of its run when the machine retires:
// the runtime, the collector and the reply table go, the scratch reader
// lets go of the last reply it decoded, and each idle activation's
// child drops its runtime, thread and processor. Each operation record
// is zeroed and its pool kept under its walker type's name, since the
// next runtime may number its walker types differently. The other pools
// keep their records, which hold nothing of the run once they are
// pooled (see their put methods). Every pooled wire message's payload
// array grows to the largest one's capacity: the next run hands the
// messages out in another order, and a message whose array fits any
// payload the lane has carried is never grown again.
func (ls *laneState) Retire() int {
	words := 0
	for _, m := range ls.msgs {
		words = max(words, cap(m.Payload))
	}
	for _, m := range ls.msgs {
		if cap(m.Payload) < words {
			m.Payload = make([]uint32, 0, words)
		}
	}
	for id, recs := range ls.records {
		w := &ls.rt.conts[id]
		for _, r := range recs {
			w.reset(r)
		}
		ls.kept = append(ls.kept, keptRecords{name: w.name, recs: recs})
	}
	clear(ls.records)
	ls.records = ls.records[:0]
	ls.rt, ls.col = nil, nil
	clear(ls.replies)
	ls.replies, ls.freeIDs, ls.issues = ls.replies[:0], ls.freeIDs[:0], 0
	ls.r.Reset(nil)
	for _, a := range ls.acts {
		for c := a.child; c != nil; c = c.child {
			*c = Task{child: c.child}
		}
	}
	n := len(ls.slots) + len(ls.rpcs) + len(ls.migs) + len(ls.rets) + len(ls.fetches) +
		len(ls.moves) + len(ls.fwds) + len(ls.msgs) + len(ls.acts)
	for _, k := range ls.kept {
		n += len(k.recs)
	}
	return n
}

// laneAt returns the state of processor proc's lane.
func (rt *Runtime) laneAt(proc int) *laneState { return rt.lanes[rt.Mach.LaneOf(proc)] }

// ColAt returns the collector charges from processor proc's stream go
// to: the collector of proc's lane.
func (rt *Runtime) ColAt(proc int) *stats.Collector { return rt.laneAt(proc).col }
