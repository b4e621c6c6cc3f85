package core

import (
	"fmt"

	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// laneState is one lane's slice of the runtime's mutable state: its
// statistics collector, its reply table, the arrival and wire-message
// pools and scratch codec of its message path, and the pooled
// activations and records of its walks. A serial runtime has exactly
// one lane; Shard gives every shard lane its own. Every field is
// touched only while that lane executes — reply slots are allocated,
// completed and waited on at the operation's originating processor,
// arrivals are taken and retired on the receiving processor,
// wire messages are taken by the sending lane and returned to the
// receiving lane's pool (see Runtime.release), and charges go to the
// collector of the processor doing the charging — so lanes never
// contend and never share a pooled record.
type laneState struct {
	col *stats.Collector

	replies []*replySlot // by reply id - 1: the slot live under the id, nil when none is
	issues  uint32       // reply slots issued, from 1; stamps replySlot.gen
	freeIDs []uint32
	slots   []*replySlot // settled slots whose waiter has read them

	rpcs []*rpcArrival
	migs []*migArrival
	rets []*replyArrival
	msgs []*network.Message // consumed wire messages, payload arrays kept

	acts    []*Task    // idle activations for Walk
	records [][]Walker // idle operation records, by walker type

	w msg.Writer // marshals outgoing payloads before they are copied out
	r msg.Reader // decodes reply words into the caller's record
}

func newLane(col *stats.Collector) laneState {
	return laneState{col: col}
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

// Shard routes the runtime over a lane cluster: cycle charges, message
// counters, reply tables and arrival pools become
// per-lane (cols, by lane index), so the lanes can execute concurrently
// within a synchronization window. The object space, method/continuation
// tables, and location hints stay shared — the first two are immutable
// after setup and the hints are per-processor maps each touched only by
// its own processor's stream. Sharding composes with neither fault
// injection nor object migration, whose state is global.
func (rt *Runtime) Shard(cl *sim.Cluster, cols []*stats.Collector) {
	if rt.Net.FaultInjector() != nil {
		panic("core: cannot shard a runtime with a fault injector attached")
	}
	if len(cols) != cl.Shards() {
		panic(fmt.Sprintf("core: %d lane collectors for %d shards", len(cols), cl.Shards()))
	}
	rt.cl = cl
	rt.lanes = make([]laneState, cl.Shards())
	for i := range rt.lanes {
		rt.lanes[i] = newLane(cols[i])
	}
}

// laneAt returns the state of processor proc's lane: the only lane on a
// serial runtime.
func (rt *Runtime) laneAt(proc int) *laneState {
	if rt.cl == nil {
		return &rt.lanes[0]
	}
	return &rt.lanes[rt.cl.LaneOf(proc)]
}

// colAt returns the collector charges from processor proc's stream go
// to: the lane collector under sharding, the runtime collector serially.
func (rt *Runtime) colAt(proc int) *stats.Collector { return rt.laneAt(proc).col }
