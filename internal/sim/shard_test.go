package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// runSyntheticCluster drives a small message-passing workload on a
// clustered machine and returns one event log per processor. Each
// processor's log is appended only while its own lane executes, so the
// logs are race-free under parallel lane drivers and — the property
// under test — must be identical at every shard count.
func runSyntheticCluster(t *testing.T, shards int) [][]string {
	t.Helper()
	const nprocs, lookahead = 8, 10
	cl := newCluster(t, 42, shards)
	mach := cl.NewMachine(nprocs)
	cl.SetLookahead(lookahead)
	logs := make([][]string, nprocs)

	// send routes like the network layer: same-lane messages
	// through the lane's own heap, cross-lane messages through the
	// cluster's timestamp-ordered channel.
	send := func(src *Proc, delay Time, dst int, tag string) {
		eng := src.Engine()
		fn := func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("t=%d %s", mach.Proc(dst).Engine().Now(), tag))
		}
		if mach.LaneOf(src.ID()) == mach.LaneOf(dst) {
			eng.ScheduleOn(delay, dst, fn)
			return
		}
		eng.CrossSend(delay, dst, fn)
	}

	for p := 0; p < nprocs; p++ {
		p := p
		mach.Proc(p).Spawn("worker", Time(p), func(th *Thread) {
			for i := 0; i < 6; i++ {
				th.Exec(mach.Proc(p), uint64(3+p%3))
				send(mach.Proc(p), Time(lookahead+i), (p+3)%nprocs, fmt.Sprintf("msg %d.%d from p%d", p, i, p))
				th.Sleep(Time(5 + (p+i)%4))
			}
		})
	}
	cl.AtBarrier(40, func() {
		for p := range logs {
			logs[p] = append(logs[p], "barrier@40")
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatalf("shards=%d: Run: %v", shards, err)
	}
	return logs
}

// TestClusterShardCountIdentity pins the engine-level determinism
// contract: per-processor event orderings do not depend on how
// processors are grouped into lanes.
func TestClusterShardCountIdentity(t *testing.T) {
	base := runSyntheticCluster(t, 1)
	for _, shards := range []int{2, 3, 4, 8} {
		got := runSyntheticCluster(t, shards)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d: per-proc logs diverged from shards=1:\n 1: %v\n %d: %v", shards, base, shards, got)
		}
	}
}

// TestClusterBarrierOrder checks barrier callbacks fire in registration
// order once every lane has passed the barrier time, with all lane
// clocks aligned to it.
func TestClusterBarrierOrder(t *testing.T) {
	cl := newCluster(t, 1, 2)
	mach := cl.NewMachine(4)
	cl.SetLookahead(5)
	for p := 0; p < 4; p++ {
		p := p
		mach.Proc(p).Spawn("w", 0, func(th *Thread) { th.Exec(mach.Proc(p), 100) })
	}
	var order []string
	cl.AtBarrier(50, func() {
		order = append(order, "first")
		for i := range cl.lanes {
			if now := cl.lanes[i].Now(); now != 50 {
				t.Errorf("lane %d clock at barrier: %d, want 50", i, now)
			}
		}
	})
	cl.AtBarrier(50, func() { order = append(order, "second") })
	cl.AtBarrier(20, func() { order = append(order, "early") })
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"early", "first", "second"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("barrier order %v, want %v", order, want)
	}
}

// TestClusterDeadlockReported checks a thread that can never be woken
// surfaces as a deadlock error, as on the serial engine.
func TestClusterDeadlockReported(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cl := newCluster(t, 1, shards)
		mach := cl.NewMachine(4)
		cl.SetLookahead(5)
		fut := &Future{}
		mach.Proc(2).Spawn("stuck", 0, func(th *Thread) { fut.Wait(th) })
		if err := cl.Run(); err == nil {
			t.Errorf("shards=%d: Run returned nil for a parked-forever thread", shards)
		}
	}
}

// TestCrossSendBelowLookaheadPanics pins the conservative protocol's
// precondition: no cross-lane message may undercut the lookahead.
func TestCrossSendBelowLookaheadPanics(t *testing.T) {
	cl := newCluster(t, 1, 2)
	mach := cl.NewMachine(4)
	cl.SetLookahead(10)
	defer func() {
		if recover() == nil {
			t.Error("CrossSend below the lookahead did not panic")
		}
	}()
	mach.Proc(0).Engine().CrossSend(9, 3, func() {})
}

// TestClusterMachineShape checks lane assignment is contiguous and
// covers every processor, and that misuse panics.
func TestClusterMachineShape(t *testing.T) {
	cl := newCluster(t, 1, 3)
	mach := cl.NewMachine(8)
	if mach.N() != 8 {
		t.Fatalf("machine has %d procs, want 8", mach.N())
	}
	prev := 0
	for p := 0; p < 8; p++ {
		l := mach.LaneOf(p)
		if l < prev || l >= mach.Lanes() {
			t.Errorf("proc %d on lane %d after lane %d: lanes must be contiguous", p, l, prev)
		}
		prev = l
	}
	total := 0
	for i, g := range cl.Groups() {
		if len(g) == 0 {
			t.Errorf("lane %d owns no processors", i)
		}
		total += len(g)
	}
	if total != 8 {
		t.Errorf("groups cover %d processors, want 8", total)
	}
	defer func() {
		if recover() == nil {
			t.Error("second NewMachine on one cluster did not panic")
		}
	}()
	cl.NewMachine(8)
}
