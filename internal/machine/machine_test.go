package machine

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"compmig/internal/core"
	"compmig/internal/fault"
	"compmig/internal/gid"
	"compmig/internal/policy"
	"compmig/internal/profile"
	"compmig/internal/sim"
	"compmig/internal/store"
)

// TestShardFallbackNotice pins the loud-fallback contract: a run that
// requests the sharded engine but is not eligible for it bumps the
// profile counter and emits a one-line notice naming the disqualifying
// feature; an eligible run emits nothing.
func TestShardFallbackNotice(t *testing.T) {
	var buf bytes.Buffer
	old := FallbackNotice
	FallbackNotice = &buf
	defer func() { FallbackNotice = old }()

	cfg := Config{Scheme: core.Scheme{Mechanism: core.SharedMem}, Seed: 1, Shards: 4}
	before := profile.ShardFallbacks.Count.Load()
	m := New("countnet", cfg, 8)
	if m.cl != nil {
		t.Fatal("ineligible configuration built a cluster")
	}
	m.Mach.Proc(3).Spawn("requester", 10, func(th *sim.Thread) { m.Col(3).CountOp(1) })
	var r Result
	if m.Run(&r); r.Ops == 0 {
		t.Fatal("fallback run did nothing")
	}
	if got := profile.ShardFallbacks.Count.Load() - before; got != 1 {
		t.Errorf("fallback counter advanced by %d, want 1", got)
	}
	notice := buf.String()
	if !strings.Contains(notice, "shards=4 ignored") || !strings.Contains(notice, "SM") {
		t.Errorf("notice %q does not name the shard count and the disqualifying scheme", notice)
	}
	if strings.Count(notice, "\n") != 1 {
		t.Errorf("notice is not one line: %q", notice)
	}

	// An eligible configuration runs clustered: no notice, no counter.
	buf.Reset()
	before = profile.ShardFallbacks.Count.Load()
	cfg.Scheme = core.Scheme{Mechanism: core.Migrate}
	if New("countnet", cfg, 8).cl == nil {
		t.Error("eligible configuration did not build a cluster")
	}
	if buf.Len() != 0 {
		t.Errorf("eligible run emitted a notice: %q", buf.String())
	}
	if got := profile.ShardFallbacks.Count.Load() - before; got != 0 {
		t.Errorf("eligible run advanced the fallback counter by %d", got)
	}
}

// TestIneligibleReasonNamesFeature checks each disqualifying feature is
// named by the reason string.
func TestIneligibleReasonNamesFeature(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Scheme: core.Scheme{Mechanism: core.SharedMem}}, "SM"},
		{Config{Scheme: core.Scheme{Mechanism: core.ObjMigrate}}, "OM"},
		{Config{Scheme: core.Scheme{Mechanism: core.Migrate, Replication: true}}, "replication"},
		{Config{Scheme: core.Scheme{Mechanism: core.RPC}, Policy: "costmodel"}, "policy"},
		{Config{Scheme: core.Scheme{Mechanism: core.RPC}, Faults: &fault.Spec{Drop: 0.1}}, "fault"},
		{Config{Scheme: core.Scheme{Mechanism: core.RPC}, TraceCap: 10}, "trac"},
	}
	for _, c := range cases {
		if got := c.cfg.ineligible(); !strings.Contains(got, c.want) {
			t.Errorf("ineligible(%+v) = %q, want it to mention %q", c.cfg, got, c.want)
		}
	}
}

func TestTopologyHelper(t *testing.T) {
	if topology(false, 30).Name() != "crossbar" {
		t.Error("default topology not crossbar")
	}
	m := topology(true, 30)
	if m.Name() == "crossbar" {
		t.Error("mesh not selected")
	}
	// The mesh must cover all 30 procs (6x5 or larger).
	if m.Hops(0, 29) == 0 {
		t.Error("mesh distance degenerate")
	}
}

// TestWindowedThroughputAndBandwidth pins the window arithmetic on the
// serial engine and on a two-lane cluster, where each lane counts half
// of the traffic: 5 operations and 100 words before the window opens at
// cycle 1000, then 20 operations and 500 words inside the 10000-cycle
// window.
func TestWindowedThroughputAndBandwidth(t *testing.T) {
	for _, shards := range []int{0, 2} {
		m := New("test", Config{Scheme: core.Scheme{Mechanism: core.Migrate}, Seed: 1, Shards: shards}, 2)
		for p := 0; p < 2; p++ {
			col := m.Col(p)
			m.Mach.Proc(p).Spawn("counter", 0, func(th *sim.Thread) {
				for i := 0; i < 5; i++ {
					if i%2 == p {
						col.CountOp(10)
					}
				}
				col.CountMessage(50)
				th.Sleep(2000)
				for i := 0; i < 10; i++ {
					col.CountOp(10)
				}
				col.CountMessage(250)
			})
		}
		var tput, bw float64
		m.Window(1000, 11000, &tput, &bw)
		var r Result
		m.Run(&r)
		if tput != 2.0 {
			t.Errorf("shards=%d: throughput = %v, want 2.0 ops/1000cyc", shards, tput)
		}
		if bw != 0.5 {
			t.Errorf("shards=%d: bandwidth = %v, want 0.5 words/10cyc", shards, bw)
		}
		if r.Ops != 25 {
			t.Errorf("shards=%d: merged ops = %d, want 25", shards, r.Ops)
		}
	}
}

func TestZeroWindowSafe(t *testing.T) {
	m := New("test", Config{Seed: 1}, 1)
	tput, bw := -1.0, -1.0
	m.Window(100, 100, &tput, &bw)
	m.Run(&Result{})
	if tput != -1 || bw != -1 {
		t.Errorf("zero-length window stored rates %v, %v", tput, bw)
	}
}

// TestCheckWindowsBounds pins the processor-range check that CLIs run
// on a fault plan and New panics on.
func TestCheckWindowsBounds(t *testing.T) {
	plan := &fault.Spec{Windows: []fault.Window{{Proc: 7, Start: 10, Dur: 5}}}
	if err := CheckWindows(plan, 8); err != nil {
		t.Errorf("in-range window rejected: %v", err)
	}
	err := CheckWindows(plan, 7)
	if err == nil || err.Error() != "fault window targets proc 7, machine has [0,7)" {
		t.Errorf("out-of-range window: got %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.HasPrefix(r.(string), "kv: fault window targets proc 7") {
			t.Errorf("New panic = %v", r)
		}
	}()
	New("kv", Config{Seed: 1, Faults: plan}, 7)
}

// cell is a durable test object holding one value, logged whole; Wipe
// notes its GID in a shared list.
type cell struct {
	g     gid.GID
	v     uint64
	wiped *[]gid.GID
}

func (c *cell) Record(uint64) store.Record {
	return store.Record{Kind: store.KindState, G: c.g, A: c.v}
}
func (c *cell) Seeds() []store.Record { return []store.Record{c.Record(0)} }
func (c *cell) Apply(r store.Record)  { c.v = r.A }
func (c *cell) Snapshot() []uint64    { return []uint64{c.v} }
func (c *cell) Wipe()                 { *c.wiped = append(*c.wiped, c.g); c.v = 0 }

// noPolicy is an app with no call sites.
type noPolicy struct{}

func (noPolicy) AttachPolicy(*policy.Engine) {}

// TestAttachDispatchesDurability checks the store hooks Attach installs:
// a wipe resets exactly the objects homed on the wiped processor, in
// creation order, and recovery rebuilds each from its seed plus what
// Task.Log appended, so a logged write survives and an unlogged one is
// lost.
func TestAttachDispatchesDurability(t *testing.T) {
	spec, err := fault.ParseSpec("wipe=p1@1000+100")
	if err != nil {
		t.Fatal(err)
	}
	m := New("test", Config{Seed: 1, Scheme: core.Scheme{Mechanism: core.RPC}, Faults: spec}, 3)
	var wiped []gid.GID
	homes := []int{1, 0, 1, 2, 1}
	cells := make([]*cell, len(homes))
	for i, h := range homes {
		cells[i] = &cell{v: uint64(10 + i), wiped: &wiped}
		cells[i].g = m.RT.Objects.New(h, cells[i])
	}
	m.Attach(noPolicy{})
	m.Mach.Proc(1).Spawn("writer", 10, func(th *sim.Thread) {
		cells[2].v = 99
		m.RT.NewTask(th, 1).Log(0, cells[2])
		cells[4].v = 77
	})
	var r Result
	m.Run(&r)
	if want := []gid.GID{cells[0].g, cells[2].g, cells[4].g}; !slices.Equal(wiped, want) {
		t.Errorf("wiped %v, want the proc-1 objects in creation order %v", wiped, want)
	}
	for i, want := range []uint64{10, 11, 99, 13, 14} {
		if cells[i].v != want {
			t.Errorf("cell %d = %d after recovery, want %d", i, cells[i].v, want)
		}
	}
	if r.Recovery == nil || r.Recovery.Wipes != 1 || r.Recovery.Appends != 1 {
		t.Errorf("recovery counters %+v, want one wipe and one append", r.Recovery)
	}
}
