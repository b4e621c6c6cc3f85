package store

import (
	"reflect"
	"testing"

	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/gid"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// harness is a tiny durable "app": per-object uint64 states addressed by
// (gid, sub), with a moved map standing in for object.Space mobility.
type harness struct {
	eng   *sim.Engine
	mach  *sim.Machine
	col   *stats.Collector
	st    *Store
	state map[ckptKey]uint64
	moved map[gid.GID]int
	wipes []int
}

func newHarness(t *testing.T, interval uint64) *harness {
	t.Helper()
	h := &harness{
		eng:   sim.NewEngine(1),
		col:   stats.NewCollector(),
		state: make(map[ckptKey]uint64),
		moved: make(map[gid.GID]int),
	}
	h.mach = sim.NewMachine(h.eng, 4)
	home := func(g gid.GID) int {
		if p, ok := h.moved[g]; ok {
			return p
		}
		return g.Home()
	}
	h.st = New(h.mach, h.col, cost.DefaultDurability(), interval, home)
	h.st.OnApply(func(r Record) {
		h.state[ckptKey{r.G, r.Sub}] = r.A
	})
	h.st.OnWipe(func(proc int) int {
		h.wipes = append(h.wipes, proc)
		for k := range h.state {
			if home(k.g) == proc {
				delete(h.state, k)
			}
		}
		return 1
	})
	return h
}

func (h *harness) put(th *sim.Thread, at int, g gid.GID, sub, v uint64) {
	h.state[ckptKey{g, sub}] = v
	h.st.Append(th, at, Record{Kind: KindState, G: g, Sub: sub, A: v})
}

func TestAppendChargesAndCounts(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(1, 1)
	var elapsed sim.Time
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 1, g, 0, 7)
		elapsed = th.Now()
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	d := cost.DefaultDurability()
	want := sim.Time(d.Append(headerWords))
	if elapsed != want {
		t.Errorf("synchronous append took %d cycles, want %d", elapsed, want)
	}
	if h.st.Counters.Appends != 1 || h.st.Counters.AppendWords != headerWords {
		t.Errorf("counters = %+v", h.st.Counters)
	}
	if got := h.col.SumCycles([]stats.Category{stats.CatDurability}); got != uint64(want) {
		t.Errorf("CatDurability = %d, want %d", got, want)
	}
}

func TestGroupCommitFsync(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(0, 1)
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		for i := uint64(0); i < 2*cost.DefaultDurability().GroupSize(); i++ {
			h.put(th, 0, g, i, i)
		}
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.st.Counters.Fsyncs != 2 {
		t.Errorf("fsyncs = %d, want 2", h.st.Counters.Fsyncs)
	}
}

// A remote-homed record (the shared-memory path) is charged at its home
// without blocking the appender.
func TestAppendRemoteHomeIsAsync(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(2, 1)
	var elapsed sim.Time
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 0, g, 0, 7) // appender on p0, record homed on p2
		elapsed = th.Now()
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Errorf("remote-homed append blocked the appender for %d cycles", elapsed)
	}
	if h.mach.Proc(2).Busy == 0 {
		t.Error("home processor was not charged")
	}
}

func TestCheckpointFoldsAndSupersedes(t *testing.T) {
	h := newHarness(t, 100)
	g := gid.Make(0, 1)
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 0, g, 5, 1)
		h.put(th, 0, g, 5, 2) // supersedes in the fold
		th.Sleep(200)         // cross the checkpoint interval
		h.put(th, 0, g, 6, 3) // triggers the fold
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.st.Counters.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", h.st.Counters.Checkpoints)
	}
	lg := h.st.logs[0]
	// The fold runs as part of the third append and covers it too: the
	// first two records collapse to one live entry, the third is its own.
	if len(lg.ckpt) != 2 || lg.ckpt[ckptKey{g, 5}].A != 2 || lg.ckpt[ckptKey{g, 6}].A != 3 {
		t.Errorf("checkpoint = %+v, want two entries with the superseding values", lg.ckpt)
	}
	if len(lg.suffix) != 0 {
		t.Errorf("suffix has %d records, want 0", len(lg.suffix))
	}
	if h.st.Counters.CheckpointWords != 2*headerWords {
		t.Errorf("checkpoint words = %d, want %d", h.st.Counters.CheckpointWords, 2*headerWords)
	}
}

func TestWipeRecoversCheckpointAndSuffix(t *testing.T) {
	h := newHarness(t, 100)
	g := gid.Make(1, 1)
	h.st.Seed(Record{Kind: KindState, G: g, Sub: 0, A: 10})
	h.state[ckptKey{g, 0}] = 10
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 1, g, 1, 20)
	})
	h.st.ScheduleRecovery(h.eng, []fault.Window{
		{Proc: 1, Start: 500, Dur: 100, Wipe: true},
		{Proc: 3, Start: 600, Dur: 100}, // plain crash: no recovery event
	})
	h.mach.Proc(1).AddDownWindow(500, 600)
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.wipes, []int{1}) {
		t.Fatalf("wipe hooks ran for %v, want [1]", h.wipes)
	}
	if h.state[ckptKey{g, 0}] != 10 || h.state[ckptKey{g, 1}] != 20 {
		t.Errorf("post-recovery state = %+v", h.state)
	}
	c := h.st.Counters
	if c.Wipes != 1 || c.Restores != 1 || c.Replays != 1 || c.Reregistered != 1 {
		t.Errorf("recovery counters = %+v", c)
	}
	if c.RecoveryCycles == 0 {
		t.Error("recovery charged no cycles")
	}
	// The recovery work was booked on the wiped processor past the down
	// window: its free point must be after the window end.
	if h.mach.Proc(1).FreeAt() <= 600 {
		t.Errorf("recovery not serialized after the window: free at %d", h.mach.Proc(1).FreeAt())
	}
}

// An object that moved away is not replayed at its old home; its
// move-in snapshot recovers it at the new home.
func TestMoveRecordsFollowTheObject(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(0, 1)
	h.st.OnSnapshot(func(gg gid.GID) []uint64 { return []uint64{h.state[ckptKey{gg, 0}]} })
	h.st.OnApply(func(r Record) {
		if r.Kind == KindMoveIn {
			h.state[ckptKey{r.G, 0}] = r.Blob[0]
			return
		}
		h.state[ckptKey{r.G, r.Sub}] = r.A
	})
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 0, g, 0, 5)
		// Move p0 -> p2, as object.Space would: update homes, then journal.
		h.moved[g] = 2
		h.st.ObjectMove(g, 0, 2)
		h.state[ckptKey{g, 0}] = 6
		h.st.Append(th, 2, Record{Kind: KindState, G: g, Sub: 0, A: 6})
	})
	h.st.ScheduleRecovery(h.eng, []fault.Window{
		{Proc: 0, Start: 1000, Dur: 10, Wipe: true},
		{Proc: 2, Start: 2000, Dur: 10, Wipe: true},
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// p0's recovery must skip g entirely (home filter); p2's must land on
	// the final value via move-in + state replay.
	if h.state[ckptKey{g, 0}] != 6 {
		t.Errorf("post-recovery state = %+v, want 6", h.state)
	}
	if h.st.Counters.Wipes != 2 {
		t.Errorf("wipes = %d, want 2", h.st.Counters.Wipes)
	}
}

func TestScriptDropAppendLosesTheWrite(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(0, 1)
	h.st.ScriptDropAppend(2)
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 0, g, 1, 1)
		h.put(th, 0, g, 2, 2) // vanishes before the log
		h.put(th, 0, g, 3, 3)
	})
	h.st.ScheduleRecovery(h.eng, []fault.Window{{Proc: 0, Start: 1000, Dur: 10, Wipe: true}})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.st.Counters.AppendDropped != 1 {
		t.Fatalf("append-drop hook fired %d times", h.st.Counters.AppendDropped)
	}
	if _, ok := h.state[ckptKey{g, 2}]; ok {
		t.Error("dropped write survived the wipe")
	}
	if h.state[ckptKey{g, 1}] != 1 || h.state[ckptKey{g, 3}] != 3 {
		t.Errorf("durable writes lost: %+v", h.state)
	}
}

func TestScriptDropReplaySkipsTheRecord(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(0, 1)
	h.st.ScriptDropReplay(1)
	h.eng.Spawn("w", 0, func(th *sim.Thread) {
		h.put(th, 0, g, 1, 1)
		h.put(th, 0, g, 2, 2)
	})
	h.st.ScheduleRecovery(h.eng, []fault.Window{{Proc: 0, Start: 1000, Dur: 10, Wipe: true}})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.st.Counters.ReplayDropped != 1 || h.st.Counters.Replays != 1 {
		t.Fatalf("replay counters = %+v", h.st.Counters)
	}
	if _, ok := h.state[ckptKey{g, 1}]; ok {
		t.Error("dropped replay record was applied anyway")
	}
	if h.state[ckptKey{g, 2}] != 2 {
		t.Errorf("surviving record not applied: %+v", h.state)
	}
}

// Two identical runs produce identical counters and identical state —
// the recovery path consumes no randomness.
func TestRecoveryDeterministic(t *testing.T) {
	run := func() (Counters, map[ckptKey]uint64) {
		h := newHarness(t, 150)
		h.eng.Spawn("w", 0, func(th *sim.Thread) {
			for i := uint64(0); i < 40; i++ {
				h.put(th, 0, gid.Make(0, uint32(1+i%3)), i%5, i)
				th.Sleep(17)
			}
		})
		h.st.ScheduleRecovery(h.eng, []fault.Window{{Proc: 0, Start: 300, Dur: 50, Wipe: true}})
		h.mach.Proc(0).AddDownWindow(300, 350)
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return h.st.Counters, h.state
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Errorf("counters diverged:\n%+v\n%+v", c1, c2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("state diverged")
	}
}

func TestJournalKinds(t *testing.T) {
	h := newHarness(t, 0)
	g := gid.Make(1, 1)
	h.st.ObjectNew(g, 1)
	h.st.ReplicaDrop(g, 1)
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	lg := h.st.logs[1]
	if len(lg.suffix) != 2 || lg.suffix[0].Kind != KindCreate || lg.suffix[1].Kind != KindDrop {
		t.Fatalf("journal suffix = %+v", lg.suffix)
	}
	// Structural records replay as accounting only: no Apply calls.
	h.st.OnApply(func(r Record) { t.Errorf("unexpected Apply(%+v)", r) })
	h.st.recoverProc(1)
	if h.st.Counters.Replays != 2 {
		t.Errorf("replays = %d, want 2", h.st.Counters.Replays)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCreate: "create", KindState: "state", KindMoveOut: "move-out",
		KindMoveIn: "move-in", KindDrop: "drop", Kind(99): "Kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
