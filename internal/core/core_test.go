package core

import (
	"testing"

	"compmig/internal/cost"
	"compmig/internal/gid"
	"compmig/internal/msg"
	"compmig/internal/network"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// rig is a small machine with one "cell" object per processor.
type rig struct {
	eng *sim.Engine
	m   *sim.Machine
	col *stats.Collector
	rt  *Runtime

	cells  []gid.GID
	mGet   MethodID
	mAdd   MethodID
	mShort MethodID
	cSum   ContID
	cCall  ContID
}

type cell struct {
	val   uint64
	reads int
}

// cellArg / cellReply are the marshaled argument and result records the
// stub compiler would generate.
type cellArg struct{ delta uint64 }

func (a *cellArg) MarshalWords(w *msg.Writer)         { w.PutU64(a.delta) }
func (a *cellArg) UnmarshalWords(r *msg.Reader) error { a.delta = r.U64(); return r.Err() }

type cellReply struct{ val uint64 }

func (a *cellReply) MarshalWords(w *msg.Writer)         { w.PutU64(a.val) }
func (a *cellReply) UnmarshalWords(r *msg.Reader) error { a.val = r.U64(); return r.Err() }

// sumCont is an operation record: it visits a list of cells in order,
// accumulating their values, and under computation migration migrates
// to each cell's home processor. buf is state of the caller's that rides
// along with the record unread: a whole caller frame, or a thread's
// stack.
type sumCont struct {
	r     *rig
	idx   uint32
	cells []gid.GID
	res   cellReply // the running sum
	buf   []uint32
}

// MarshalWords ships only the live variables: the cells not yet visited
// and the running sum — consumed prefix entries are dead and stay home.
func (c *sumCont) MarshalWords(w *msg.Writer) {
	rest := c.cells[c.idx:]
	w.PutU32(uint32(len(rest)))
	for _, g := range rest {
		w.PutU64(uint64(g))
	}
	w.PutU64(c.res.val)
	w.PutU32s(c.buf)
}

func (c *sumCont) UnmarshalWords(r *msg.Reader) error {
	c.idx = 0
	c.cells = make([]gid.GID, int(r.U32()))
	for i := range c.cells {
		c.cells[i] = gid.GID(r.U64())
	}
	c.res.val = r.U64()
	c.buf = r.U32s()
	return r.Err()
}

func (c *sumCont) At() gid.GID    { return c.cells[c.idx] }
func (c *sumCont) Result() Result { return &c.res }

func (c *sumCont) Visit(t *Task, state any, _ Mechanism) bool {
	st := state.(*cell)
	t.Work(10)
	c.res.val += st.val
	st.reads++
	c.idx++
	return int(c.idx) == len(c.cells)
}

func (c *sumCont) RPC(t *Task) bool {
	var rep cellReply
	if err := t.Call(c.cells[c.idx], c.r.mGet, nil, &rep); err != nil {
		panic(err)
	}
	c.res.val += rep.val
	c.idx++
	return int(c.idx) == len(c.cells)
}

// record fills an idle sumCont of the task's lane to visit cells
// carrying buf.
func (r *rig) record(task *Task, cells []gid.GID, buf []uint32) *sumCont {
	w := task.Record(r.cSum).(*sumCont)
	*w = sumCont{r: r, cells: cells, buf: buf}
	return w
}

// sum walks cells from task under computation migration, carrying buf,
// and returns the sum.
func (r *rig) sum(task *Task, cells []gid.GID, buf []uint32) uint64 {
	w := r.record(task, cells, buf)
	task.Walk(Migrate, r.cSum, w)
	return w.res.val
}

func newRig(t *testing.T, nprocs int, model cost.Model) *rig {
	t.Helper()
	eng := sim.NewEngine(11)
	m := sim.NewMachine(eng, nprocs)
	t.Cleanup(m.Retire)
	col := stats.NewCollector()
	net := network.New(m, network.Crossbar{}, []*stats.Collector{col}, model.NetTransitBase, model.NetTransitPerHop)
	rt := New(m, net, []*stats.Collector{col}, model)
	r := &rig{eng: eng, m: m, col: col, rt: rt}

	r.mGet = rt.RegisterMethod("cell.get", false, func(t *Task, self any, _ *msg.Reader, reply *msg.Writer) {
		c := self.(*cell)
		t.Work(10)
		c.reads++
		reply.PutU64(c.val)
	})
	r.mAdd = rt.RegisterMethod("cell.add", false, func(t *Task, self any, args *msg.Reader, reply *msg.Writer) {
		c := self.(*cell)
		t.Work(10)
		c.val += args.U64()
		reply.PutU64(c.val)
	})
	r.mShort = rt.RegisterMethod("cell.peek", true, func(t *Task, self any, _ *msg.Reader, reply *msg.Writer) {
		reply.PutU64(self.(*cell).val)
	})
	r.cSum = RegisterWalker(rt, "sum", func(c *sumCont) { c.r = r })
	r.cCall = RegisterWalker(rt, "call", func(c *callCont) { c.r = r })

	for p := 0; p < nprocs; p++ {
		r.cells = append(r.cells, rt.Objects.New(p, &cell{val: uint64(p + 1)}))
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalCallNoMessages(t *testing.T) {
	r := newRig(t, 4, cost.Software())
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 2)
		var rep cellReply
		if err := task.Call(r.cells[2], r.mGet, nil, &rep); err != nil {
			t.Error(err)
		}
		got = rep.val
	})
	r.run(t)
	if got != 3 {
		t.Errorf("got %d, want 3", got)
	}
	if r.col.TotalMessages() != 0 {
		t.Errorf("local call sent %d messages", r.col.TotalMessages())
	}
	if r.col.SumCycles([]stats.Category{stats.CatMarshal}) != 0 {
		t.Error("local call charged marshal cycles")
	}
}

func TestRemoteRPCRoundTrip(t *testing.T) {
	r := newRig(t, 4, cost.Software())
	var got uint64
	var elapsed sim.Time
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		start := th.Now()
		var rep cellReply
		if err := task.Call(r.cells[3], r.mAdd, &cellArg{delta: 5}, &rep); err != nil {
			t.Error(err)
		}
		got = rep.val
		elapsed = th.Now() - start
	})
	r.run(t)
	if got != 4+5 {
		t.Errorf("got %d, want 9", got)
	}
	if r.col.RPCCalls != 1 || r.col.TotalMessages() != 2 {
		t.Errorf("%d calls, %d messages, want 1 rpc + 1 reply", r.col.RPCCalls, r.col.TotalMessages())
	}
	// Cost must include two transits, both stub paths, and 10 cycles of
	// user code — i.e. several hundred cycles in the software model.
	if elapsed < 300 {
		t.Errorf("remote RPC took %d cycles, implausibly cheap", elapsed)
	}
	if r.col.SumCycles([]stats.Category{stats.CatThreadCreation}) == 0 {
		t.Error("long method did not charge thread creation")
	}
	// State actually mutated at the home.
	if st := r.rt.Objects.State(r.cells[3]).(*cell); st.val != 9 {
		t.Errorf("remote state = %d", st.val)
	}
}

func TestShortMethodSkipsThreadCreation(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		var rep cellReply
		if err := task.Call(r.cells[1], r.mShort, nil, &rep); err != nil {
			t.Error(err)
		}
	})
	r.run(t)
	if r.col.SumCycles([]stats.Category{stats.CatThreadCreation}) != 0 {
		t.Error("short method charged thread creation")
	}
	if r.col.ShortCalls != 1 {
		t.Errorf("short calls = %d", r.col.ShortCalls)
	}
}

func TestMigrateLocalRunsInline(t *testing.T) {
	r := newRig(t, 4, cost.Software())
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		got = r.sum(r.rt.NewTask(th, 1), []gid.GID{r.cells[1]}, nil)
	})
	r.run(t)
	if got != 2 {
		t.Errorf("got %d, want 2", got)
	}
	if r.col.TotalMessages() != 0 {
		t.Errorf("local migration sent %d messages", r.col.TotalMessages())
	}
	if r.col.MigrationsSent != 0 {
		t.Error("local run counted as migration")
	}
}

// TestMigrationChainShortCircuits is the §2.5 model in miniature: one
// thread visits m remote objects once each; computation migration must
// use exactly m+1 messages (m migrates + 1 direct return), while RPC uses
// 2m.
func TestMigrationChainShortCircuits(t *testing.T) {
	const m = 5
	r := newRig(t, m+1, cost.Software())
	targets := r.cells[1:] // procs 1..5; requester on proc 0
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		got = r.sum(r.rt.NewTask(th, 0), targets, nil)
	})
	r.run(t)
	want := uint64(2 + 3 + 4 + 5 + 6)
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if got := r.col.TotalMessages(); got != uint64(m)+1 {
		t.Errorf("messages = %d, want %d migrations + 1 reply (short-circuit return)", got, m)
	}
	if r.col.MigrationsSent != m {
		t.Errorf("MigrationsSent = %d", r.col.MigrationsSent)
	}
	// Every cell was actually visited at its home.
	for i, g := range targets {
		if st := r.rt.Objects.State(g).(*cell); st.reads != 1 {
			t.Errorf("cell %d reads = %d, want 1", i, st.reads)
		}
	}
}

// TestRPCVsMigrationMessageCounts reproduces Figure 1's message asymmetry
// inside the runtime: n accesses to each of m remote data items.
func TestRPCVsMigrationMessageCounts(t *testing.T) {
	const mObjs, nAcc = 4, 3

	// RPC: 2*n*m messages.
	r1 := newRig(t, mObjs+1, cost.Software())
	r1.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r1.rt.NewTask(th, 0)
		for _, g := range r1.cells[1:] {
			for a := 0; a < nAcc; a++ {
				var rep cellReply
				if err := task.Call(g, r1.mGet, nil, &rep); err != nil {
					t.Error(err)
				}
			}
		}
	})
	r1.run(t)
	if got := r1.col.TotalMessages(); got != 2*nAcc*mObjs {
		t.Errorf("RPC messages = %d, want %d", got, 2*nAcc*mObjs)
	}

	// Computation migration: the n accesses happen locally after one
	// migration per object: m+1 messages total.
	r2 := newRig(t, mObjs+1, cost.Software())
	var seq []gid.GID
	for _, g := range r2.cells[1:] {
		for a := 0; a < nAcc; a++ {
			seq = append(seq, g)
		}
	}
	r2.eng.Spawn("req", 0, func(th *sim.Thread) {
		r2.sum(r2.rt.NewTask(th, 0), seq, nil)
	})
	r2.run(t)
	if got := r2.col.TotalMessages(); got != mObjs+1 {
		t.Errorf("CM messages = %d, want %d", got, mObjs+1)
	}
	if r2.col.WordsSent >= r1.col.WordsSent {
		t.Errorf("CM words (%d) not below RPC words (%d)", r2.col.WordsSent, r1.col.WordsSent)
	}
}

func TestMigrationChargesTable5Categories(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		r.sum(r.rt.NewTask(th, 0), r.cells[1:2], nil)
	})
	r.run(t)
	for _, c := range []stats.Category{
		stats.CatSendLinkage, stats.CatSendAllocPacket, stats.CatMessageSend,
		stats.CatMarshal, stats.CatNetworkTransit, stats.CatCopyPacket,
		stats.CatThreadCreation, stats.CatRecvLinkage, stats.CatUnmarshal,
		stats.CatGIDTranslation, stats.CatScheduler, stats.CatForwardingCheck,
		stats.CatRecvAllocPacket, stats.CatUserCode,
	} {
		if r.col.SumCycles([]stats.Category{c}) == 0 {
			t.Errorf("category %v never charged during a migration", c)
		}
	}
}

func TestHardwareModelCheaper(t *testing.T) {
	elapsed := func(model cost.Model) sim.Time {
		r := newRig(t, 6, model)
		var d sim.Time
		r.eng.Spawn("req", 0, func(th *sim.Thread) {
			start := th.Now()
			r.sum(r.rt.NewTask(th, 0), r.cells[1:], nil)
			d = th.Now() - start
		})
		r.run(t)
		return d
	}
	sw, hw := elapsed(cost.Software()), elapsed(cost.Hardware())
	if hw >= sw {
		t.Errorf("hardware model (%d) not faster than software (%d)", hw, sw)
	}
	saving := float64(sw-hw) / float64(sw)
	if saving < 0.15 || saving > 0.45 {
		t.Errorf("hardware saving = %.0f%%, expected roughly 20-30%%", saving*100)
	}
}

func TestStatePanicsOffHome(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	caught := false
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		defer func() { caught = recover() != nil }()
		task := r.rt.NewTask(th, 0)
		_ = task.State(r.cells[1])
	})
	r.run(t)
	if !caught {
		t.Fatal("State on remote object did not panic")
	}
}

func TestNestedCallFromHandler(t *testing.T) {
	r := newRig(t, 3, cost.Software())
	// A method on cell[1] that itself RPCs cell[2] — the "client stub
	// waits" structure.
	relay := r.rt.RegisterMethod("cell.relay", false, func(t *Task, self any, _ *msg.Reader, reply *msg.Writer) {
		var rep cellReply
		if err := t.Call(r.cells[2], r.mGet, nil, &rep); err != nil {
			panic(err)
		}
		reply.PutU64(rep.val + self.(*cell).val)
	})
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 0)
		var rep cellReply
		if err := task.Call(r.cells[1], relay, nil, &rep); err != nil {
			t.Error(err)
		}
		got = rep.val
	})
	r.run(t)
	if got != 3+2 {
		t.Errorf("nested call result = %d, want 5", got)
	}
	if r.col.RPCCalls != 2 || r.col.TotalMessages() != 4 {
		t.Errorf("%d calls, %d messages, want 2 rpcs + 2 replies", r.col.RPCCalls, r.col.TotalMessages())
	}
}

// callCont is a migrated record that makes a blocking RPC (the paper's
// mixed-mechanism tuning case): at target it calls peer and returns the
// two cells' values plus bias.
type callCont struct {
	r            *rig
	target, peer gid.GID
	bias         uint64
	res          cellReply
}

func (c *callCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.target))
	w.PutU64(uint64(c.peer))
	w.PutU64(c.bias)
}

func (c *callCont) UnmarshalWords(r *msg.Reader) error {
	c.target, c.peer, c.bias = gid.GID(r.U64()), gid.GID(r.U64()), r.U64()
	return r.Err()
}

func (c *callCont) At() gid.GID    { return c.target }
func (c *callCont) Result() Result { return &c.res }

func (c *callCont) Visit(t *Task, state any, _ Mechanism) bool {
	var rep cellReply
	if err := t.Call(c.peer, c.r.mGet, nil, &rep); err != nil {
		panic(err)
	}
	c.res.val = state.(*cell).val + rep.val + c.bias
	return true
}

func (c *callCont) RPC(*Task) bool { panic("callCont runs under computation migration") }

// call walks a callCont from task and returns its result.
func (r *rig) call(task *Task, target, peer gid.GID, bias uint64) uint64 {
	w := task.Record(r.cCall).(*callCont)
	*w = callCont{r: r, target: target, peer: peer, bias: bias}
	task.Walk(Migrate, r.cCall, w)
	return w.res.val
}

// TestCallFromContinuation exercises a migrated activation performing a
// blocking RPC.
func TestCallFromContinuation(t *testing.T) {
	r := newRig(t, 3, cost.Software())
	var got uint64
	r.eng.Spawn("req", 0, func(th *sim.Thread) {
		got = r.call(r.rt.NewTask(th, 0), r.cells[1], r.cells[2], 0)
	})
	r.run(t)
	if got != 2+3 {
		t.Errorf("got %d, want 5", got)
	}
	if r.col.MigrationsSent != 1 || r.col.RPCCalls != 1 {
		t.Errorf("%d migrations, %d calls, want 1 and 1", r.col.MigrationsSent, r.col.RPCCalls)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trial := func() (uint64, uint64, sim.Time) {
		r := newRig(t, 8, cost.Software())
		for i := 0; i < 4; i++ {
			i := i
			r.eng.Spawn("req", 0, func(th *sim.Thread) {
				task := r.rt.NewTask(th, i)
				for round := 0; round < 3; round++ {
					var rep cellReply
					g := r.cells[(i+round+1)%8]
					if err := task.Call(g, r.mAdd, &cellArg{delta: 1}, &rep); err != nil {
						t.Error(err)
					}
					th.Sleep(sim.Time(r.eng.Rand().Intn(100)))
				}
			})
		}
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.col.WordsSent, r.col.TotalCycles(), r.eng.Now()
	}
	w1, c1, t1 := trial()
	w2, c2, t2 := trial()
	if w1 != w2 || c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic run: (%d,%d,%d) vs (%d,%d,%d)", w1, c1, t1, w2, c2, t2)
	}
}

func TestSchemeNames(t *testing.T) {
	cases := []struct {
		s    Scheme
		want string
	}{
		{Scheme{Mechanism: SharedMem}, "SM"},
		{Scheme{Mechanism: RPC}, "RPC"},
		{Scheme{Mechanism: RPC, HWMessaging: true}, "RPC w/HW"},
		{Scheme{Mechanism: RPC, Replication: true}, "RPC w/repl."},
		{Scheme{Mechanism: RPC, Replication: true, HWMessaging: true}, "RPC w/repl. & HW"},
		{Scheme{Mechanism: Migrate}, "CP"},
		{Scheme{Mechanism: Migrate, HWMessaging: true}, "CP w/HW"},
		{Scheme{Mechanism: Migrate, Replication: true, HWMessaging: true}, "CP w/repl. & HW"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestSchemeModel(t *testing.T) {
	if (Scheme{Mechanism: Migrate}).Model() != cost.Software() {
		t.Error("plain scheme should use the software model")
	}
	hw := Scheme{Mechanism: Migrate, HWMessaging: true}.Model()
	if hw != cost.Hardware() {
		t.Error("w/HW scheme should bundle both hardware estimates")
	}
	if hw.SendAllocPacket != 0 || hw.GIDTranslation != 0 {
		t.Error("hardware reductions not applied")
	}
}

func TestTaskAccessors(t *testing.T) {
	r := newRig(t, 2, cost.Software())
	r.eng.Spawn("req", 3, func(th *sim.Thread) {
		task := r.rt.NewTask(th, 1)
		if task.Thread() != th {
			t.Error("Thread accessor wrong")
		}
		if task.Proc() != 1 {
			t.Error("Proc accessor wrong")
		}
		before := task.Now()
		task.Think(100)
		if task.Now() != before+100 {
			t.Errorf("Think advanced %d cycles", task.Now()-before)
		}
	})
	r.run(t)
}
