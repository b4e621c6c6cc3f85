package harness

import (
	"fmt"
	"strings"

	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/mem"
	"compmig/internal/model"
	"compmig/internal/msg"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// fig1Exp decomposes §2.5's message-count model validation (Figure 1)
// into one spec per (mechanism, m) simulation: a thread on P0 makes n
// consecutive accesses to each of m data items on processors 1..m; the
// analytic counts must match the messages the runtime actually sends.
func fig1Exp(o Options) experiment {
	const n = 2
	ms := []int{1, 2, 4, 8, 16}
	var specs []RunSpec
	for _, m := range ms {
		specs = append(specs,
			func() any { return fig1Messages(core.RPC, n, m, o.seed()) },
			func() any { return fig1Messages(core.Migrate, n, m, o.seed()) },
			func() any { return fig1DataMigration(n, m, o.seed()) })
	}
	render := func(results []any) []Table {
		t := Table{
			ID:      "FIG1",
			Title:   fmt.Sprintf("Messages for %d accesses to each of m remote data items (model vs simulated)", n),
			Headers: []string{"m", "RPC model", "RPC sim", "data-mig model", "data-mig sim", "comp-mig model", "comp-mig sim"},
			Note:    "model: RPC=2nm, data migration=2m, computation migration=m+1 (return short-circuits)",
		}
		for i, m := range ms {
			rpcSim := results[3*i].(uint64)
			cmSim := results[3*i+1].(uint64)
			dmSim := results[3*i+2].(uint64)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m),
				fmt.Sprintf("%d", model.Messages(model.RPC, n, m)),
				fmt.Sprintf("%d", rpcSim),
				fmt.Sprintf("%d", model.Messages(model.DataMigration, n, m)),
				fmt.Sprintf("%d", dmSim),
				fmt.Sprintf("%d", model.Messages(model.ComputationMigration, n, m)),
				fmt.Sprintf("%d", cmSim),
			})
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}

// chainCell is one data item of §2.5's toy world; an access charges
// work and keeps nothing in it.
type chainCell struct{}

// chainWorld is §2.5's toy world: a thread on P0 visits a sequence of
// data items, one on each of processors 1..m, doing work cycles of user
// code per access. FIG1 counts the messages each mechanism sends in it;
// the granularity ablation times one visit to each item.
type chainWorld struct {
	m     *machine.Machine
	mech  core.Mechanism
	work  uint64
	cells []gid.GID
	mGet  core.MethodID
	cont  core.ContID
}

func newChainWorld(mech core.Mechanism, m int, work, seed uint64) *chainWorld {
	w := &chainWorld{
		m:    machine.New("chain", machine.Config{Seed: seed, Scheme: core.Scheme{Mechanism: mech}}, m+1),
		mech: mech, work: work,
	}
	rt := w.m.RT
	w.mGet = rt.RegisterMethod("chain.get", true,
		func(t *core.Task, _ any, _ *msg.Reader, reply *msg.Writer) {
			t.Work(w.work)
			chainAck{}.MarshalWords(reply)
		})
	w.cont = rt.RegisterWalker("chain.visit", func() core.Walker { return &chainCont{w: w} })
	for p := 1; p <= m; p++ {
		w.cells = append(w.cells, rt.Objects.New(p, &chainCell{}))
	}
	return w
}

// visit runs the thread on P0 through seq and returns the simulated
// cycles it took: a remote call per access under RPC, one record that
// migrates to each item otherwise. stackWords > 0 makes every hop a
// whole-thread migration carrying that much stack.
func (w *chainWorld) visit(seq []gid.GID, stackWords uint64) sim.Time {
	var elapsed sim.Time
	w.m.Eng.Spawn("chain", 0, func(th *sim.Thread) {
		task := w.m.RT.NewTask(th, 0)
		start := th.Now()
		rec := task.Record(w.cont).(*chainCont)
		*rec = chainCont{w: w, seq: seq, stackWords: stackWords}
		task.Walk(w.mech, w.cont, rec)
		elapsed = th.Now() - start
	})
	w.m.Run(&machine.Result{})
	return elapsed
}

// chainCont visits a fixed access sequence. Under whole-thread
// migration it carries the thread's stack and register context too, as
// stackWords words of ballast after the sequence (§2.3's comparison
// point: the message scales with the thread, not the activation).
type chainCont struct {
	w          *chainWorld
	idx        uint32
	seq        []gid.GID
	stackWords uint64
	ack        chainAck
}

func (c *chainCont) MarshalWords(w *msg.Writer) {
	w.PutU32(c.idx)
	w.PutU64(c.stackWords)
	w.PutU32(uint32(len(c.seq)))
	for _, g := range c.seq {
		w.PutU64(uint64(g))
	}
	for i := uint64(0); i < c.stackWords; i++ {
		w.PutU32(0)
	}
}

func (c *chainCont) UnmarshalWords(r *msg.Reader) error {
	c.idx = r.U32()
	c.stackWords = r.U64()
	c.seq = make([]gid.GID, int(r.U32()))
	for i := range c.seq {
		c.seq[i] = gid.GID(r.U64())
	}
	for i := uint64(0); i < c.stackWords; i++ {
		r.U32()
	}
	return r.Err()
}

func (c *chainCont) At() gid.GID         { return c.seq[c.idx] }
func (c *chainCont) Result() core.Result { return &c.ack }

func (c *chainCont) Visit(t *core.Task, _ any, _ core.Mechanism) bool {
	t.Work(c.w.work)
	c.idx++
	return int(c.idx) == len(c.seq)
}

func (c *chainCont) RPC(t *core.Task) bool {
	if err := t.Call(c.seq[c.idx], c.w.mGet, nil, &c.ack); err != nil {
		panic(err)
	}
	c.idx++
	return int(c.idx) == len(c.seq)
}

// chainAck is the one-word reply of an access and of a whole visit.
type chainAck struct{}

func (chainAck) MarshalWords(w *msg.Writer)          { w.PutU32(1) }
func (*chainAck) UnmarshalWords(r *msg.Reader) error { r.U32(); return r.Err() }

// fig1Messages runs the access pattern (n consecutive accesses to each
// of m items) through the software runtime and returns the number of
// messages sent.
func fig1Messages(mech core.Mechanism, n, m int, seed uint64) uint64 {
	w := newChainWorld(mech, m, 10, seed)
	var seq []gid.GID
	for _, g := range w.cells {
		for a := 0; a < n; a++ {
			seq = append(seq, g)
		}
	}
	w.visit(seq, 0)
	return w.m.Col(0).TotalMessages()
}

// chainCycles is the granularity ablation's measurement: the simulated
// cycles one computation-migration visit to each of 8 items takes, with
// frame migration (stackWords == 0) or whole-thread migration.
func chainCycles(stackWords, seed uint64) sim.Time {
	w := newChainWorld(core.Migrate, 8, 50, seed)
	return w.visit(w.cells, stackWords)
}

// fig1DataMigration measures the same pattern through the hardware
// shared-memory substrate: the first access to each datum moves its line
// (request + data = two messages); the rest hit locally.
func fig1DataMigration(n, m int, seed uint64) uint64 {
	mc := machine.New("fig1", machine.Config{Seed: seed, Scheme: core.Scheme{Mechanism: core.SharedMem}}, m+1)
	var addrs []mem.Addr
	for p := 1; p <= m; p++ {
		addrs = append(addrs, mc.Mem.Alloc(p, 8))
	}
	mc.Eng.Spawn("fig1", 0, func(th *sim.Thread) {
		for _, a := range addrs {
			for k := 0; k < n; k++ {
				mc.Mem.Read(th, 0, a, 8)
			}
		}
	})
	return mc.Run(&machine.Result{}).TotalMessages()
}

// table5Breakdown runs the Table 5 scenario: a single thread traverses
// the counting network under computation migration (software model) and
// the collector's cycle categories are averaged over the migrations
// performed.
func table5Breakdown(seed uint64) []stats.BreakdownRow {
	scheme := core.Scheme{Mechanism: core.Migrate}
	m := machine.New("table5", machine.Config{Seed: seed, Scheme: scheme}, 25)
	cn := countnet.Build(m.RT, nil, scheme, 8)

	const requests = 200
	m.Eng.Spawn("req", 0, func(th *sim.Thread) {
		task := m.RT.NewTask(th, 24)
		for i := 0; i < requests; i++ {
			cn.Traverse(task, i%8)
		}
	})
	col := m.Run(&machine.Result{})
	return col.Breakdown(col.MigrationsSent)
}

// table5Exp wraps the per-migration cost breakdown as a single spec.
func table5Exp(o Options) experiment {
	specs := []RunSpec{func() any { return table5Breakdown(o.seed()) }}
	render := func(results []any) []Table {
		paper := map[string]string{
			"Total time": "651", "User code": "150", "Network transit": "17",
			"Message overhead total": "484", "Receiver total": "341",
			"Copy packet": "76", "Thread creation": "66",
			"Procedure linkage (recv)": "66", "Unmarshaling": "51",
			"Object ID translation": "36", "Scheduler": "36",
			"Forwarding check": "23", "Allocate packet (recv)": "16",
			"Sender total": "143", "Procedure linkage (send)": "44",
			"Allocate packet (send)": "35", "Message send": "23",
			"Marshaling": "22",
		}
		t := Table{
			ID:      "TABLE5",
			Title:   "Approximate costs for one migration in the counting network (cycles)",
			Headers: []string{"category", "measured", "percent", "paper"},
			Note:    "averaged over migrations; includes the once-per-request short-circuit return",
		}
		for _, r := range results[0].([]stats.BreakdownRow) {
			label := r.Label
			t.Rows = append(t.Rows, []string{
				strings.Repeat("  ", r.Indent) + label,
				fmt.Sprintf("%.0f", r.Cycles),
				fmt.Sprintf("%.0f%%", r.Percent),
				paper[label],
			})
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}
