package harness

import (
	"fmt"

	"compmig/internal/apps/countnet"
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
	"compmig/internal/model"
	"compmig/internal/msg"
	"compmig/internal/network"
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
			RunSpec{
				Label: fmt.Sprintf("fig1/rpc/m=%d", m),
				Run:   func() any { return fig1Messages(core.RPC, n, m, o.seed()) },
			},
			RunSpec{
				Label: fmt.Sprintf("fig1/cm/m=%d", m),
				Run:   func() any { return fig1Messages(core.Migrate, n, m, o.seed()) },
			},
			RunSpec{
				Label: fmt.Sprintf("fig1/dm/m=%d", m),
				Run:   func() any { return fig1DataMigration(n, m, o.seed()) },
			})
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

// fig1Cell is a trivial data item for the Figure 1 scenario.
type fig1Cell struct{ touched int }

// fig1Cont visits a fixed access sequence, migrating to each item.
type fig1Cont struct {
	h   *fig1Env
	idx uint32
	seq []gid.GID
}

func (c *fig1Cont) MarshalWords(w *msg.Writer) {
	w.PutU32(c.idx)
	w.PutU32(uint32(len(c.seq)))
	for _, g := range c.seq {
		w.PutU64(uint64(g))
	}
}

func (c *fig1Cont) UnmarshalWords(r *msg.Reader) error {
	c.idx = r.U32()
	c.seq = make([]gid.GID, int(r.U32()))
	for i := range c.seq {
		c.seq[i] = gid.GID(r.U64())
	}
	return r.Err()
}

func (c *fig1Cont) Run(t *core.Task) {
	for int(c.idx) < len(c.seq) {
		g := c.seq[c.idx]
		if !t.IsLocal(g) {
			t.Migrate(g, c.h.cont, c)
			return
		}
		t.State(g).(*fig1Cell).touched++
		t.Work(10)
		c.idx++
	}
	t.Return(nil)
}

type fig1Env struct {
	rt    *core.Runtime
	cells []gid.GID
	mGet  core.MethodID
	cont  core.ContID
}

// fig1Messages runs the access pattern through the software runtime and
// returns the number of messages sent.
func fig1Messages(mech core.Mechanism, n, m int, seed uint64) uint64 {
	eng := sim.NewEngine(seed)
	mach := sim.NewMachine(eng, m+1)
	col := stats.NewCollector()
	md := core.Scheme{Mechanism: mech}.Model()
	net := network.New(eng, network.Crossbar{}, col, md.NetTransitBase, md.NetTransitPerHop)
	rt := core.New(eng, mach, net, col, md)

	env := &fig1Env{rt: rt}
	env.mGet = rt.RegisterMethod("fig1.get", true,
		func(t *core.Task, self any, _ *msg.Reader, reply *msg.Writer) {
			self.(*fig1Cell).touched++
			t.Work(10)
			reply.PutU32(0)
		})
	env.cont = rt.RegisterCont("fig1.visit",
		func() core.Continuation { return &fig1Cont{h: env} })
	for p := 1; p <= m; p++ {
		env.cells = append(env.cells, rt.Objects.New(p, &fig1Cell{}))
	}

	eng.Spawn("fig1", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		switch mech {
		case core.RPC:
			for _, g := range env.cells {
				for a := 0; a < n; a++ {
					var rep fig1Reply
					if err := task.Call(g, env.mGet, nil, &rep); err != nil {
						panic(err)
					}
				}
			}
		case core.Migrate:
			var seq []gid.GID
			for _, g := range env.cells {
				for a := 0; a < n; a++ {
					seq = append(seq, g)
				}
			}
			if err := task.Do(&fig1Cont{h: env, seq: seq}, nil); err != nil {
				panic(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		panic("harness: fig1 deadlocked: " + err.Error())
	}
	return col.TotalMessages()
}

type fig1Reply struct{ v uint32 }

func (r *fig1Reply) MarshalWords(w *msg.Writer)          { w.PutU32(r.v) }
func (r *fig1Reply) UnmarshalWords(rd *msg.Reader) error { r.v = rd.U32(); return rd.Err() }

// fig1DataMigration measures the same pattern through the hardware
// shared-memory substrate: the first access to each datum moves its line
// (request + data = two messages); the rest hit locally.
func fig1DataMigration(n, m int, seed uint64) uint64 {
	eng := sim.NewEngine(seed)
	mach := sim.NewMachine(eng, m+1)
	col := stats.NewCollector()
	net := network.New(eng, network.Crossbar{}, col, 17, 0)
	shm := mem.New(eng, mach, net, col, mem.DefaultParams())
	defer shm.Release()

	var addrs []mem.Addr
	for p := 1; p <= m; p++ {
		addrs = append(addrs, shm.Alloc(p, 8))
	}
	eng.Spawn("fig1", 0, func(th *sim.Thread) {
		for _, a := range addrs {
			for k := 0; k < n; k++ {
				shm.Read(th, 0, a, 8)
			}
		}
	})
	if err := eng.Run(); err != nil {
		panic("harness: fig1 dm deadlocked: " + err.Error())
	}
	return col.TotalMessages()
}

// table5Breakdown runs the Table 5 scenario: a single thread traverses
// the counting network under computation migration (software model) and
// the collector's cycle categories are averaged over the migrations
// performed.
func table5Breakdown(seed uint64) []stats.BreakdownRow {
	eng := sim.NewEngine(seed)
	scheme := core.Scheme{Mechanism: core.Migrate}
	md := scheme.Model()
	mach := sim.NewMachine(eng, 25)
	col := stats.NewCollector()
	net := network.New(eng, network.Crossbar{}, col, md.NetTransitBase, md.NetTransitPerHop)
	rt := core.New(eng, mach, net, col, md)
	cn := countnet.Build(rt, nil, scheme, 8)

	const requests = 200
	eng.Spawn("req", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 24)
		for i := 0; i < requests; i++ {
			cn.Traverse(task, i%8)
		}
	})
	if err := eng.Run(); err != nil {
		panic("harness: table5 deadlocked: " + err.Error())
	}
	return col.Breakdown(col.MigrationsSent)
}

// table5Exp wraps the per-migration cost breakdown as a single spec.
func table5Exp(o Options) experiment {
	specs := []RunSpec{{
		Label: "table5/migration-breakdown",
		Run:   func() any { return table5Breakdown(o.seed()) },
	}}
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
				indent(r.Indent) + label,
				fmt.Sprintf("%.0f", r.Cycles),
				fmt.Sprintf("%.0f%%", r.Percent),
				paper[label],
			})
		}
		return []Table{t}
	}
	return experiment{specs: specs, render: render}
}

func indent(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "  "
	}
	return s
}
