package network

import (
	"testing"
	"testing/quick"

	"compmig/internal/fault"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

func TestCrossbarHops(t *testing.T) {
	var c Crossbar
	if c.Hops(3, 3) != 0 {
		t.Error("local hop count not zero")
	}
	if c.Hops(0, 5) != 1 || c.Hops(5, 0) != 1 {
		t.Error("remote hop count not one")
	}
}

func TestMeshHops(t *testing.T) {
	m := NewMesh(4, 4)
	cases := []struct {
		a, b int
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},
		{0, 5, 2},
		{0, 15, 6}, // (0,0) -> (3,3)
		{15, 0, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Degenerate 1×N and N×1 meshes are lines: the hop count must be the
// absolute index distance in both orientations.
func TestMeshHopsDegenerate(t *testing.T) {
	row := NewMesh(7, 1) // 1 row of 7
	col := NewMesh(1, 7) // 1 column of 7
	for a := 0; a < 7; a++ {
		for b := 0; b < 7; b++ {
			want := uint64(a - b)
			if a < b {
				want = uint64(b - a)
			}
			if got := row.Hops(a, b); got != want {
				t.Errorf("mesh7x1 Hops(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got := col.Hops(a, b); got != want {
				t.Errorf("mesh1x7 Hops(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMeshHopsDegenerateProperty(t *testing.T) {
	for _, m := range []Mesh{NewMesh(13, 1), NewMesh(1, 13)} {
		m := m
		if err := quick.Check(func(a, b uint8) bool {
			x, y := int(a)%13, int(b)%13
			d := x - y
			if d < 0 {
				d = -d
			}
			return m.Hops(x, y) == uint64(d)
		}, nil); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

// A proc id outside [0, W*H) has no mesh position; Hops must panic with
// a clear message instead of computing a wrong distance.
func TestMeshHopsOutOfRangePanics(t *testing.T) {
	m := NewMesh(4, 4)
	for _, c := range []struct{ src, dst int }{
		{-1, 0}, {0, -1}, {16, 0}, {0, 16}, {100, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hops(%d,%d) did not panic", c.src, c.dst)
				}
			}()
			m.Hops(c.src, c.dst)
		}()
	}
}

func TestMeshHopsSymmetric(t *testing.T) {
	m := NewMesh(6, 4)
	if err := quick.Check(func(a, b uint8) bool {
		x, y := int(a)%24, int(b)%24
		return m.Hops(x, y) == m.Hops(y, x)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshTriangleInequality(t *testing.T) {
	m := NewMesh(5, 5)
	if err := quick.Check(func(a, b, c uint8) bool {
		x, y, z := int(a)%25, int(b)%25, int(c)%25
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// newTestMachine is sim.NewMachine for a test: the machine retires when
// the test ends.
func newTestMachine(t testing.TB, e *sim.Engine, n int) *sim.Machine {
	m := sim.NewMachine(e, n)
	t.Cleanup(m.Retire)
	return m
}

func TestSendLatencyAndAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	col := stats.NewCollector()
	n := New(newTestMachine(t, e, 2), Crossbar{}, []*stats.Collector{col}, 17, 0)

	var arrivedAt sim.Time
	var got *Message
	n.Send(&Message{Src: 0, Dst: 1, Kind: "test", Payload: []uint32{1, 2, 3}},
		func(m *Message) {
			arrivedAt = e.Now()
			got = m
		})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivedAt != 17 {
		t.Errorf("arrival at %d, want 17", arrivedAt)
	}
	if got == nil || len(got.Payload) != 3 {
		t.Fatal("payload lost in transit")
	}
	if col.WordsSent != HeaderWords+3 {
		t.Errorf("words = %d, want %d", col.WordsSent, HeaderWords+3)
	}
	if col.TotalMessages() != 1 {
		t.Errorf("message count = %d", col.TotalMessages())
	}
	if col.SumCycles([]stats.Category{stats.CatNetworkTransit}) != 17 {
		t.Errorf("transit cycles = %d", col.SumCycles([]stats.Category{stats.CatNetworkTransit}))
	}
}

func TestMeshLatencyScalesWithDistance(t *testing.T) {
	e := sim.NewEngine(1)
	col := stats.NewCollector()
	n := New(newTestMachine(t, e, 16), NewMesh(4, 4), []*stats.Collector{col}, 10, 2)

	var near, far sim.Time
	n.Send(&Message{Src: 0, Dst: 1, Kind: "a"}, func(*Message) { near = e.Now() })
	n.Send(&Message{Src: 0, Dst: 15, Kind: "a"}, func(*Message) { far = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if near != 12 { // 10 + 2*1
		t.Errorf("near latency = %d, want 12", near)
	}
	if far != 22 { // 10 + 2*6
		t.Errorf("far latency = %d, want 22", far)
	}
}

func TestMessagesDeliverInOrderPerLatency(t *testing.T) {
	e := sim.NewEngine(1)
	col := stats.NewCollector()
	n := New(newTestMachine(t, e, 2), Crossbar{}, []*stats.Collector{col}, 5, 0)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		n.Send(&Message{Src: 0, Dst: 1, Kind: "k"}, func(*Message) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Errorf("delivered = %d, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-latency messages reordered: %v", order)
		}
	}
}

// TestClusterLaneSend runs the network over a two-lane cluster (processors
// 0-1 on lane 0, 2-3 on lane 1): a same-lane and a cross-lane send each
// arrive at send time plus latency, on the destination's lane, and
// charge their words and transit cycles to the source lane's collector
// only. The reliability layer's state is machine-wide, so attaching a
// fault injector to this network panics.
func TestClusterLaneSend(t *testing.T) {
	cl := sim.NewCluster(1, 2)
	mach := cl.NewMachine(4)
	t.Cleanup(mach.Retire)
	cl.SetLookahead(17)
	cols := []*stats.Collector{stats.NewCollector(), stats.NewCollector()}
	n := New(mach, Crossbar{}, cols, 17, 0)

	var arrived [4]sim.Time // by destination; each lane writes its own
	mach.Proc(0).Spawn("sender", 5, func(th *sim.Thread) {
		for _, dst := range []int{1, 2} {
			n.Send(&Message{Src: 0, Dst: dst, Kind: "k", Payload: []uint32{1}}, func(m *Message) {
				arrived[m.Dst] = mach.Proc(m.Dst).Engine().Now()
			})
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if want := [4]sim.Time{1: 22, 2: 22}; arrived != want {
		t.Errorf("arrivals %v, want %v", arrived, want)
	}
	if got, want := cols[0].WordsSent, uint64(2*(HeaderWords+1)); got != want {
		t.Errorf("source lane words = %d, want %d", got, want)
	}
	if got := cols[0].SumCycles([]stats.Category{stats.CatNetworkTransit}); got != 34 {
		t.Errorf("source lane transit cycles = %d, want 34", got)
	}
	if cols[1].WordsSent != 0 || cols[1].TotalMessages() != 0 || cols[1].SumCycles([]stats.Category{stats.CatNetworkTransit}) != 0 {
		t.Errorf("destination lane charged: %d words, %d messages", cols[1].WordsSent, cols[1].TotalMessages())
	}

	defer func() {
		if recover() == nil {
			t.Error("AttachFaults on a two-lane network did not panic")
		}
	}()
	n.AttachFaults(fault.NewInjector(&fault.Spec{}))
}
