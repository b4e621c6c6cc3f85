package sim

import (
	"strings"
	"testing"
)

func TestTraceDisabledByDefault(t *testing.T) {
	e := NewEngine(1)
	if e.Tracing() {
		t.Fatal("tracing on by default")
	}
	e.Tracef("x", "should be dropped")
	// No panic, no state: attach a tracer and confirm it starts empty.
	tr := e.EnableTrace(4)
	if tr.total != 0 || len(tr.Events()) != 0 {
		t.Fatal("fresh tracer not empty")
	}
}

func TestTraceRecordsInOrder(t *testing.T) {
	e := NewEngine(1)
	tr := e.EnableTrace(16)
	e.Schedule(10, func() { e.Tracef("a", "first") })
	e.Schedule(20, func() { e.Tracef("b", "second %d", 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].At != 10 || evs[0].Kind != "a" {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[1].Detail != "second 2" {
		t.Errorf("formatting lost: %q", evs[1].Detail)
	}
}

func TestTraceRingWraps(t *testing.T) {
	e := NewEngine(1)
	tr := e.EnableTrace(3)
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(i+1), func() { e.Tracef("k", "event %d", i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.total != 10 {
		t.Errorf("total = %d", tr.total)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d, want 3", len(evs))
	}
	// Most recent three, oldest first.
	for i, want := range []string{"event 7", "event 8", "event 9"} {
		if evs[i].Detail != want {
			t.Errorf("retained[%d] = %q, want %q", i, evs[i].Detail, want)
		}
	}
}

func TestTraceDump(t *testing.T) {
	e := NewEngine(1)
	tr := e.EnableTrace(8)
	e.Schedule(5, func() { e.Tracef("send", "rpc p0->p1") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rpc p0->p1") {
		t.Errorf("dump output %q", sb.String())
	}
}

func TestTraceCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewEngine(1).EnableTrace(0)
}
