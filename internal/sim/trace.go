package sim

import (
	"fmt"
	"io"
)

// TraceEvent is one record of the simulation's execution trace.
type TraceEvent struct {
	At     Time
	Kind   string
	Detail string
}

// Tracer captures a bounded ring of trace events. Tracing is off by
// default; EnableTrace attaches a tracer to the engine, after which
// instrumented subsystems (network sends, migrations, misses) record
// what they do. The ring keeps the most recent events, so a trace of a
// long run ends with the part you usually care about.
type Tracer struct {
	ring []TraceEvent
	next int
	full bool
}

// EnableTrace attaches a tracer ring holding up to capacity events and
// returns it. Calling it again replaces the previous tracer.
func (e *Engine) EnableTrace(capacity int) *Tracer {
	if capacity <= 0 {
		panic("sim: trace capacity must be positive")
	}
	e.tracer = &Tracer{ring: make([]TraceEvent, capacity)}
	return e.tracer
}

// Tracing reports whether a tracer is attached.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef records an event when tracing is enabled; otherwise it is a
// cheap no-op (the formatting happens only when enabled).
func (e *Engine) Tracef(kind, format string, args ...any) {
	tr := e.tracer
	if tr == nil {
		return
	}
	tr.ring[tr.next] = TraceEvent{At: e.now, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.full = true
	}
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []TraceEvent {
	if !t.full {
		out := make([]TraceEvent, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dump writes the retained trace to w, one event per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(w, "%10d %-10s %s\n", ev.At, ev.Kind, ev.Detail); err != nil {
			return err
		}
	}
	return nil
}
