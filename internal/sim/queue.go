package sim

import (
	"fmt"
	"math/bits"

	"compmig/internal/profile"
)

// Event.index values for an event outside the heap.
const (
	notQueued  = -1 // fired, cancelled or pooled
	behindHead = -2 // queued in a sorted run behind the run's head
	inWheel    = -3 // in a wheel slot
)

// wheelBits sizes the timing wheel: wheelSize one-cycle slots, so an
// event due fewer than wheelSize cycles after now goes to the wheel and
// a later one to the heap.
const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// before reports whether a sorts before b in the queue's total order,
// (at, stream, seq).
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	return a.seq < b.seq
}

// Cancel removes a pending event from the queue so it never fires: a
// plain event, or a run's head, which hands its place to its successor.
// An event queued behind a run's head cannot be cancelled, and Cancel
// panics on one: a timer that no processor booked (Schedule with a
// delay, or At) is never in a run. Cancelling an event that has already
// fired or been cancelled is a no-op; do not call Cancel on a handle
// kept across the event's firing, because the engine may have recycled
// the object for an unrelated event by then.
func (ev *Event) Cancel() {
	switch ev.index {
	case notQueued:
		return
	case behindHead:
		panic(fmt.Sprintf("sim: cancelling event (%d, %d) queued behind a sorted run's head", ev.at, ev.seq))
	}
	e := ev.eng
	e.take(ev)
	if e.top == ev {
		e.top = e.earliest(ev.at)
	}
	e.release(ev)
}

// run is a queue of events already in (at, seq) order, linked through
// Event.next, for events due past the wheel's span. Only its head sits
// in the ordered queue. The run records just its tail, and seq, the
// tail's seq when it was appended: once the tail has left the queue or
// its object has been recycled for a later event (a new seq), the run is
// empty, so popping a run's last event needs no pointer back to the run.
type run struct {
	tail *Event
	seq  uint64
}

// live reports whether r's tail is still queued, so that a new event
// goes behind it rather than into the ordered queue as the run's head.
func (r *run) live() bool {
	t := r.tail
	return t != nil && t.seq == r.seq && t.index != notQueued
}

// link queues ev behind t, the tail of a run. An event that sorts before
// t panics, because the queue would then no longer see the earliest
// event.
func (t *Event) link(ev *Event) {
	if ev.at < t.at || ev.at == t.at && ev.seq < t.seq {
		panic(fmt.Sprintf("sim: event (%d, %d) appended behind (%d, %d) breaks a sorted run",
			ev.at, ev.seq, t.at, t.seq))
	}
	t.next = ev
	ev.index = behindHead
}

// successor unlinks ev, an event about to leave the ordered queue, from
// its run and returns the run's next event, which takes ev's place.
// After the arrival run's head it materializes the next arrival. It
// returns nil when ev is a plain event or the last event of its run.
func (e *Engine) successor(ev *Event) *Event {
	next := ev.next
	ev.next = nil
	if next == nil && ev == e.arrivals.head {
		next = e.arrivals.next(e)
	}
	return next
}

// push puts ev, a new event or a run's new head, into the ordered queue
// and makes it the cached top when it sorts first.
func (e *Engine) push(ev *Event) {
	e.enqueue(ev)
	if t := e.top; t == nil || ev.before(t) {
		e.top = ev
	}
}

// enqueue puts ev into the wheel when it is due within the wheel's span
// of now, and into the heap otherwise, counting it in the
// engine.heap_pushes profile section either way. It leaves the cached
// top alone.
func (e *Engine) enqueue(ev *Event) {
	if profile.Enabled() {
		profile.HeapOps.Add(1)
	}
	if ev.at-e.now < wheelSize {
		e.wheel.insert(ev)
	} else {
		e.heap.push(ev)
	}
}

// take removes ev, a queued event, from the wheel or the heap. When it
// heads a run, the run's next event enters the queue in its place. The
// caller mends the cached top.
func (e *Engine) take(ev *Event) {
	next := e.successor(ev)
	if ev.index == inWheel {
		e.wheel.unlink(ev)
	} else {
		e.heap.remove(ev.index)
	}
	if next != nil {
		e.enqueue(next)
	}
}

// pop removes and returns the earliest pending event, the cached top,
// and finds the top again, looking from the popped event's time: every
// event left sorts after it. In the usual case the top is a plain event
// at the head of its wheel slot, and when the slot holds more, the next
// one, due in the same cycle, is the wheel's first.
func (e *Engine) pop() *Event {
	ev := e.top
	if ev.index == inWheel && ev.next == nil && ev != e.arrivals.head {
		if h := e.wheel.unlink(ev); h != nil && (len(e.heap) == 0 || h.before(e.heap[0])) {
			e.top = h
			return ev
		}
	} else {
		e.take(ev)
	}
	e.top = e.earliest(ev.at)
	return ev
}

// earliest returns the first pending event, or nil when none is: the
// earlier of the wheel's first event and the heap's top. Every pending
// event is due at from or later.
func (e *Engine) earliest(from Time) *Event {
	var w *Event
	if e.wheel.n > 0 {
		w = e.wheel.first(from)
	}
	if len(e.heap) > 0 {
		if h := e.heap[0]; w == nil || h.before(w) {
			return h
		}
	}
	return w
}

// wheel is a hashed timing wheel (Varghese and Lauck, SOSP 1987) of
// one-cycle slots. It holds only events due before now+wheelSize, so no
// two pending times share a slot: slot at&wheelMask holds the events due
// at exactly at. A slot is a list linked through Event.slotNext, sorted
// by (stream, seq); its head's slotPrev points at its tail. A new event
// on the serial engine draws the largest seq yet, so it joins its slot
// at the tail, and slot(now) is the FIFO of everything due now; only a
// run's successor (an earlier seq) or a cluster lane's event (another
// stream's counter) walks back from the tail. bits marks the occupied
// slots and words the nonzero words of bits, so the next occupied slot
// is two bit scans away.
type wheel struct {
	slots [wheelSize]*Event
	bits  [wheelWords]uint64
	words uint64
	n     int
}

// insert adds ev to its slot in (stream, seq) order.
func (w *wheel) insert(ev *Event) {
	i := int(ev.at & wheelMask)
	ev.index = inWheel
	w.n++
	h := w.slots[i]
	if h == nil {
		ev.slotPrev, ev.slotNext = ev, nil
		w.slots[i] = ev
		w.bits[i>>6] |= 1 << (i & 63)
		w.words |= 1 << (i >> 6)
		return
	}
	t := h.slotPrev
	if !ev.before(t) { // the usual case: behind the tail
		t.slotNext, ev.slotPrev, ev.slotNext = ev, t, nil
		h.slotPrev = ev
		return
	}
	// ev goes before n: walk back from the tail while it sorts before
	// n's predecessor too.
	n := t
	for n != h && ev.before(n.slotPrev) {
		n = n.slotPrev
	}
	if n == h { // the new head
		ev.slotPrev, ev.slotNext = t, h
		h.slotPrev = ev
		w.slots[i] = ev
		return
	}
	p := n.slotPrev
	p.slotNext, ev.slotPrev, ev.slotNext = ev, p, n
	n.slotPrev = ev
}

// unlink removes ev from its slot and returns the slot's head, nil when
// the slot is left empty.
func (w *wheel) unlink(ev *Event) *Event {
	i := int(ev.at & wheelMask)
	h, next := w.slots[i], ev.slotNext
	switch {
	case ev != h:
		p := ev.slotPrev
		p.slotNext = next
		if next != nil {
			next.slotPrev = p
		} else {
			h.slotPrev = p
		}
	case next != nil:
		next.slotPrev = h.slotPrev
		w.slots[i] = next
	default:
		w.slots[i] = nil
		if w.bits[i>>6] &^= 1 << (i & 63); w.bits[i>>6] == 0 {
			w.words &^= 1 << (i >> 6)
		}
	}
	ev.slotPrev, ev.slotNext = nil, nil
	ev.index = notQueued
	w.n--
	return w.slots[i]
}

// first returns the head of the first occupied slot at or after from's,
// wrapping around: the wheel's earliest event when every event in it is
// due in [from, from+wheelSize). The wheel must not be empty.
func (w *wheel) first(from Time) *Event {
	i := int(from & wheelMask)
	k := i >> 6
	if b := w.bits[k] >> (i & 63); b != 0 {
		return w.slots[i+bits.TrailingZeros64(b)]
	}
	later := w.words &^ (uint64(2)<<k - 1)
	if later == 0 {
		later = w.words
	}
	k = bits.TrailingZeros64(later)
	return w.slots[k<<6+bits.TrailingZeros64(w.bits[k])]
}

// eventHeap is a binary min-heap ordered by (at, stream, seq) — stream
// is zero everywhere on a serial engine, so its order there is the
// classic (at, seq). It holds only the events due at least wheelSize
// cycles after now when they were queued: timers set far out and the
// heads of runs of processor bookings or arrivals that reach past the
// wheel's span. It is hand-rolled rather than built on container/heap,
// whose interface-based Less/Swap calls were a measurable share of run
// time when every event passed through the heap.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool { return h[i].before(h[j]) }

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// remove deletes the event at index i, preserving heap order.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i], old[n] = old[n], old[i]
		old[i].index = i
	}
	old[n].index = notQueued
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

// up sifts the event at i toward the root.
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].index = i
		h[parent].index = parent
		i = parent
	}
}

// down sifts the event at i toward the leaves, reporting whether it moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		next := left
		if right := left + 1; right < n && h.less(right, left) {
			next = right
		}
		if !h.less(next, i) {
			break
		}
		h[i], h[next] = h[next], h[i]
		h[i].index = i
		h[next].index = next
		i = next
	}
	return i > start
}
