package network

import (
	"strings"
	"testing"

	"compmig/internal/fault"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// faultyNet builds a network with an injector attached for the given
// plan (script-only plans pass a zero Spec). Its machine retires when the
// test ends.
func faultyNet(t *testing.T, spec *fault.Spec) (*sim.Engine, *Network, *fault.Injector) {
	t.Helper()
	e := sim.NewEngine(1)
	col := stats.NewCollector()
	n := New(newTestMachine(t, e, 4), Crossbar{}, []*stats.Collector{col}, 17, 0)
	inj := fault.NewInjector(spec)
	n.AttachFaults(inj)
	return e, n, inj
}

// A scripted drop of the first transmission must be recovered by a
// retransmission, and the message must arrive exactly once.
func TestReliableRetransmitsDroppedMessage(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{RTO: 100})
	inj.ScriptDrop("req", 1)

	arrivals := 0
	var at sim.Time
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req", Payload: []uint32{7}},
		func(m *Message) {
			arrivals++
			at = e.Now()
			if len(m.Payload) != 1 || m.Payload[0] != 7 {
				t.Errorf("payload corrupted in retransmission: %v", m.Payload)
			}
		})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", arrivals)
	}
	if at != 100+17 { // timer at RTO, retransmit flies one transit
		t.Errorf("arrival at %d, want %d", at, 100+17)
	}
	c := inj.Counters
	if c.Dropped != 1 || c.Retransmits != 1 || c.Timeouts != 1 {
		t.Errorf("counters = %+v", c)
	}
}

// A scripted duplication must be suppressed at the receiver: arrive
// runs once, and the duplicate is counted.
func TestReliableSuppressesDuplicate(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{RTO: 1000})
	inj.ScriptDup("req", 1)

	arrivals := 0
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req"}, func(*Message) { arrivals++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", arrivals)
	}
	c := inj.Counters
	if c.Duplicated == 0 || c.DupSuppressed == 0 {
		t.Errorf("counters = %+v", c)
	}
	if c.Retransmits != 0 {
		t.Errorf("duplicate caused %d retransmits, want 0", c.Retransmits)
	}
}

// A lost ack must trigger a retransmission whose delivery is then
// suppressed as a duplicate — the arrive callback still runs once.
func TestReliableAckLossRetransmitThenDedup(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{RTO: 100})
	inj.ScriptDrop("ack", 1)

	arrivals := 0
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req"}, func(*Message) { arrivals++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", arrivals)
	}
	c := inj.Counters
	if c.AckDropped != 1 || c.Retransmits != 1 || c.DupSuppressed != 1 {
		t.Errorf("counters = %+v", c)
	}
}

// Deliveries into a crash window are lost; the sender's backoff carries
// the retransmissions past the window and the message lands after the
// processor restarts — exactly once.
func TestReliableRecoversAcrossCrashWindow(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{
		Windows: []fault.Window{{Proc: 1, Start: 0, Dur: 500}},
		RTO:     100, RTOMax: 400,
	})
	arrivals := 0
	var at sim.Time
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req"}, func(*Message) { arrivals++; at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", arrivals)
	}
	if at < 500 {
		t.Errorf("delivered at %d, inside the crash window [0,500)", at)
	}
	if inj.Counters.CrashDropped == 0 || inj.Counters.Retransmits == 0 {
		t.Errorf("counters = %+v", inj.Counters)
	}
}

// A pause window holds deliveries and releases them at its end instead
// of dropping them.
func TestReliablePauseWindowDelaysDelivery(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{
		Windows: []fault.Window{{Proc: 1, Start: 0, Dur: 300, Pause: true}},
	})
	var at sim.Time
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req"}, func(*Message) { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 300 {
		t.Errorf("delivered at %d, want released at window end 300", at)
	}
	if inj.Counters.PauseDelayed == 0 {
		t.Errorf("counters = %+v", inj.Counters)
	}
	if inj.Counters.CrashDropped != 0 {
		t.Errorf("pause window dropped a delivery: %+v", inj.Counters)
	}
}

// Under 100% drop the sender must give up after its bounded attempt
// budget with a typed error — and the event loop must drain, not hang.
func TestReliableGiveUpBounded(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{Drop: 1, RTO: 50, RTOMax: 100, MaxAttempts: 3})
	var got *fault.GiveUpError
	var gotTok uint64
	n.SendGuarded(&Message{Src: 0, Dst: 1, Kind: "req"},
		func(*Message) { t.Error("message arrived despite 100% drop") },
		func(tok uint64, err *fault.GiveUpError) { gotTok, got = tok, err }, 42)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no give-up error delivered")
	}
	if got.Kind != "req" || got.Attempts != 3 {
		t.Errorf("give-up error = %+v", got)
	}
	if gotTok != 42 {
		t.Errorf("give-up token = %d, want the 42 it was sent with", gotTok)
	}
	if inj.Counters.GiveUps != 1 || inj.Counters.Dropped != 3 {
		t.Errorf("counters = %+v", inj.Counters)
	}
}

// A give-up with no recovery callback must fail loudly — a silent drop
// would deadlock the simulation.
func TestReliableGiveUpWithoutGuardPanics(t *testing.T) {
	e, n, _ := faultyNet(t, &fault.Spec{Drop: 1, RTO: 50, MaxAttempts: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unguarded give-up did not panic")
		}
		if !strings.Contains(r.(string), "unrecoverable") {
			t.Errorf("panic message %q lacks context", r)
		}
	}()
	n.Send(&Message{Src: 0, Dst: 1, Kind: "coherence"}, func(*Message) {})
	_ = e.Run()
}

// The reliability framing charges its sequence/ack words on the wire:
// a framed message costs more than an unframed one, and acks show up in
// the message count.
func TestReliableFramingIsCharged(t *testing.T) {
	e, n, _ := faultyNet(t, &fault.Spec{DelayMax: 1})
	n.Send(&Message{Src: 0, Dst: 1, Kind: "req", Payload: []uint32{1}}, func(*Message) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	col := n.rel.col
	wantReq := uint64(HeaderWords + 1 + frameWords)
	wantAck := uint64(HeaderWords + ackWireWords)
	if col.WordsSent != wantReq+wantAck {
		t.Errorf("words sent = %d, want %d message + %d ack", col.WordsSent, wantReq, wantAck)
	}
	if col.TotalMessages() != 2 {
		t.Errorf("message count = %d, want 1 message + 1 ack", col.TotalMessages())
	}
}

// Same plan, same seed, twice: identical counter trajectories. The
// injector draws only from its own stream.
func TestReliableDeterministic(t *testing.T) {
	run := func() fault.Counters {
		e, n, inj := faultyNet(t, &fault.Spec{Drop: 0.2, Dup: 0.1, DelayMax: 30, Seed: 9, RTO: 200})
		for i := 0; i < 200; i++ {
			n.Send(&Message{Src: i % 4, Dst: (i + 1) % 4, Kind: "req"}, func(*Message) {})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return inj.Counters
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Retransmits == 0 {
		t.Errorf("plan injected nothing: %+v", a)
	}
}

// A warm send, delivery and ack cycle allocates nothing: the in-flight
// record comes from the free list with its callbacks already bound,
// and duplicate suppression and ack matching go through the record
// instead of maps. Every transmission is duplicated, and an RTO shorter
// than the round trip makes each message retransmit twice before its
// ack lands, so the cycle covers the retransmit and duplicate paths.
func TestReliableSendAllocs(t *testing.T) {
	e, n, inj := faultyNet(t, &fault.Spec{Dup: 1, RTO: 10})
	m := &Message{Src: 0, Dst: 1, Kind: "req", Payload: []uint32{7}}
	arrivals := 0
	arrive := func(*Message) { arrivals++ }
	cycle := func() {
		n.Send(m, arrive)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the record free list and the engine's event pool
	}
	before, arrived := inj.Counters, arrivals
	const runs = 100
	allocs := testing.AllocsPerRun(runs, cycle)
	c := inj.Counters
	// AllocsPerRun makes one warm-up call on top of its runs.
	if got := arrivals - arrived; got != runs+1 {
		t.Errorf("%d arrivals over %d cycles, want one per cycle", got, runs+1)
	}
	if c.Retransmits == before.Retransmits || c.DupSuppressed == before.DupSuppressed {
		t.Errorf("cycle took no retransmit or no duplicate: before %+v, after %+v", before, c)
	}
	if allocs > 0 {
		t.Errorf("a warm reliable send allocates %v objects, want 0", allocs)
	}
}

// Pool safety: with every transmission duplicated under jitter, a
// short RTO, and lost messages and acks, duplicate deliveries and
// duplicate acks keep landing after their record has settled, while
// later sends take records from the free list. Every message must still
// reach arrive exactly once, one transit after its send at the
// earliest, and after the engine drains every record ever made, and
// every record revived from an earlier test's retired lane, must be back
// on the free list, once.
func TestReliableRecordPoolSafety(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		e, n, inj := faultyNet(t, &fault.Spec{
			Drop: 0.1, Dup: 1, DelayMax: 300, Seed: seed,
			RTO: 150, RTOMax: 600, MaxAttempts: 40,
		})
		revived := len(n.rel.pool.free)
		const msgs = 300
		sentAt := make([]sim.Time, msgs)
		arrivals := make([]int, msgs)
		for i := 0; i < msgs; i++ {
			// Sends trickle out while earlier messages' copies and acks
			// are still in flight, so records are reissued under them.
			e.Schedule(sim.Time(i*7), func() {
				sentAt[i] = e.Now()
				n.Send(&Message{Src: i % 3, Dst: (i + 1) % 3, Kind: "req", Payload: []uint32{uint32(i)}},
					func(m *Message) {
						if m == nil {
							t.Fatalf("seed %d: arrive got no message", seed)
						}
						j := int(m.Payload[0])
						arrivals[j]++
						if e.Now() < sentAt[j]+17 {
							t.Errorf("seed %d: message %d arrived at %d, under one transit after its send at %d",
								seed, j, e.Now(), sentAt[j])
						}
					})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i, a := range arrivals {
			if a != 1 {
				t.Errorf("seed %d: message %d arrived %d times, want exactly 1", seed, i, a)
			}
		}
		c := inj.Counters
		if c.GiveUps != 0 || c.DupSuppressed == 0 || c.AckDropped == 0 || c.Dropped == 0 {
			t.Errorf("seed %d: plan did not exercise late copies and lost acks: %+v", seed, c)
		}
		r := n.rel
		if r.made >= msgs {
			t.Errorf("seed %d: %d records for %d messages: none was reused", seed, r.made, msgs)
		}
		seen := make(map[*relPending]bool, len(r.pool.free))
		for _, p := range r.pool.free {
			if seen[p] {
				t.Fatalf("seed %d: a record is on the free list twice", seed)
			}
			seen[p] = true
		}
		if len(r.pool.free) != revived+r.made {
			t.Errorf("seed %d: %d of %d records back on the free list after the run drained",
				seed, len(r.pool.free), revived+r.made)
		}
	}
}
