package core

import (
	"errors"
	"testing"

	"compmig/internal/cost"
	"compmig/internal/fault"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// Wire messages are recycled through the lanes' pools, so a payload
// released before its receiver is done with it is overwritten by the
// next send. These tests keep many operations in flight, each carrying
// words of its own, and check every result against what was sent.

// echoArg is a request whose handler reads its last words only after it
// has blocked: a tag, pad copies of the tag's low word, and last.
type echoArg struct {
	tag, last uint64
	pad       int
}

func (a *echoArg) MarshalWords(w *msg.Writer) {
	w.PutU64(a.tag)
	for i := 0; i < a.pad; i++ {
		w.PutU32(uint32(a.tag))
	}
	w.PutU64(a.last)
}

// echoReply is what the handler read: the tag, the last word, and
// whether every pad word still matched the tag.
type echoReply struct {
	tag, last uint64
	padOK     bool
}

func (a *echoReply) UnmarshalWords(r *msg.Reader) error {
	a.tag, a.last, a.padOK = r.U64(), r.U64(), r.Bool()
	return r.Err()
}

func TestRecycledPayloadsSurviveBlockedReceivers(t *testing.T) {
	const nprocs, callers, iters = 4, 16, 12
	r := newRig(t, nprocs, cost.Software())
	// A corrupted location or record can forward a message forever: fail
	// on the runaway instead of hanging.
	r.eng.MaxEvents = 100000
	mEcho := r.rt.RegisterMethod("cell.echo", false, func(t *Task, _ any, args *msg.Reader, reply *msg.Writer) {
		tag := args.U64()
		t.Work(50) // other messages are sent, delivered and released meanwhile
		padOK := true
		for args.Remaining() > 2 {
			if args.U32() != uint32(tag) {
				padOK = false
			}
		}
		last := args.U64()
		reply.PutU64(tag)
		reply.PutU64(last)
		reply.PutBool(padOK && args.Err() == nil)
	})
	// Two movers keep cells[3] travelling, so callers' location hints go
	// stale and their requests are forwarded. They pull at the same
	// cycles from different processors: one's fetch finds the object
	// gone to the other, follows it, and polls its in-flight pin there,
	// holding its fetch message while calls recycle the same pool.
	moving := r.cells[3]
	waits, inFlight := watchPins(r.rt)
	last := moving.Home()
	for _, procs := range [][]int{{1, 2}, {0}} {
		r.eng.Spawn("mover", 0, func(th *sim.Thread) {
			for i := 0; i < 6; i++ {
				th.Sleep(3000)
				proc := procs[i%len(procs)]
				if err := r.rt.NewTask(th, proc).PullObject(moving, 8); err != nil {
					t.Error(err)
				}
				last = proc
			}
		})
	}
	for c := 0; c < callers; c++ {
		proc := c % nprocs
		r.eng.Spawn("caller", 0, func(th *sim.Thread) {
			task := r.rt.NewTask(th, proc)
			for i := 0; i < iters; i++ {
				target := r.cells[(proc+1+(c+i)%(nprocs-1))%nprocs]
				switch (c + i) % 3 {
				case 0, 1:
					tag := uint64(c)<<32 | uint64(i)
					arg := &echoArg{tag: tag, last: tag*7 + 3, pad: (c + i) % 5}
					var rep echoReply
					if err := task.Call(target, mEcho, arg, &rep); err != nil {
						t.Error(err)
						return
					}
					if rep.tag != arg.tag || rep.last != arg.last || !rep.padOK {
						t.Errorf("caller %d call %d: handler read %+v, sent %+v", c, i, rep, *arg)
					}
				case 2:
					// The migrated record blocks in a call at target.
					peer := r.cells[(proc+2)%nprocs]
					bias := uint64(c*100 + i + 1)
					got := r.call(task, target, peer, bias)
					want := r.rt.Objects.State(target).(*cell).val + r.rt.Objects.State(peer).(*cell).val + bias
					if got != want {
						t.Errorf("caller %d walk %d: got %d, want %d", c, i, got, want)
					}
				}
			}
		})
	}
	r.run(t)
	t.Logf("%d forwards, %d pin waits, %d for an object in flight", r.col.Forwards, *waits, *inFlight)
	if home := r.rt.Objects.Home(moving); home != last {
		t.Errorf("cells[3] ended on processor %d, but its last pull was to %d", home, last)
	}
	if *waits == 0 || *inFlight == 0 {
		t.Errorf("%d fetches waited out a pin, %d of them for an object in flight; want both > 0", *waits, *inFlight)
	}
	if r.col.Forwards == 0 {
		t.Error("no request was forwarded from a stale location")
	}
	if r.col.MigrationsSent == 0 {
		t.Error("no walk left its processor")
	}
	if len(r.rt.lanes[0].msgs) == 0 {
		t.Error("no message returned to the pool")
	}
}

// Under faults a reply id is recycled once its reply has completed the
// slot, so a long faulted run does not exhaust the 20 bits the linkage
// packs it into.
func TestFaultedReplyIDsRecycled(t *testing.T) {
	r, _ := newFaultRig(t, 2)
	for i := 0; i <= 1<<20; i++ {
		id, s := r.rt.newReply(0)
		packLinkage(0, id)
		r.rt.completeReply(0, id, nil, nil)
		if _, _, err := s.wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.rt.lanes[0].replies); n != 1 {
		t.Errorf("issued %d distinct reply ids, want 1", n)
	}
}

// A give-up armed for a slot that has since completed, been recycled and
// been reissued (every ack of a delivered message lost) must not fail
// the reissued slot's operation.
func TestStaleGiveUpLeavesReissuedSlotAlone(t *testing.T) {
	r, _ := newFaultRig(t, 2)
	id, s := r.rt.newReply(0)
	tok := r.rt.guard(0, id)
	r.rt.completeReply(0, id, nil, nil)
	s.wait(nil)

	id2, s2 := r.rt.newReply(0)
	if id2 != id || s2 != s {
		t.Fatalf("reissue took id %d slot %p, want the recycled id %d slot %p", id2, s2, id, s)
	}
	r.rt.onGiveUp(tok, &fault.GiveUpError{Kind: "reply", Attempts: 3})
	if s2.done || r.rt.lanes[0].replies[id2-1] != s2 {
		t.Fatal("a stale give-up settled the reissued slot")
	}
	r.rt.completeReply(0, id2, []uint32{7}, nil)
	if words, _, err := s2.wait(nil); err != nil || len(words) != 1 || words[0] != 7 {
		t.Errorf("reissued slot settled with %v, %v; want [7], nil", words, err)
	}
}

// An id that failReply settled is retired: a late reply may still name
// it, so it must find no slot rather than complete someone else's.
func TestFailedReplyIDNeverReissued(t *testing.T) {
	r, inj := newFaultRig(t, 2)
	id, s := r.rt.newReply(0)
	r.rt.onGiveUp(r.rt.guard(0, id), &fault.GiveUpError{Kind: "rpc", Attempts: 3})
	var gu *fault.GiveUpError
	if _, _, err := s.wait(nil); !errors.As(err, &gu) {
		t.Fatalf("failed slot settled with %v, want a *fault.GiveUpError", err)
	}
	for i := 0; i < 1000; i++ {
		id2, s2 := r.rt.newReply(0)
		if id2 == id {
			t.Fatalf("failed id %d reissued", id)
		}
		r.rt.completeReply(0, id2, nil, nil)
		s2.wait(nil)
	}
	r.rt.completeReply(0, id, []uint32{1}, nil)
	if inj.Counters.LateReplies != 1 {
		t.Errorf("late reply for the failed id: LateReplies = %d, want 1", inj.Counters.LateReplies)
	}
}
