package network

import (
	"compmig/internal/fault"
	"compmig/internal/sim"
	"compmig/internal/stats"
)

// frameWords is the wire cost of the reliability framing per message:
// one word of sequence number and one word of protocol flags/route for
// the ack. Charged on every transmission so retried traffic stays
// cycle-meaningful.
const frameWords = 2

// ackWireWords is the payload size of an ack (the echoed sequence
// number); the header is charged on top as for any message.
const ackWireWords = 1

// reliability implements at-most-once delivery over a faulty wire:
// sequence-numbered framing, receiver acks with duplicate suppression,
// and sender retransmission under a capped exponential backoff. It
// exists only while a fault injector is attached; the fault-free path
// never touches any of this.
//
// Each logical message is one relPending record, taken from a free list
// and returned to it once settled and unreferenced, so a warm faulted
// message path allocates nothing. The free list outlives the run: it is
// the records the layer keeps on its engine (sim.Keep).
type reliability struct {
	n   *Network
	eng *sim.Engine
	col *stats.Collector
	inj *fault.Injector

	nextSeq uint64
	pool    *relPool
	//simvet:allow read by TestReliableRecordPoolSafety, which checks that records are reused and all come back to the free list
	made int // records ever allocated
}

// relPool is the free list of settled relPending records.
type relPool struct{ free []*relPending }

// Retire drops each record's reliability layer when the machine
// retires; send rebinds a record when it takes it. A released record
// holds nothing else.
func (rp *relPool) Retire() int {
	for _, p := range rp.free {
		p.r = nil
	}
	return len(rp.free)
}

// relPending is one logical message from its send until it is settled
// (acked or given up) and no scheduled event names it any longer. It
// keeps what retransmission and tracing read; the caller's message
// itself is held only until its first delivery hands it to arrive, so
// the receiver may recycle it and the sender may reuse a pooled one.
//
// refs counts the scheduled events that name the record: every
// delivery copy, every ack copy, and the armed timer. A duplicate or an
// ack can land long after the record settled, so the record goes back
// to the free list only once it is settled and refs is 0: no late event
// ever acts on a record reissued to another message.
type relPending struct {
	r *reliability

	m         *Message // until the first delivery
	kind      string
	src, dst  int
	words     uint64 // framed wire size
	seq       uint64
	recvDelay uint64
	arrive    func(*Message)
	onGiveUp  func(tok uint64, err *fault.GiveUpError)
	tok       uint64 // handed back to onGiveUp

	attempts  int
	rto       uint64
	timer     *sim.Event
	refs      int
	delivered bool // the first delivery has run: later copies are duplicates
	settled   bool // acked or given up: later acks do nothing

	// Bound onTimeout, onLand and onAck, built once per record.
	fire, land, ack func()
}

// send frames, transmits, and arms the retransmission timer for one
// logical message.
func (r *reliability) send(m *Message, recvDelay uint64, arrive func(*Message), onGiveUp func(uint64, *fault.GiveUpError), tok uint64) {
	var p *relPending
	if k := len(r.pool.free); k > 0 {
		p = r.pool.free[k-1]
		r.pool.free[k-1] = nil
		r.pool.free = r.pool.free[:k-1]
		p.r = r
	} else {
		p = &relPending{r: r}
		p.fire, p.land, p.ack = p.onTimeout, p.onLand, p.onAck
		r.made++
	}
	r.nextSeq++
	p.m, p.kind, p.src, p.dst = m, m.Kind, m.Src, m.Dst
	p.words = m.Words() + frameWords
	p.seq = r.nextSeq
	p.recvDelay, p.arrive, p.onGiveUp, p.tok = recvDelay, arrive, onGiveUp, tok
	p.rto = r.inj.RTOInitial()
	r.transmit(p)
	p.timer = r.eng.Schedule(p.rto, p.fire)
	p.refs++
}

// transmit puts one copy of p's message on the wire: full word and
// transit-cycle charges every time (a retransmission consumes the same
// machine resources as the original), then the injector's verdict.
func (r *reliability) transmit(p *relPending) {
	p.attempts++
	if p.attempts > 1 {
		r.inj.Counters.Retransmits++
	}
	r.col.CountMessage(p.words)
	lat := r.n.Latency(p.src, p.dst, p.words)
	r.col.AddCycles(stats.CatNetworkTransit, lat)
	if r.eng.Tracing() {
		r.eng.Tracef("send", "%s p%d->p%d %dw seq=%d try=%d",
			p.kind, p.src, p.dst, p.words, p.seq, p.attempts)
	}
	v := r.inj.Judge(p.kind)
	if v.Drop {
		// The wire ate it after the sender paid for it; the timer will
		// retransmit.
		r.inj.Counters.Dropped++
		if r.eng.Tracing() {
			r.eng.Tracef("fault", "drop %s p%d->p%d seq=%d", p.kind, p.src, p.dst, p.seq)
		}
		return
	}
	r.deliverAfter(p, lat+p.recvDelay+v.Delay)
	if v.Dup {
		r.inj.Counters.Duplicated++
		r.deliverAfter(p, lat+p.recvDelay+v.DupDelay)
	}
}

// deliverAfter lands one copy of p's message at the destination after
// delay, subject to the destination's outage windows.
func (r *reliability) deliverAfter(p *relPending, delay uint64) {
	at := uint64(r.eng.Now()) + delay
	drop, resume := r.inj.DeliveryDown(p.dst, at)
	if drop {
		r.inj.Counters.CrashDropped++
		return
	}
	if resume > at {
		r.inj.Counters.PauseDelayed++
		delay += resume - at
	}
	r.eng.Schedule(delay, p.land)
	p.refs++
}

// onLand runs when a copy of the message arrives: ack first (even for
// duplicates — the first ack may have been lost), then suppress
// duplicates, then hand the message to the caller's arrive exactly
// once. The record lets go of the message before arrive runs, so the
// receiver owns it from then on.
func (p *relPending) onLand() {
	p.refs--
	r := p.r
	if r.eng.Tracing() {
		r.eng.Tracef("deliver", "%s p%d->p%d seq=%d", p.kind, p.src, p.dst, p.seq)
	}
	r.sendAck(p)
	if p.delivered {
		r.inj.Counters.DupSuppressed++
		r.release(p)
		return
	}
	p.delivered = true
	m, arrive := p.m, p.arrive
	p.m, p.arrive = nil, nil
	r.release(p)
	arrive(m)
}

// sendAck sends the receiver's ack back to the sender, itself subject
// to loss, duplication, and the sender's outage windows.
func (r *reliability) sendAck(p *relPending) {
	r.inj.Counters.Acks++
	words := uint64(HeaderWords + ackWireWords)
	r.col.CountMessage(words)
	lat := r.n.Latency(p.dst, p.src, words)
	r.col.AddCycles(stats.CatNetworkTransit, lat)
	v := r.inj.Judge("ack")
	if v.Drop {
		r.inj.Counters.AckDropped++
		return
	}
	r.ackAfter(p, lat+v.Delay)
	if v.Dup {
		r.inj.Counters.Duplicated++
		r.ackAfter(p, lat+v.DupDelay)
	}
}

// ackAfter lands one ack copy at the original sender after delay,
// subject to the sender's outage windows.
func (r *reliability) ackAfter(p *relPending, delay uint64) {
	at := uint64(r.eng.Now()) + delay
	drop, resume := r.inj.DeliveryDown(p.src, at)
	if drop {
		r.inj.Counters.AckDropped++
		return
	}
	if resume > at {
		r.inj.Counters.PauseDelayed++
		delay += resume - at
	}
	r.eng.Schedule(delay, p.ack)
	p.refs++
}

// onAck settles the record and disarms its timer. Late and duplicate
// acks, and acks after a give-up, find it settled and do nothing.
func (p *relPending) onAck() {
	p.refs--
	if !p.settled {
		p.settled = true
		if p.timer != nil {
			p.timer.Cancel()
			p.timer = nil
			p.refs--
		}
	}
	p.r.release(p)
}

// onTimeout fires when an ack has not arrived within the current RTO:
// back off and retransmit, or give up after the attempt budget.
func (p *relPending) onTimeout() {
	p.timer = nil // this event just fired; it must not be cancelled later
	p.refs--
	r := p.r
	r.inj.Counters.Timeouts++
	if p.attempts >= r.inj.MaxAttempts() {
		p.settled = true
		r.inj.Counters.GiveUps++
		err := &fault.GiveUpError{Kind: p.kind, Src: p.src, Dst: p.dst, Attempts: p.attempts}
		if p.onGiveUp == nil {
			// Protocol traffic with no recovery slot (coherence,
			// replica updates). At sane fault rates the attempt budget makes
			// this astronomically unlikely; a silent drop would deadlock
			// the event loop, so fail loudly instead.
			panic("network: unrecoverable message loss: " + err.Error())
		}
		onGiveUp, tok := p.onGiveUp, p.tok
		r.release(p)
		onGiveUp(tok, err)
		return
	}
	if p.rto < r.inj.RTOMax() {
		p.rto *= 2
		if p.rto > r.inj.RTOMax() {
			p.rto = r.inj.RTOMax()
		}
	}
	r.transmit(p)
	p.timer = r.eng.Schedule(p.rto, p.fire)
	p.refs++
}

// release returns p to the free list once it is settled and no
// scheduled event names it. A record given up before its first
// delivery drops the undelivered message with it.
func (r *reliability) release(p *relPending) {
	if !p.settled || p.refs > 0 {
		return
	}
	*p = relPending{r: r, fire: p.fire, land: p.land, ack: p.ack}
	r.pool.free = append(r.pool.free, p)
}
