// Package cost holds the cycle-cost model for the software messaging
// runtime, calibrated from Table 5 of the paper ("Approximate costs for
// migration in counting network"). The paper measured these costs in RISC
// cycles on Proteus; we charge the same amounts per runtime operation, so
// the relative costs of RPC, computation migration, and shared memory are
// preserved.
//
// Costs with a per-word component (marshal, unmarshal, copy, wire time)
// are expressed as base + perWord*n and calibrated so that the paper's
// 8-word (32-byte) counting-network migration message reproduces the
// Table 5 numbers.
package cost

// Model is the set of cycle prices for one machine configuration.
type Model struct {
	// Sender side (Table 5 "Sender total": 143 cycles for an 8-word payload).
	SendLinkage     uint64 // procedure linkage into the client stub: 44
	SendAllocPacket uint64 // allocate packet: 35 (0 with HW messaging)
	MessageSend     uint64 // message send / network injection: 23
	MarshalBase     uint64 // marshal fixed part
	MarshalPerWord  uint64 // marshal per payload word (22 total at 8 words)

	// Network.
	NetTransitBase   uint64 // transit latency: 17 in Table 5
	NetTransitPerHop uint64 // extra cycles per mesh hop (0 for constant-latency)

	// Receiver side (Table 5 "Receiver total": 341 cycles).
	CopyPacketBase    uint64 // copy fixed part
	CopyPacketPerWord uint64 // copy per word (76 total for 8 words sw; ~12 hw)
	ThreadCreation    uint64 // create handler thread: 66 (skipped for short methods)
	RecvLinkage       uint64 // procedure linkage on receive: 66
	UnmarshalBase     uint64 // unmarshal fixed part
	UnmarshalPerWord  uint64 // unmarshal per word (51 total at 8 words)
	GIDTranslation    uint64 // global object identifier translation: 36 (0 with HW)
	Scheduler         uint64 // scheduler dispatch: 36
	ForwardingCheck   uint64 // check whether the object moved: 23
	RecvAllocPacket   uint64 // allocate packet on receiver: 16 (0 with HW)

	// HWMessaging marks the Henry/Joerg register-mapped network interface
	// estimate; HWTranslation the J-Machine-style GID translation hardware.
	// These flags record how the model was derived; the cycle fields above
	// already reflect them.
	HWMessaging   bool
	HWTranslation bool
}

// Software returns the measured software-runtime model of Table 5.
func Software() Model {
	return Model{
		SendLinkage:     44,
		SendAllocPacket: 35,
		MessageSend:     23,
		MarshalBase:     6,
		MarshalPerWord:  2, // 6 + 2*8 = 22

		NetTransitBase:   17,
		NetTransitPerHop: 0,

		CopyPacketBase:    4,
		CopyPacketPerWord: 9, // 4 + 9*8 = 76
		ThreadCreation:    66,
		RecvLinkage:       66,
		UnmarshalBase:     11,
		UnmarshalPerWord:  5, // 11 + 5*8 = 51
		GIDTranslation:    36,
		Scheduler:         36,
		ForwardingCheck:   23,
		RecvAllocPacket:   16,
	}
}

// WithHWMessaging applies the paper's register-mapped network-interface
// estimate (§4): copy overhead drops to ~12 cycles, packets need not be
// allocated (messages are composed in registers), and marshal/unmarshal
// costs are halved.
func (m Model) WithHWMessaging() Model {
	m.HWMessaging = true
	m.SendAllocPacket = 0
	m.RecvAllocPacket = 0
	m.CopyPacketBase = 4
	m.CopyPacketPerWord = 1 // 4 + 1*8 = 12
	m.MarshalBase = (m.MarshalBase + 1) / 2
	m.MarshalPerWord = (m.MarshalPerWord + 1) / 2
	m.UnmarshalBase = (m.UnmarshalBase + 1) / 2
	m.UnmarshalPerWord = (m.UnmarshalPerWord + 1) / 2
	return m
}

// WithHWTranslation applies the paper's J-Machine-style hardware
// global-object-identifier translation estimate: the translation cost
// disappears.
func (m Model) WithHWTranslation() Model {
	m.HWTranslation = true
	m.GIDTranslation = 0
	return m
}

// Hardware returns the full hardware-support model ("w/HW" in the paper's
// tables): both the network-interface and translation estimates.
func Hardware() Model {
	return Software().WithHWMessaging().WithHWTranslation()
}

// WithActiveMessages applies the paper's §6 proposal of rewriting the
// runtime in an Active-Messages style [vECGS92]: incoming messages run
// their handler directly out of the network interrupt, so no handler
// thread is created and dispatch through the scheduler is minimal.
func (m Model) WithActiveMessages() Model {
	m.ThreadCreation = 0
	m.Scheduler = (m.Scheduler + 1) / 2
	return m
}

// Marshal returns the cycles to marshal a payload of n words.
func (m Model) Marshal(n uint64) uint64 { return m.MarshalBase + m.MarshalPerWord*n }

// Unmarshal returns the cycles to unmarshal a payload of n words.
func (m Model) Unmarshal(n uint64) uint64 { return m.UnmarshalBase + m.UnmarshalPerWord*n }

// CopyPacket returns the cycles to copy an n-word payload out of the
// network interface.
func (m Model) CopyPacket(n uint64) uint64 { return m.CopyPacketBase + m.CopyPacketPerWord*n }

// Transit returns the network transit latency over hops mesh hops.
func (m Model) Transit(hops uint64) uint64 { return m.NetTransitBase + m.NetTransitPerHop*hops }

// SendOverhead returns total sender-side cycles for an n-word payload.
func (m Model) SendOverhead(n uint64) uint64 {
	return m.SendLinkage + m.SendAllocPacket + m.MessageSend + m.Marshal(n)
}

// RecvOverhead returns total receiver-side cycles for an n-word payload.
// If short is true the active-message fast path is used and no handler
// thread is created (Prelude's optimization for short methods, §4.3).
func (m Model) RecvOverhead(n uint64, short bool) uint64 {
	t := m.CopyPacket(n) + m.RecvLinkage + m.Unmarshal(n) +
		m.GIDTranslation + m.Scheduler + m.ForwardingCheck + m.RecvAllocPacket
	if !short {
		t += m.ThreadCreation
	}
	return t
}
