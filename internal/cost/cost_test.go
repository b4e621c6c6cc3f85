package cost

import "testing"

// calibrationWords is the payload size (32-bit words) of the paper's
// counting-network migration message: 32 bytes copied at the receiver.
const calibrationWords = 8

// TestTable5Calibration checks that the software model reproduces the
// per-category cycle counts of Table 5 for the paper's 8-word
// counting-network migration message.
func TestTable5Calibration(t *testing.T) {
	m := Software()
	n := uint64(calibrationWords)

	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"marshal", m.Marshal(n), 22},
		{"unmarshal", m.Unmarshal(n), 51},
		{"copy packet", m.CopyPacket(n), 76},
		{"transit", m.Transit(0), 17},
		{"send linkage", m.SendLinkage, 44},
		{"send alloc", m.SendAllocPacket, 35},
		{"message send", m.MessageSend, 23},
		{"thread creation", m.ThreadCreation, 66},
		{"recv linkage", m.RecvLinkage, 66},
		{"gid translation", m.GIDTranslation, 36},
		{"scheduler", m.Scheduler, 36},
		{"forwarding check", m.ForwardingCheck, 23},
		{"recv alloc", m.RecvAllocPacket, 16},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// The paper's totals are stated as "approximate": sender 143,
	// receiver 341. Our component sums must land near them.
	send := m.SendOverhead(n)
	if send < 120 || send > 150 {
		t.Errorf("sender total = %d, want ~143 (Table 5)", send)
	}
	recv := m.RecvOverhead(n, false)
	if recv < 330 || recv > 380 {
		t.Errorf("receiver total = %d, want ~341 (Table 5)", recv)
	}
}

// TestHWMessagingReductions checks the paper's §4 estimates: copy drops to
// ~12 cycles, packet allocation disappears, marshal/unmarshal halve.
func TestHWMessagingReductions(t *testing.T) {
	sw, hw := Software(), Software().WithHWMessaging()
	n := uint64(calibrationWords)
	if got := hw.CopyPacket(n); got != 12 {
		t.Errorf("hw copy = %d, want 12", got)
	}
	if hw.SendAllocPacket != 0 || hw.RecvAllocPacket != 0 {
		t.Error("hw messaging should remove packet allocation")
	}
	if hw.Marshal(n) > sw.Marshal(n)/2+2 {
		t.Errorf("hw marshal = %d, not ~half of %d", hw.Marshal(n), sw.Marshal(n))
	}
	if hw.Unmarshal(n) > sw.Unmarshal(n)/2+5 {
		t.Errorf("hw unmarshal = %d, not ~half of %d", hw.Unmarshal(n), sw.Unmarshal(n))
	}
	if hw.GIDTranslation != sw.GIDTranslation {
		t.Error("hw messaging should leave GID translation alone")
	}
}

func TestHWTranslation(t *testing.T) {
	hw := Software().WithHWTranslation()
	if hw.GIDTranslation != 0 {
		t.Errorf("translation = %d, want 0", hw.GIDTranslation)
	}
	if n := uint64(calibrationWords); hw.SendOverhead(n) != Software().SendOverhead(n) {
		t.Error("hw translation should leave messaging alone")
	}
}

// TestHWSavingsMagnitude reproduces the paper's statement that hardware
// message support improves migration cost by about twenty percent, and
// translation hardware removes another ~6%.
func TestHWSavingsMagnitude(t *testing.T) {
	n := uint64(calibrationWords)
	sw := Software()
	// One migration hop: sender + transit + receiver + user code (150).
	total := func(m Model) uint64 {
		return m.SendOverhead(n) + m.Transit(0) + m.RecvOverhead(n, false) + 150
	}
	base := total(sw)
	if base < 600 || base > 700 {
		t.Fatalf("software migration hop = %d cycles, want ~651 (Table 5)", base)
	}
	msgHW := total(sw.WithHWMessaging())
	saving := float64(base-msgHW) / float64(base)
	if saving < 0.12 || saving > 0.30 {
		t.Errorf("hw messaging saves %.0f%%, paper says ~20%%", saving*100)
	}
	full := total(Hardware())
	extra := float64(msgHW-full) / float64(base)
	if extra < 0.03 || extra > 0.10 {
		t.Errorf("hw translation saves extra %.0f%%, paper says ~6%%", extra*100)
	}
}

func TestShortMethodSkipsThreadCreation(t *testing.T) {
	m := Software()
	long := m.RecvOverhead(4, false)
	short := m.RecvOverhead(4, true)
	if long-short != m.ThreadCreation {
		t.Errorf("short-method saving = %d, want %d", long-short, m.ThreadCreation)
	}
}

func TestOverheadMonotonicInSize(t *testing.T) {
	m := Software()
	for n := uint64(1); n < 64; n++ {
		if m.SendOverhead(n) >= m.SendOverhead(n+1) {
			t.Fatalf("send overhead not increasing at %d words", n)
		}
		if m.RecvOverhead(n, false) >= m.RecvOverhead(n+1, false) {
			t.Fatalf("recv overhead not increasing at %d words", n)
		}
	}
}

func TestWithActiveMessagesInPackage(t *testing.T) {
	am := Software().WithActiveMessages()
	if am.ThreadCreation != 0 {
		t.Error("AM model still creates threads")
	}
	if am.Scheduler >= Software().Scheduler {
		t.Error("AM model scheduler not reduced")
	}
	if am.RecvOverhead(8, false) != am.RecvOverhead(8, true) {
		t.Error("short and long receive should match under AM")
	}
}
