// Package stats collects the measurements the paper reports: message and
// word counts (bandwidth), operation throughput, and per-category cycle
// breakdowns (Table 5). All counters are plain — the simulator runs one
// goroutine at a time, so no synchronization is needed.
package stats

import "fmt"

// Category labels a cycle-cost bucket. The set mirrors Table 5 of the
// paper, split into sender-side, transit, and receiver-side costs, plus
// user code.
type Category int

const (
	CatUserCode Category = iota
	CatNetworkTransit
	// Receiver-side.
	CatCopyPacket
	CatThreadCreation
	CatRecvLinkage
	CatUnmarshal
	CatGIDTranslation
	CatScheduler
	CatForwardingCheck
	CatRecvAllocPacket
	// Sender-side.
	CatSendLinkage
	CatSendAllocPacket
	CatMessageSend
	CatMarshal
	// Shared-memory substrate (not in Table 5; separate accounting).
	CatCacheAccess
	CatCoherence
	// Synchronization (lock spin/queue handling).
	CatSync
	// Durable store: WAL appends, fsync barriers, checkpoints, replay.
	CatDurability

	numCategories
)

var categoryNames = [numCategories]string{
	CatUserCode:        "User code",
	CatNetworkTransit:  "Network transit",
	CatCopyPacket:      "Copy packet",
	CatThreadCreation:  "Thread creation",
	CatRecvLinkage:     "Procedure linkage (recv)",
	CatUnmarshal:       "Unmarshaling",
	CatGIDTranslation:  "Object ID translation",
	CatScheduler:       "Scheduler",
	CatForwardingCheck: "Forwarding check",
	CatRecvAllocPacket: "Allocate packet (recv)",
	CatSendLinkage:     "Procedure linkage (send)",
	CatSendAllocPacket: "Allocate packet (send)",
	CatMessageSend:     "Message send",
	CatMarshal:         "Marshaling",
	CatCacheAccess:     "Cache access",
	CatCoherence:       "Coherence protocol",
	CatSync:            "Synchronization",
	CatDurability:      "Durability",
}

// String returns the human-readable category name used in Table 5.
func (c Category) String() string {
	if c < 0 || c >= numCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// ReceiverCategories lists the buckets Table 5 groups under "Receiver
// total", in the paper's order.
func ReceiverCategories() []Category {
	return []Category{
		CatCopyPacket, CatThreadCreation, CatRecvLinkage, CatUnmarshal,
		CatGIDTranslation, CatScheduler, CatForwardingCheck, CatRecvAllocPacket,
	}
}

// SenderCategories lists the buckets Table 5 groups under "Sender total".
func SenderCategories() []Category {
	return []Category{CatSendLinkage, CatSendAllocPacket, CatMessageSend, CatMarshal}
}

// Collector accumulates every measurement for one simulation run.
type Collector struct {
	cycles [numCategories]uint64

	// messages counts runtime-level messages.
	messages uint64
	// WordsSent counts total 32-bit words put on the network.
	WordsSent uint64
	// Ops counts completed high-level operations (counting-network
	// requests, B-tree ops).
	Ops uint64
	// OpLatency accumulates total op latency in cycles, for mean latency.
	OpLatency uint64
	// Latency is the full operation-latency distribution.
	Latency Histogram

	// Cache statistics for the shared-memory substrate.
	CacheHits       uint64
	CacheMisses     uint64
	Invalidations   uint64
	ProtocolMsgs    uint64
	LimitlessTraps  uint64
	Prefetches      uint64
	PrefetchJoins   uint64
	ReplicaReads    uint64
	ReplicaWrites   uint64
	MigrationsSent  uint64
	MigrationsLocal uint64
	Forwards        uint64
	RPCCalls        uint64
	ShortCalls      uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// AddFrom merges another collector's measurements into s: cycle
// categories, message counts, operations, latency distribution, and the
// named counters all add. The merge is commutative, which is what lets
// a sharded run keep one collector per lane and fold them into the
// serial collector's totals afterwards. Windowed rates are computed from
// summed snapshots of the lanes' counters (machine.Window).
func (s *Collector) AddFrom(o *Collector) {
	for c := range s.cycles {
		s.cycles[c] += o.cycles[c]
	}
	s.messages += o.messages
	s.WordsSent += o.WordsSent
	s.Ops += o.Ops
	s.OpLatency += o.OpLatency
	s.Latency.AddFrom(&o.Latency)
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Invalidations += o.Invalidations
	s.ProtocolMsgs += o.ProtocolMsgs
	s.LimitlessTraps += o.LimitlessTraps
	s.Prefetches += o.Prefetches
	s.PrefetchJoins += o.PrefetchJoins
	s.ReplicaReads += o.ReplicaReads
	s.ReplicaWrites += o.ReplicaWrites
	s.MigrationsSent += o.MigrationsSent
	s.MigrationsLocal += o.MigrationsLocal
	s.Forwards += o.Forwards
	s.RPCCalls += o.RPCCalls
	s.ShortCalls += o.ShortCalls
}

// AddCycles charges n cycles to category c.
func (s *Collector) AddCycles(c Category, n uint64) { s.cycles[c] += n }

// TotalCycles sums all categories.
func (s *Collector) TotalCycles() uint64 {
	var t uint64
	for _, v := range s.cycles {
		t += v
	}
	return t
}

// SumCycles sums the given categories.
func (s *Collector) SumCycles(cats []Category) uint64 {
	var t uint64
	for _, c := range cats {
		t += s.cycles[c]
	}
	return t
}

// CountMessage records one message carrying words 32-bit words (header
// included).
func (s *Collector) CountMessage(words uint64) {
	s.messages++
	s.WordsSent += words
}

// TotalMessages returns the number of messages sent.
func (s *Collector) TotalMessages() uint64 { return s.messages }

// CountOp records one completed high-level operation and its latency.
func (s *Collector) CountOp(latency uint64) {
	s.Ops++
	s.OpLatency += latency
	s.Latency.Observe(latency)
}

// MeanOpLatency returns average operation latency in cycles.
func (s *Collector) MeanOpLatency() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.OpLatency) / float64(s.Ops)
}

// HitRate returns the cache hit fraction in [0,1].
func (s *Collector) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// BreakdownRow is one line of a Table 5-style report.
type BreakdownRow struct {
	Label   string
	Cycles  float64
	Percent float64
	Indent  int
}

// Breakdown renders per-migration average costs in the layout of Table 5.
// divisor is the number of migrations to average over.
func (s *Collector) Breakdown(divisor uint64) []BreakdownRow {
	if divisor == 0 {
		divisor = 1
	}
	d := float64(divisor)
	total := float64(s.TotalCycles()) / d
	row := func(label string, cyc float64, indent int) BreakdownRow {
		pct := 0.0
		if total > 0 {
			pct = cyc / total * 100
		}
		return BreakdownRow{Label: label, Cycles: cyc, Percent: pct, Indent: indent}
	}
	recv := float64(s.SumCycles(ReceiverCategories())) / d
	send := float64(s.SumCycles(SenderCategories())) / d
	rows := []BreakdownRow{
		row("Total time", total, 0),
		row("User code", float64(s.cycles[CatUserCode])/d, 0),
		row("Network transit", float64(s.cycles[CatNetworkTransit])/d, 0),
		row("Message overhead total", recv+send, 0),
		row("Receiver total", recv, 1),
	}
	for _, c := range ReceiverCategories() {
		rows = append(rows, row(c.String(), float64(s.cycles[c])/d, 2))
	}
	rows = append(rows, row("Sender total", send, 1))
	for _, c := range SenderCategories() {
		rows = append(rows, row(c.String(), float64(s.cycles[c])/d, 2))
	}
	return rows
}
