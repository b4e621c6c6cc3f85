package profile

import "testing"

// TestSnapshotNamesBenchCounters pins the section names the benchmark
// module reads from Snapshot by name: renaming or dropping one would make
// its per-layer counts silently read zero.
func TestSnapshotNamesBenchCounters(t *testing.T) {
	names := make(map[string]bool)
	for _, s := range Snapshot() {
		if names[s.Name] {
			t.Errorf("section %q declared twice", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{
		"engine.heap_pushes", "net.sends",
		"mem.fast_hits", "mem.fast_local", "mem.slow",
		"policy.rpc", "policy.cm", "policy.sm", "policy.om",
		"fault.drops", "fault.dups", "fault.retransmits", "fault.timeouts", "fault.giveups",
		"store.wal_appends", "store.checkpoint_bytes", "store.replay_events", "store.recovery_cycles",
	} {
		if !names[want] {
			t.Errorf("Snapshot does not name %q", want)
		}
	}
}

// TestAddDeltasKeepsOnlyMovedSections checks the report rows: a section
// that did not move is left out, and host time appears only when some
// section recorded any.
func TestAddDeltasKeepsOnlyMovedSections(t *testing.T) {
	before := Snapshot()
	ShardFallbacks.Add(3)
	var e BenchEntry
	e.AddDeltas(before, Snapshot())
	if len(e.Counters) != 1 || e.Counters["shard.fallbacks"] != 3 {
		t.Errorf("counters = %v, want only shard.fallbacks=3", e.Counters)
	}
	if e.HostNs != nil {
		t.Errorf("host_ns = %v with timing off", e.HostNs)
	}
	e.SetCounter("latency.p99", 0)
	if _, ok := e.Counters["latency.p99"]; ok {
		t.Error("zero counter recorded")
	}
}
