package harness

import (
	"testing"

	"compmig/internal/profile"
)

// counterDeltas runs experiment id at quick windows on the given number
// of workers and returns how far it moved each profile section's count.
func counterDeltas(t *testing.T, id string, workers int) []profile.Stat {
	t.Helper()
	o := quick
	o.Workers = workers
	before := profile.Snapshot()
	if _, err := Run(id, o); err != nil {
		t.Fatal(err)
	}
	after := profile.Snapshot()
	for i := range after {
		after[i].Count -= before[i].Count
	}
	return after
}

// TestCounterIdentityAcrossWorkers pins that every profile counter a
// quick sweep moves, engine.handoffs included, is the same at workers=1
// and workers=4. Engines running at the same time share host-side pools
// (the sim package's idle carriers, mem's cache backings); the counts
// are part of the simulated behaviour, so that sharing must not move
// them.
func TestCounterIdentityAcrossWorkers(t *testing.T) {
	defer profile.Enable(profile.Enabled())
	profile.Enable(true) // engine.heap_pushes counts only while enabled
	for _, id := range []string{"ext-fault", "ext-kv", "ext-recovery"} {
		serial, pooled := counterDeltas(t, id, 1), counterDeltas(t, id, 4)
		for i, s := range serial {
			if s.Name == "engine.handoffs" && s.Count == 0 {
				t.Errorf("%s: engine.handoffs did not move", id)
			}
			if p := pooled[i]; p.Count != s.Count {
				t.Errorf("%s: %s = %d at workers=4, %d at workers=1", id, s.Name, p.Count, s.Count)
			}
		}
	}
}
