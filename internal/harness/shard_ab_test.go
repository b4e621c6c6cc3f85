package harness

import (
	"strings"
	"testing"

	"compmig/internal/profile"
)

// renderTables renders an experiment's tables as one string.
func renderTables(t *testing.T, id string, o Options) string {
	t.Helper()
	tabs, err := Run(id, o)
	if err != nil {
		t.Fatalf("Run(%q, shards=%d): %v", id, o.Shards, err)
	}
	var b strings.Builder
	for _, tb := range tabs {
		b.WriteString(tb.String())
	}
	return b.String()
}

// TestShardCountIdentity is the sharded engine's suite-level identity
// bar: a full rendered experiment must come out byte-identical at every
// shard count. fig2 exercises the clustered countnet runner (its CM and
// RPC curves run on the sharded engine; its SM curve falls back to the
// serial engine on every shard count); table1 exercises the B-tree,
// which always falls back, pinning that Shards is inert there.
func TestShardCountIdentity(t *testing.T) {
	for _, id := range []string{"fig2", "table1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := quick
			o.Shards = 1
			base := renderTables(t, id, o)
			for _, shards := range []int{2, 4, 8} {
				o.Shards = shards
				if got := renderTables(t, id, o); got != base {
					t.Errorf("experiment %q renders differently at shards=%d vs shards=1:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
						id, shards, base, shards, got)
				}
			}
		})
	}
}

// TestShardScaleIdentity pins the scale sweep itself: the large-mesh
// experiment renders identically at shards=1 and shards=8, including
// its serial B-tree rows.
func TestShardScaleIdentity(t *testing.T) {
	o := quick
	o.Shards = 1
	base := renderTables(t, "scale", o)
	o.Shards = 8
	if got := renderTables(t, "scale", o); got != base {
		t.Errorf("scale sweep renders differently at shards=8 vs shards=1:\n--- shards=1 ---\n%s\n--- shards=8 ---\n%s",
			base, got)
	}
}

// TestShardScaleEventCount pins the scale sweep's event-count claim:
// the clustered runs process exactly the same number of simulated
// events at every shard count — the lanes split the work, they never
// add to it.
func TestShardScaleEventCount(t *testing.T) {
	var base uint64
	for _, shards := range []int{1, 2, 4} {
		o := quick
		o.Shards = shards
		before := profile.ShardEvents.Count.Load()
		renderTables(t, "scale", o)
		got := profile.ShardEvents.Count.Load() - before
		if shards == 1 {
			if got == 0 {
				t.Fatal("scale sweep at shards=1 processed no clustered events")
			}
			base = got
		} else if got != base {
			t.Errorf("shards=%d processed %d events, shards=1 processed %d", shards, got, base)
		}
	}
}
