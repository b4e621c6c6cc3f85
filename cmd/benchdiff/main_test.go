package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles benchdiff once into the test's temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchdiff")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building benchdiff: %v\n%s", err, out)
	}
	return bin
}

// writeReport drops a bench-json fixture into dir and returns its path.
func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"shards":0,"wall_ms":100,"allocs":1000},
 {"experiment":"ext-recovery","workers":1,"shards":0,"wall_ms":200,"allocs":2000,
  "counters":{"store.wal_appends":5000,"store.checkpoint_bytes":4096,
   "store.replay_events":40,"store.recovery_cycles":90000}}
]}`

const newReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"shards":0,"wall_ms":105,"allocs":1000},
 {"experiment":"ext-recovery","workers":1,"shards":0,"wall_ms":210,"allocs":2000,
  "counters":{"store.wal_appends":5200,"store.checkpoint_bytes":4096,
   "store.replay_events":44,"store.recovery_cycles":95000}}
]}`

// legacyReport is in the format written before counters were keyed by
// name: its per-counter fields are not part of the report type.
const legacyReport = `{"quick":true,"experiments":[
 {"experiment":"ext-recovery","workers":1,"shards":0,"wall_ms":190,"allocs":1900,
  "fast_hits":10,"slow_misses":5,"shard_windows":0,"wal_appends":4900,
  "checkpoint_bytes":4000,"replay_events":39,"recovery_cycles":88000,"tables":1}
]}`

// parallelOld and parallelNew hold one experiment at workers=1 and 4
// whose allocations both rose 10%.
const parallelOld = `{"quick":true,"experiments":[
 {"experiment":"ext-kv","workers":1,"shards":0,"wall_ms":100,"allocs":1000},
 {"experiment":"ext-kv","workers":4,"shards":0,"wall_ms":100,"allocs":1000}
]}`

const parallelNew = `{"quick":true,"experiments":[
 {"experiment":"ext-kv","workers":1,"shards":0,"wall_ms":100,"allocs":1100},
 {"experiment":"ext-kv","workers":4,"shards":0,"wall_ms":100,"allocs":1100}
]}`

const regressedReport = `{"quick":true,"experiments":[
 {"experiment":"fig1","workers":1,"shards":0,"wall_ms":200,"allocs":1000}
]}`

// TestDriverExitCodes audits the exit-code contract: 0 = reports
// compared, 1 = threshold gate tripped, 2 = unusable input. The
// durability rows also pin the counter line: new counts always render,
// a change against the old report is called out, and a report in the
// legacy format still loads and diffs without any marks.
func TestDriverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the driver")
	}
	bin := buildDriver(t)
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", oldReport)
	newPath := writeReport(t, dir, "new.json", newReport)
	legacyPath := writeReport(t, dir, "legacy.json", legacyReport)
	regPath := writeReport(t, dir, "reg.json", regressedReport)
	badPath := writeReport(t, dir, "bad.json", "{not json")
	emptyPath := writeReport(t, dir, "empty.json", `{"experiments":[]}`)
	parOldPath := writeReport(t, dir, "par-old.json", parallelOld)
	parNewPath := writeReport(t, dir, "par-new.json", parallelNew)
	otherPath := writeReport(t, dir, "other.json",
		`{"experiments":[{"experiment":"table9","workers":1,"shards":0,"wall_ms":1}]}`)

	cases := []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{"report only", []string{oldPath, newPath}, 0,
			[]string{"fig1", "ext-recovery",
				"store.checkpoint_bytes=4096  store.recovery_cycles=95000 (was 90000)  store.replay_events=44 (was 40)  store.wal_appends=5200 (was 5000)"}},
		{"identical durability counters stay quiet", []string{newPath, newPath}, 0,
			[]string{"store.wal_appends=5200"}},
		{"legacy report loads", []string{legacyPath, newPath}, 0,
			[]string{"ext-recovery   1   0       190.0      210.0", "store.wal_appends=5200", "fig1"}},
		// Only the workers=4 allocation delta is approximate: its
		// count depends on how many carriers concurrent workers made.
		{"parallel allocs approximate", []string{parOldPath, parNewPath}, 0,
			[]string{"ext-kv         1   0       100.0      100.0    +0.0%          1100   +10.0%",
				"ext-kv         4   0       100.0      100.0    +0.0%          1100  ~+10.0%"}},
		{"threshold trips", []string{"-threshold", "10", oldPath, regPath}, 1, []string{"regressed"}},
		{"threshold passes", []string{"-threshold", "10", oldPath, newPath}, 0, nil},
		{"missing args", nil, 2, []string{"usage"}},
		{"ab without the -- separator", []string{"-ab", oldPath, newPath}, 2, []string{"usage: benchdiff -ab"}},
		{"unreadable file", []string{oldPath, filepath.Join(dir, "absent.json")}, 2, nil},
		{"invalid json", []string{oldPath, badPath}, 2, nil},
		{"empty report", []string{oldPath, emptyPath}, 2, []string{"no experiments"}},
		{"nothing in common", []string{oldPath, otherPath}, 2, []string{"no experiments in common"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				var exitErr *exec.ExitError
				if !errors.As(err, &exitErr) {
					t.Fatalf("running driver: %v\n%s", err, out)
				}
				code = exitErr.ExitCode()
			}
			if code != tc.exit {
				t.Fatalf("exit %d, want %d\n%s", code, tc.exit, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output missing %q\n%s", w, out)
				}
			}
		})
	}

	quiet := []struct{ name, old string }{
		{"identical reports flag nothing as changed", newPath},
		{"legacy report flags nothing as changed", legacyPath},
	}
	for _, q := range quiet {
		t.Run(q.name, func(t *testing.T) {
			out, err := exec.Command(bin, q.old, newPath).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if strings.Contains(string(out), "(was ") {
				t.Errorf("diff marks a counter as changed:\n%s", out)
			}
		})
	}
}
