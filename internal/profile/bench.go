package profile

// BenchReport is the file paperfigs -bench-json writes and benchdiff
// reads. Counters travel by section name, so a newly declared Section
// reaches both tools with no edit to either.
type BenchReport struct {
	Date        string       `json:"date"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	Quick       bool         `json:"quick"`
	Seed        uint64       `json:"seed"`
	Experiments []BenchEntry `json:"experiments"`
}

// BenchEntry is one measured (experiment, workers, shards) cell of a
// report. Counters holds every section count that grew during the run,
// plus the merged simulated latency percentiles (latency.p50/p95/p99,
// in cycles) when the experiment measures them; counts are simulation
// results, so a changed one means the simulated behavior changed.
// HostNs holds each section's host nanoseconds and is filled only while
// timing is enabled. Reports written before the maps existed still load:
// they carry the identity, wall-clock and allocation fields and no
// counters.
type BenchEntry struct {
	Experiment string            `json:"experiment"`
	Workers    int               `json:"workers"`
	Shards     int               `json:"shards"`
	WallMS     float64           `json:"wall_ms"`
	Allocs     uint64            `json:"allocs"`
	AllocBytes uint64            `json:"alloc_bytes"`
	Tables     int               `json:"tables"`
	Counters   map[string]uint64 `json:"counters,omitempty"`
	HostNs     map[string]int64  `json:"host_ns,omitempty"`
}

// AddDeltas records the growth of every section between two snapshots
// taken by the same process, skipping sections that did not move.
func (e *BenchEntry) AddDeltas(before, after []Stat) {
	for i, s := range after {
		if d := s.Count - before[i].Count; d != 0 {
			e.SetCounter(s.Name, d)
		}
		if d := s.Ns - before[i].Ns; d != 0 {
			if e.HostNs == nil {
				e.HostNs = make(map[string]int64)
			}
			e.HostNs[s.Name] = d
		}
	}
}

// SetCounter records a nonzero counter value.
func (e *BenchEntry) SetCounter(name string, v uint64) {
	if v == 0 {
		return
	}
	if e.Counters == nil {
		e.Counters = make(map[string]uint64)
	}
	e.Counters[name] = v
}
