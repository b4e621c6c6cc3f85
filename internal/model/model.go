// Package model implements the analytic message-count model of §2.5 and
// Figure 1: one thread on processor P0 makes n consecutive accesses to
// each of m data items living on processors 1..m.
//
//   - RPC: every access is remote — two messages per access, 2·n·m total.
//   - Data migration: each datum moves to the thread once — two messages
//     per datum (request + data), 2·m total, after which accesses are
//     local. Coherence traffic for write-shared data comes on top and is
//     deliberately outside this model (the paper measures it instead).
//   - Computation migration: the thread portion hops to each datum in
//     turn — one message per datum — and the final return short-circuits
//     directly back to P0: m+1 total.
package model

import "fmt"

// Mechanism identifies a remote-access mechanism in the model.
type Mechanism int

const (
	RPC Mechanism = iota
	DataMigration
	ComputationMigration
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case RPC:
		return "RPC"
	case DataMigration:
		return "data migration"
	case ComputationMigration:
		return "computation migration"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Messages returns the number of messages mech needs for the §2.5
// scenario: n consecutive accesses to each of m remote data items.
func Messages(mech Mechanism, n, m int) int {
	if n < 0 || m < 0 {
		panic("model: negative scenario parameters")
	}
	if m == 0 {
		return 0
	}
	switch mech {
	case RPC:
		return 2 * n * m
	case DataMigration:
		return 2 * m
	case ComputationMigration:
		return m + 1
	default:
		panic("model: unknown mechanism")
	}
}

// Winner returns the cheapest mechanism for the (n, m) scenario. Data
// migration's count excludes coherence traffic, so the answer matches
// the paper's idealized read-only comparison.
func Winner(n, m int) Mechanism {
	best := RPC
	for _, mech := range []Mechanism{DataMigration, ComputationMigration} {
		if Messages(mech, n, m) < Messages(best, n, m) {
			best = mech
		}
	}
	return best
}
