// Package object implements the distributed object space of the
// Prelude-like runtime: every object has a global identifier, a home
// processor, and private state that only code executing on the home
// processor may touch (instance methods "always execute at the object on
// which they are invoked", §3.1).
package object

import (
	"fmt"

	"compmig/internal/gid"
)

// Space is the machine-wide object table. The simulator runs one
// goroutine at a time, so the table needs no locking; in a real system
// this would be a per-processor structure plus a name service.
type Space struct {
	alloc  gid.Allocator
	states map[gid.GID]any
	order  []gid.GID // every object, in creation order
	nprocs int

	// moved maps objects that have migrated away from their birth
	// processor (Emerald-style object mobility) to their current home.
	moved map[gid.GID]int
	// Moves counts object relocations.
	Moves uint64

	// journal, when set, observes creations and moves (see Journal).
	journal Journal
}

// Journal observes the object space's structural events so a durability
// layer (internal/store) can log them. Hooks run host-side at the
// mutation point; any simulated cycle cost they imply is the journal's
// to charge.
type Journal interface {
	// ObjectNew reports a new object placed on processor home.
	ObjectNew(g gid.GID, home int)
	// ObjectMove reports an object relocating from processor from to
	// processor to; it runs after the move, so Home(g) already answers to.
	ObjectMove(g gid.GID, from, to int)
}

// SetJournal installs (or clears, with nil) the space's journal.
func (s *Space) SetJournal(j Journal) { s.journal = j }

// NewSpace creates an object space for a machine with nprocs processors.
func NewSpace(nprocs int) *Space {
	if nprocs <= 0 {
		panic("object: need at least one processor")
	}
	return &Space{states: make(map[gid.GID]any), moved: make(map[gid.GID]int), nprocs: nprocs}
}

// New places an object with the given state on processor home and
// returns its GID.
func (s *Space) New(home int, state any) gid.GID {
	if home < 0 || home >= s.nprocs {
		panic(fmt.Sprintf("object: home %d out of range [0,%d)", home, s.nprocs))
	}
	g := s.alloc.Next(home)
	s.states[g] = state
	s.order = append(s.order, g)
	if s.journal != nil {
		s.journal.ObjectNew(g, home)
	}
	return g
}

// State returns the object's private state. Callers in the runtime must
// already be executing on the object's home processor; the runtime
// enforces that invariant.
func (s *Space) State(g gid.GID) any {
	st, ok := s.states[g]
	if !ok {
		panic(fmt.Sprintf("object: unknown gid %#x", uint64(g)))
	}
	return st
}

// Exists reports whether g names a live object.
func (s *Space) Exists(g gid.GID) bool {
	_, ok := s.states[g]
	return ok
}

// Home returns the object's current home processor — its birth
// processor unless it has migrated since.
func (s *Space) Home(g gid.GID) int {
	if h, ok := s.moved[g]; ok {
		return h
	}
	return g.Home()
}

// Move relocates an object to a new home (the Emerald-style mobility
// the paper wanted to compare against). The GID is unchanged: senders
// holding stale locations are corrected by forwarding.
func (s *Space) Move(g gid.GID, newHome int) {
	if !s.Exists(g) {
		panic(fmt.Sprintf("object: moving unknown gid %#x", uint64(g)))
	}
	if newHome < 0 || newHome >= s.nprocs {
		panic(fmt.Sprintf("object: move to processor %d out of range", newHome))
	}
	from := s.Home(g)
	if newHome == g.Home() {
		delete(s.moved, g)
	} else {
		s.moved[g] = newHome
	}
	s.Moves++
	if s.journal != nil {
		s.journal.ObjectMove(g, from, newHome)
	}
}

// HomedAt counts live objects whose current home is processor p — the
// population a wiped processor must re-register during recovery.
func (s *Space) HomedAt(p int) int {
	n := 0
	for g := range s.states {
		if s.Home(g) == p {
			n++
		}
	}
	return n
}

// GIDs returns every live object in creation order, the deterministic
// order for sweeps over the whole table. The caller must not modify it.
func (s *Space) GIDs() []gid.GID { return s.order }
