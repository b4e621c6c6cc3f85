package core

import (
	"compmig/internal/gid"
	"compmig/internal/sim"
)

// Chooser selects the mechanism for one high-level operation at a call
// site and learns from how long the operation took (internal/policy's
// Site). Both calls are host-side bookkeeping: zero simulated time.
type Chooser interface {
	Begin(proc int, g gid.GID) Mechanism
	End(proc int, m Mechanism, cycles uint64)
}

// Op is one operation in progress at a Chooser's call site.
type Op struct {
	// Mech is the mechanism the site chose for the operation.
	Mech  Mechanism
	site  Chooser
	start sim.Time
}

// Choose opens an operation at site whose first remote target is g. The
// caller runs the operation under op.Mech and then calls op.Done, which
// reports the operation's simulated duration back to site:
//
//	op := t.Choose(site, g)
//	defer op.Done(t)
//
// The bracket is a plain value rather than a callback, so the task does
// not escape and nothing is allocated per operation.
func (t *Task) Choose(site Chooser, g gid.GID) Op {
	return Op{Mech: site.Begin(t.Proc(), g), site: site, start: t.Now()}
}

// Done closes the operation Choose opened.
func (op Op) Done(t *Task) {
	op.site.End(t.Proc(), op.Mech, uint64(t.Now()-op.start))
}
