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

// Site is one annotated call site (§3.1): the mechanism the program's
// scheme gives it, and on a policy run the Chooser that picks one per
// operation instead.
type Site struct {
	Mech    Mechanism
	Chooser Chooser // nil = every operation runs under Mech
}

// Op is one operation in progress at a call site.
type Op struct {
	// Mech is the mechanism the operation runs under.
	Mech  Mechanism
	site  Chooser
	start sim.Time
}

// Choose opens an operation at site whose first remote target is g. The
// caller runs the operation under op.Mech and then calls op.Done, which
// reports the operation's simulated duration to the site's chooser:
//
//	op := t.Choose(&site, g)
//	defer op.Done(t)
//
// Without a chooser op.Mech is the site's static mechanism and Done does
// nothing. The bracket is a plain value rather than a callback, so the
// task does not escape and nothing is allocated per operation.
func (t *Task) Choose(site *Site, g gid.GID) Op {
	if site.Chooser == nil {
		return Op{Mech: site.Mech}
	}
	return Op{Mech: site.Chooser.Begin(t.Proc(), g), site: site.Chooser, start: t.Now()}
}

// Done closes the operation Choose opened.
func (op Op) Done(t *Task) {
	if op.site != nil {
		op.site.End(t.Proc(), op.Mech, uint64(t.Now()-op.start))
	}
}
