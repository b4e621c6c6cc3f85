package core

import "compmig/internal/store"

// Logged is object state that renders itself as a write-ahead-log record
// (internal/store): what the object's state looks like in the log.
type Logged interface {
	// Record returns the record that reinstalls the object's current
	// state; an object with independent sub-states (a KV partition's
	// keys) returns sub-state sub's, others ignore sub.
	Record(sub uint64) store.Record
}

// Log durably logs the current state of objs (sub-state sub) at their
// home processors, in one append, and does nothing on a run without a
// WAL. At the home the charge blocks the task, so the mutation is not
// acknowledged until its log write is paid for; a record homed elsewhere
// (a shared-memory requester mutating a remote object) is charged at its
// home asynchronously. Every record is registered before any yield, so a
// multi-object mutation (a node split's two images) is atomic with
// respect to wipes.
func (t *Task) Log(sub uint64, objs ...Logged) {
	w := t.rt.WAL
	if w == nil {
		return
	}
	recs := make([]store.Record, 0, 2) // on the stack for up to two objects
	for _, o := range objs {
		recs = append(recs, o.Record(sub))
	}
	w.Append(t.th, t.Proc(), recs...)
}
