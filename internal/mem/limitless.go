package mem

import "fmt"

// LimitLESS support. The Alewife protocol the paper points to [CKA91]
// keeps a small fixed number of hardware directory pointers per line;
// when a line gains more sharers than that, directory operations on it
// trap to software on the home node's CPU. Widely read-shared lines are
// therefore cheap to read but expensive to invalidate — and the home
// processor, not just its memory module, pays for it.
//
// DirPointers == 0 selects a full-map hardware directory (the default,
// and what the experiments in the paper's tables assume); a positive
// value enables the LimitLESS behaviour for ablation studies.

// softwareHandled reports whether a directory operation on this entry
// must trap to software, and charges the home CPU when it does.
func (s *System) softwareHandled(home int, d *dirEntry, done func()) bool {
	if s.p.DirPointers <= 0 || d.sharers.count() <= s.p.DirPointers {
		return false
	}
	s.col.LimitlessTraps++
	// The trap runs on the home processor itself: interrupt entry, walk
	// of the overflowed sharer set, interrupt exit.
	cost := s.p.SoftDirBase + s.p.SoftDirPerSharer*uint64(d.sharers.count())
	s.mach.Proc(home).ExecAsync(cost, done)
	return true
}

// CheckCoherence validates the protocol's single-writer/multi-reader
// invariant at quiescence (no transactions in flight):
//
//   - at most one cache holds a given line modified;
//   - a modified copy excludes shared copies elsewhere;
//   - a modified copy is recorded as the directory owner;
//   - every cached copy is known to the directory (sharer or owner) —
//     silent shared evictions may leave stale directory entries, but
//     never the reverse.
//
// Tests call it after the event heap drains.
//
//simvet:allow the coherence invariant checker; the protocol tests and the module's integration test run it at quiescence
func (s *System) CheckCoherence() error {
	for p, c := range s.caches {
		for i := range c.lines {
			l := &c.lines[i]
			if !c.valid(l) {
				continue
			}
			d := s.dirs[HomeOf(l.tag)][l.tag]
			switch {
			case d == nil:
				return fmt.Errorf("mem: line %#x cached with no directory entry", l.tag)
			case d.busy:
				return fmt.Errorf("mem: line %#x directory busy at quiescence", l.tag)
			case l.state == modified && d.owner != p:
				return fmt.Errorf("mem: line %#x modified in cache %d but directory owner is %d", l.tag, p, d.owner)
			case l.state != modified && !d.sharers.has(p) && d.owner != p:
				// A shared copy must be a recorded sharer (or the stale
				// owner whose recall raced a writeback hint).
				return fmt.Errorf("mem: line %#x cached shared on %d unknown to directory", l.tag, p)
			}
			if l.state != modified {
				continue
			}
			for q, o := range s.caches {
				if q != p && o.peek(l.tag, false) {
					return fmt.Errorf("mem: line %#x cached on %d alongside a modified copy on %d", l.tag, q, p)
				}
			}
		}
	}
	return nil
}
