package mem

import (
	"compmig/internal/sim"
)

// Prefetching — §2.5's latency-hiding factor for data migration:
// "Prefetching will lower the relative cost of performing data
// migration, since the delays involved with data migration can be
// overlapped with computation."
//
// Prefetch issues non-blocking shared fetches; an in-flight table (the
// hardware's MSHRs) ensures a demand Read that arrives while the line is
// already on its way joins the pending fetch instead of duplicating it.

// Prefetch starts fetching every line of [addr, addr+size) for proc in
// shared state without blocking. Lines already cached or already in
// flight are skipped.
func (s *System) Prefetch(proc int, addr Addr, size uint64) {
	if size == 0 {
		return
	}
	first := lineOf(addr)
	last := lineOf(addr + Addr(size) - 1)
	for line := first; ; line += LineBytes {
		s.prefetchLine(proc, line)
		if line == last {
			break
		}
	}
}

func (s *System) prefetchLine(proc int, line Addr) {
	c := s.caches[proc]
	if c.lookup(line) != nil {
		return
	}
	if s.inflight[proc] == nil {
		s.inflight[proc] = make(map[Addr]*sim.Future)
	}
	if _, pending := s.inflight[proc][line]; pending {
		return
	}
	s.col.Prefetches++
	fut := &sim.Future{}
	s.inflight[proc][line] = fut
	s.fetch(proc, line, false, fut)
	// Install on arrival without a waiting thread: the cache controller
	// does it in the background.
	s.eng.Schedule(0, func() { s.awaitPrefetch(proc, line, fut) })
}

// awaitPrefetch installs a prefetched line when its data arrives. It
// runs as a tiny helper thread standing in for the cache controller's
// fill logic.
func (s *System) awaitPrefetch(proc int, line Addr, fut *sim.Future) {
	s.eng.Spawn("prefetch-fill", 0, func(th *sim.Thread) {
		release := fut.Wait(th).(func())
		victim, vstate := s.caches[proc].install(line, shared)
		release()
		delete(s.inflight[proc], line)
		if vstate == modified {
			s.writeback(proc, victim)
		}
	})
}

// joinInflight lets a demand read wait on a pending prefetch of the same
// line instead of issuing a duplicate fetch. It reports whether it
// joined (and therefore waited).
func (s *System) joinInflight(th *sim.Thread, proc int, line Addr) bool {
	fut, ok := s.inflight[proc][line]
	if !ok {
		return false
	}
	s.col.PrefetchJoins++
	// Wait for the fill; the prefetch helper installs the line. waiting
	// on a completed future returns immediately.
	fut.Wait(th)
	return true
}
