// Package gid defines global object identifiers for the simulated
// distributed object space. A GID names an object anywhere on the
// machine; in the software runtime, translating a GID to a local pointer
// costs cycles (Table 5 "Object ID translation"), which hardware support
// à la the J-Machine removes.
//
// A GID packs the object's home processor in its upper half so that
// locality checks — which the paper notes happen on every instance
// method call — are a single comparison.
package gid

// GID is a global object identifier.
type GID uint64

// Nil is the zero GID; it names no object.
const Nil GID = 0

const homeShift = 32

// Make builds a GID for serial number serial homed on processor home.
// Serial numbers start at 1 so that Nil stays invalid.
func Make(home int, serial uint32) GID {
	if home < 0 || home > 1<<30 {
		panic("gid: home processor out of range")
	}
	if serial == 0 {
		panic("gid: serial must be nonzero")
	}
	return GID(uint64(home)<<homeShift | uint64(serial))
}

// Home returns the processor the object lives on.
func (g GID) Home() int { return int(uint64(g) >> homeShift) }

// IsNil reports whether g names no object.
func (g GID) IsNil() bool { return g == Nil }

// Allocator hands out serial numbers.
type Allocator struct {
	next uint32
}

// Next returns a fresh GID homed on the given processor.
func (a *Allocator) Next(home int) GID {
	a.next++
	return Make(home, a.next)
}
