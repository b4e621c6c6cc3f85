// Package def is an analysistest fixture for unreadfield: each field
// below that no non-test code reads fires, whether it is only assigned,
// bumped, set in a composite literal or read by a test. Fields read by
// the sibling package user or by the nested consumer module, fields of
// structs that are compared, used as map keys or handed to
// encoding/json, and a justified allow do not.
package def

import "encoding/json"

// Counters holds the written-only fields and the fields read elsewhere.
type Counters struct {
	Hits   uint64 // want `field Counters.Hits is not read`
	misses uint64 // want `field Counters.misses is not read`
	bumps  uint64 // want `field Counters.bumps is not read`
	total  uint64 // want `field Counters.total is not read`
	label  string // want `field Counters.label is not read`
	probe  int    // want `field Counters.probe is not read`
	Shown  int    // read by package user
	Remote int    // read only by the nested consumer module

	//simvet:allow fixture: a justified allow suppresses the finding
	kept int
}

// Record writes every field of c in each form that is not a read.
func Record(c *Counters, n uint64) *Counters {
	c.Hits = n
	c.misses = n
	c.bumps++
	c.total += n
	c.probe = 1
	c.Shown, c.Remote, c.kept = 1, 2, 3
	return &Counters{label: "fixture"}
}

// Inner is read only through Outer's promoted field.
type Inner struct{ Depth int }

// Outer embeds Inner.
type Outer struct{ Inner }

// Depth reads Inner.Depth through Outer.
func Depth(o Outer) int { return o.Depth }

// key is a map key: comparing keys reads both fields.
type key struct{ a, b int }

var index = map[key]int{}

// Index looks x up in the index.
func Index(x int) int { return index[key{x, x}] }

// pair is compared with ==, which reads both fields.
type pair struct{ x, y int }

// Symmetric reports whether swapping x and y changes nothing.
func Symmetric(x, y int) bool { return pair{x, y} == pair{y, x} }

// report is handed to json.Marshal, which reads every field.
type report struct {
	Runs  int
	Inner Inner
}

// Encode marshals a report.
func Encode(runs int) ([]byte, error) { return json.Marshal(&report{Runs: runs}) }
