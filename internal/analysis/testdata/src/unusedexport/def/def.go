// Package def is an analysistest fixture for unusedexport: each exported
// name below that no non-test file of the fixture module references
// fires; names that the sibling package user, this package's own code,
// or an interface reaches do not, and neither does a justified allow.
package def

// Used is called by package user.
func Used() int { return twice(Limit) }

func twice(n int) int { return 2 * n }

// Limit is read only by this package's own code.
const Limit = 3

// Widget is built by package user.
type Widget struct{ n int }

// Size is never called by name: user reaches it through its sizer
// interface.
func (w *Widget) Size() int { return w.n }

// Reset is referenced nowhere.
func (w *Widget) Reset() { w.n = 0 } // want `exported method Widget.Reset is not used`

// UnusedFunc is referenced nowhere.
func UnusedFunc() {} // want `exported func UnusedFunc is not used`

// UnusedType is referenced nowhere.
type UnusedType struct{} // want `exported type UnusedType is not used`

// UnusedConst is referenced nowhere.
const UnusedConst = 1 // want `exported const UnusedConst is not used`

// UnusedVar is referenced nowhere.
var UnusedVar int // want `exported var UnusedVar is not used`

// TestOnly is called only by this package's tests, which the loader
// does not read.
func TestOnly() int { return 1 } // want `exported func TestOnly is not used`

// Kept is referenced nowhere either, but carries a justified allow.
//
//simvet:allow fixture: a justified allow suppresses the finding
func Kept() {}
