// Package directive is a fixture for the directive grammar itself: a
// bare //simvet:allow (no justification) and an unknown directive are
// unconditional findings, and a bare allow suppresses nothing. The
// expectations live in TestDirectiveErrors, not in want comments,
// because the findings land on the directive lines themselves.
//
//simvet:package sim-charged
package directive

import "time"

// bare tries to use the escape hatch without a justification; the
// directive is rejected, so the time.Now use below it still fires.
func bare() time.Time {
	//simvet:allow
	return time.Now()
}

//simvet:nosuchthing
