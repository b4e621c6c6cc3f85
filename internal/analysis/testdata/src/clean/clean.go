// Package clean is a fully compliant fixture: the driver must exit zero
// when pointed at it alone.
//
//simvet:package sim-charged
package clean

// sum folds values order-insensitively.
func sum(xs []uint64) uint64 {
	var total uint64
	for _, x := range xs {
		total += x
	}
	return total
}
