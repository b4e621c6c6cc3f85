package analysis

// Suite is the full simvet analyzer suite in reporting order.
var Suite = []*Analyzer{
	NoDeterminism,
	MapOrder,
	SimPurity,
	SeededRand,
	CycleCharge,
	UnusedExport,
	UnreadField,
}
