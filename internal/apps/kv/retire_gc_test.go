//go:build go1.24

package kv

import (
	"runtime"
	"testing"
	"weak"

	"compmig/internal/core"
	"compmig/internal/sim"
)

// TestRetiredRunIsCollected asserts that a retired open-loop machine
// pins nothing of its run: under each mechanism a first machine runs
// and retires, a smaller second one revives its lane and retires in
// turn, and after a collection both machines' runtimes and engines are
// gone. The lane carries the operation records of the store's and its
// index's walker types, the arrival schedule's array and, under shared
// memory, the directory's maps and slabs. The second run takes them all
// back and rebinds them, so a record left bound to its run at retire
// keeps the second run alive.
func TestRetiredRunIsCollected(t *testing.T) {
	for _, mech := range []core.Mechanism{core.RPC, core.Migrate, core.SharedMem} {
		scheme := core.Scheme{Mechanism: mech}
		first, firstEng := runRetired(Config{Scheme: scheme,
			Load: mustSpec(t, "keys=256,ops=400,period=100,zipf=0.9,mix=70:25:5,scan=8")})
		second, secondEng := runRetired(Config{Scheme: scheme,
			Load: mustSpec(t, "keys=256,ops=50,period=100,zipf=0.9,mix=70:25:5,scan=8")})
		runtime.GC()
		for _, run := range []struct {
			name string
			rt   weak.Pointer[core.Runtime]
			eng  weak.Pointer[sim.Engine]
		}{{"first", first, firstEng}, {"second", second, secondEng}} {
			if run.rt.Value() != nil {
				t.Errorf("%v: the %s machine's runtime outlived its retirement", mech, run.name)
			}
			if run.eng.Value() != nil {
				t.Errorf("%v: the %s machine's engine outlived its retirement", mech, run.name)
			}
		}
	}
}

// runRetired is RunExperiment, returning weak pointers to its machine's
// runtime and engine.
func runRetired(cfg Config) (weak.Pointer[core.Runtime], weak.Pointer[sim.Engine]) {
	_, m := run(cfg)
	return weak.Make(m.RT), weak.Make(m.Eng)
}
