package btree

import (
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/core"
	"compmig/internal/machine"
	"compmig/internal/sim"
)

// TestRunAllocs pins what a finished shared-memory run hands to the
// next: three identical runs back to back, the first from an empty
// retired stack (see clitest.RunAllocs). Each requester looks keys up,
// inserts and scans, so the lane's records cover all three walker types
// (btree.lookup, btree.op, btree.scan) and the coherence directory's
// maps and slabs, which a run on a machine of the same size takes back.
func TestRunAllocs(t *testing.T) {
	cfg := Config{Scheme: core.Scheme{Mechanism: core.SharedMem}, Threads: 4, InitialKeys: 500}.WithDefaults()
	site := &core.Site{Mech: core.SharedMem}
	clitest.RunAllocs(t, func() {
		m := machine.New("btree", cfg.machineConfig(), cfg.Procs())
		keys := GenKeys(m.Eng.Rand().Fork(), cfg.InitialKeys, cfg.KeySpace)
		tr := Build(m.RT, m.Mem, nil, cfg.Scheme, cfg.Params, keys)
		for i := 0; i < cfg.Threads; i++ {
			proc := cfg.NodeProcs + i
			m.Mach.Proc(proc).Spawn("requester", sim.Time(i), func(th *sim.Thread) {
				task := m.RT.NewTask(th, proc)
				for k := uint64(1); k <= 20; k++ {
					key := k*cfg.KeySpace/21 + uint64(i)
					tr.Lookup(task, key)
					tr.Insert(task, key+1)
					tr.Scan(task, site, key, 8)
				}
			})
		}
		m.Run(&machine.Result{})
	})
}
