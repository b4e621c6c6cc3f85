package analysis

import (
	"go/ast"
	"strconv"
)

// NoDeterminism enforces the DESIGN.md contract that simulation-charged
// code has no nondeterministic inputs: host clocks, ambient environment,
// unseeded randomness, and host concurrency primitives are all forbidden.
// Simulated threads run on the engine's iter.Pull coroutines, which
// switch only when the engine resumes one or one yields, so they need no
// goroutine and no exemption. Channel operations are not flagged, but
// the goroutine spawns that would make them concurrent are, so each
// spawn site (today only the shard-lane drivers) carries an explicit
// //simvet:allow justification.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "forbid host time, ambient environment, unseeded randomness, and " +
		"host concurrency in simulation-charged packages",
	Run: runNoDeterminism,
}

// forbiddenFuncs are host-nondeterminism entry points banned at each use
// site (calls and method values alike).
var forbiddenFuncs = map[funcKey]string{
	{"time", "Now"}:       "host wall clock",
	{"time", "Since"}:     "host wall clock",
	{"time", "Until"}:     "host wall clock",
	{"time", "Sleep"}:     "host blocking sleep",
	{"time", "After"}:     "host timer",
	{"time", "AfterFunc"}: "host timer",
	{"time", "Tick"}:      "host timer",
	{"time", "NewTimer"}:  "host timer",
	{"time", "NewTicker"}: "host timer",
	{"os", "Getenv"}:      "ambient environment",
	{"os", "LookupEnv"}:   "ambient environment",
	{"os", "Environ"}:     "ambient environment",
}

// forbiddenImports are whole packages banned from simulation-charged
// code; the finding is reported once, at the import declaration, so one
// //simvet:allow on the import line covers a file's justified uses.
var forbiddenImports = map[string]string{
	"sync":        "host synchronization",
	"sync/atomic": "host synchronization",
	"math/rand":   "unseeded process-global randomness",
	"math/rand/v2": "unseeded process-global randomness; use the engine's " +
		"sim.PRNG streams",
}

func runNoDeterminism(p *Pass) error {
	if !p.Class.SimCharged {
		return nil
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := forbiddenImports[path]; ok {
				p.Reportf(imp.Pos(), "import of %q (%s) in simulation-charged package; event order must not depend on the host", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "goroutine spawn in simulation-charged package; only the engine's single-runner threads may execute simulated work")
			case *ast.SelectorExpr:
				obj := p.ObjectOf(n.Sel)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				key := funcKey{pkg: obj.Pkg().Path(), name: obj.Name()}
				if why, ok := forbiddenFuncs[key]; ok {
					p.Reportf(n.Pos(), "use of %s.%s (%s) in simulation-charged package; derive time from the engine clock", key.pkg, key.name, why)
				}
			}
			return true
		})
	}
	return nil
}
