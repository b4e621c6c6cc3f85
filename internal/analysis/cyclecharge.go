package analysis

import "go/ast"

// CycleCharge audits the software-messaging runtime: any function in a
// cycle-charged package (core) that injects a message into the network
// must price the send through the internal/cost model, the way every
// Table 5 reproduction does (Exec(chargeSendTo(col, words)) before
// Send). The check is a package-local taint: a function is "charging" if
// its body mentions any object from internal/cost — a Model field, a
// constant, a helper — or calls a same-package function that does. A
// send reachable only from non-charging functions is a free message: it
// would show up in the paper's tables as bandwidth without CPU cost,
// quietly skewing every mechanism comparison.
var CycleCharge = &Analyzer{
	Name: "cyclecharge",
	Doc: "require message sends in cycle-charged runtime packages to " +
		"charge cycles through the internal/cost model",
	Run: runCycleCharge,
}

func runCycleCharge(p *Pass) error {
	if !p.Class.CycleCharged {
		return nil
	}
	decls := funcDecls(p)
	charging := taintedFuncs(p, decls, func(fd *ast.FuncDecl) bool {
		return mentionsPackage(p, fd.Body, costPath)
	})
	for fn, fd := range decls {
		if charging[fn] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, ok := calleeKey(p, call); ok && sendSinks[key] {
				p.Reportf(call.Pos(), "%s sends a message via %s.%s without charging cycles: no internal/cost value flows into this function; charge the send path (e.g. Exec(chargeSendTo(col, words))) first", fd.Name.Name, key.pkg, key.name)
			}
			return true
		})
	}
	return nil
}
