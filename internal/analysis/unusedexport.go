package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnusedExport reports exported API that nothing in the module runs: an
// exported function, method, type, const or var that no non-test file of
// the module references. The loader reads GoFiles only, so a name that
// only tests use is unused; uses from the declaring package's own code
// count. A method that satisfies an interface declared anywhere in the
// program (the module, its imports, or the universe's error) counts as
// used, because a call through that interface may reach it.
//
// The used set is built once per Run from every package of the main
// module, whatever patterns were given, so `simvet ./internal/mem`
// reports the same mem findings as `simvet ./...`.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc: "report exported funcs, methods, types, consts and vars " +
		"that no non-test file of the module references",
	Run: runUnusedExport,
}

func runUnusedExport(p *Pass) error {
	check := func(id *ast.Ident, kind string) {
		obj := p.Info.Defs[id]
		if obj == nil || !obj.Exported() {
			return
		}
		if k, ok := keyOf(obj); ok && !p.used[k] {
			p.Reportf(id.Pos(), "exported %s %s is not used by any non-test code of the module", kind, displayName(k))
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				check(d.Name, kind)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

// A useKey names a package-level object or a method independently of
// which types.Package view it was resolved through: a use in another
// package resolves to the export-data copy of the definition, not to
// the source-checked object itself.
type useKey struct {
	pkg, recv, name string
}

func displayName(k useKey) string {
	if k.recv != "" {
		return k.recv + "." + k.name
	}
	return k.name
}

// keyOf returns the key of a package-level object or a method, and false
// for anything else (fields, locals, labels, builtins).
func keyOf(obj types.Object) (useKey, bool) {
	if obj.Pkg() == nil {
		return useKey{}, false
	}
	k := useKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			k.recv = recvName(recv.Type())
			return k, k.recv != ""
		}
	}
	return k, obj.Pkg().Scope().Lookup(obj.Name()) == obj
}

// recvName is the name of a method's receiver base type, or "" for a
// method of an interface literal.
func recvName(t types.Type) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// usedNames builds the set of referenced names over the whole module the
// packages were loaded from (one Load call): every identifier use in
// non-test code, plus every concrete method that implements a method of
// an interface some package of the program declares or mentions.
func usedNames(pkgs []*Package) map[useKey]bool {
	used := map[useKey]bool{}
	if len(pkgs) == 0 {
		return used
	}
	module := pkgs[0].module
	ifaces := programInterfaces(module)
	for _, p := range module {
		for _, obj := range p.Info.Uses {
			if k, ok := keyOf(obj); ok {
				used[k] = true
			}
		}
		for _, obj := range p.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			markImplementations(used, tn.Type(), ifaces)
		}
	}
	return used
}

// programInterfaces collects every interface with methods that the
// module's code declares or mentions (each declaration's interface type
// is an expression too), every interface declared at package level by a
// package the module imports (directly or not), and error.
func programInterfaces(module []*Package) []*types.Interface {
	var out []*types.Interface
	have := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !have[it] {
			have[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range module {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// markImplementations marks the methods through which t (or *t)
// satisfies any of ifaces. Methods are matched by name and by signature
// spelled with full package paths, because the interface and the
// concrete type may come from different views (source and export data)
// of the same package.
func markImplementations(used map[useKey]bool, t types.Type, ifaces []*types.Interface) {
	mset := types.NewMethodSet(types.NewPointer(t))
	if mset.Len() == 0 {
		return
	}
	methods := make(map[string]*types.Func, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj().(*types.Func)
		methods[methodID(fn)] = fn
	}
	for _, it := range ifaces {
		impl := true
		for i := 0; i < it.NumMethods() && impl; i++ {
			m := it.Method(i)
			fn := methods[methodID(m)]
			impl = fn != nil && signature(fn) == signature(m)
		}
		if !impl {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if k, ok := keyOf(methods[methodID(it.Method(i))]); ok {
				used[k] = true
			}
		}
	}
}

// methodID names a method for interface matching: unexported names are
// qualified by their package path.
func methodID(fn *types.Func) string {
	if fn.Exported() {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// signature spells a method's parameter and result types with full
// package paths, so equal signatures from different views compare equal.
func signature(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte('|')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
