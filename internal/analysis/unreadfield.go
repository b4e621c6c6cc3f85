package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// UnreadField reports a struct field, exported or not, that no non-test
// code of the module reads: a counter bumped on a hot path and printed
// by nothing, or state kept for an operation that is gone. Writes are
// not reads: the target of `=` or `op=`, the operand of `++`/`--`, and a
// composite-literal key. A selection that passes through an embedded
// field reads the embedded field.
//
// Some reads are implicit. Every field of a struct counts as read, down
// through nested struct and array values, when the struct is compared
// with `==` or `!=` or is a map key. The same holds when a value holding
// it is handed to fmt (through one pointer, then slices and maps too),
// encoding/json or reflect (through every pointer); fmt and
// encoding/json stop at a type that formats or marshals itself.
//
// Like unusedexport, the read set is built once per Run from every
// reader package (the main module and the modules in its immediate
// subdirectories), whatever patterns were given. Fields are keyed by
// package path, struct type name and field name, so a read through
// export data in another package or module counts.
var UnreadField = &Analyzer{
	Name: "unreadfield",
	Doc:  "report struct fields that no non-test code of the module reads",
	Run:  runUnreadField,
}

// An embedded field whose type brings methods is not reported: a call
// through an interface may read it without naming it.
func runUnreadField(p *Pass) error {
	for _, obj := range p.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Name() == "_" || (fld.Embedded() && methods(fld.Type()).Len() > 0) {
				continue
			}
			if !p.read[fieldKey(tn, fld.Name())] {
				p.Reportf(fld.Pos(), "field %s.%s is not read by any non-test code of the module", tn.Name(), fld.Name())
			}
		}
	}
	return nil
}

// methods returns the method set of *t, or of t itself when t is a
// pointer or an interface.
func methods(t types.Type) *types.MethodSet {
	if _, ok := t.Underlying().(*types.Pointer); !ok && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t)
}

// fieldKey keys a field of the named struct type owner. A type declared
// inside a function is told apart from same-named ones by its position.
func fieldKey(owner *types.TypeName, name string) useKey {
	recv := owner.Name()
	if owner.Parent() != owner.Pkg().Scope() {
		recv = fmt.Sprintf("%s@%d", recv, owner.Pos())
	}
	return useKey{pkg: owner.Pkg().Path(), recv: recv, name: name}
}

// ownerOf returns the declared type whose struct holds the fields of t
// (through one pointer), or nil for an unnamed struct.
func ownerOf(t types.Type) *types.TypeName {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// A readMode says how a value is read as a whole.
type readMode uint8

const (
	compared  readMode = iota // == and map keys: nested values only
	printed                   // fmt: one pointer, then values, slices and maps
	encoded                   // encoding/json: every pointer
	reflected                 // reflect: every pointer, no method stops
)

// implicitReaders maps the packages that read every field of a value
// handed to them to how they read it.
var implicitReaders = map[string]readMode{"fmt": printed, "encoding/json": encoded, "reflect": reflected}

// selfFormatting names the methods through which fmt and encoding/json
// read a value instead of reading its fields.
var selfFormatting = map[string]bool{"String": true, "Error": true, "Format": true, "GoString": true, "MarshalJSON": true, "MarshalText": true}

// fieldReads accumulates the read set over one package at a time.
type fieldReads struct {
	info *types.Info
	read map[useKey]bool
	seen map[markKey]bool // guards markAll against recursive types
}

type markKey struct {
	t    types.Type
	mode readMode
	top  bool
}

// readFields builds the set of fields the readers' non-test code reads.
func readFields(readers []*Package) map[useKey]bool {
	r := &fieldReads{read: map[useKey]bool{}, seen: map[markKey]bool{}}
	for _, p := range readers {
		r.info = p.Info
		for _, f := range p.Files {
			ast.Inspect(f, r.visit)
		}
		for _, tv := range p.Info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				r.markAll(m.Key(), compared, true)
			}
		}
	}
	return r.read
}

func (r *fieldReads) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			r.written(lhs)
		}
		for _, rhs := range n.Rhs {
			ast.Inspect(rhs, r.visit)
		}
		return false
	case *ast.IncDecStmt:
		r.written(n.X)
		return false
	case *ast.SelectorExpr:
		r.selected(n, false)
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			r.markAll(r.info.TypeOf(n.X), compared, true)
			r.markAll(r.info.TypeOf(n.Y), compared, true)
		}
	case *ast.CallExpr:
		if fn := calleeFunc(r.info, n); fn != nil && fn.Pkg() != nil {
			if mode, ok := implicitReaders[fn.Pkg().Path()]; ok {
				for _, arg := range n.Args {
					r.markAll(r.info.TypeOf(arg), mode, true)
				}
			}
		}
	}
	return true
}

// written visits an assignment target: a selected field is written, not
// read, but the expression it is selected from is evaluated.
func (r *fieldReads) written(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		ast.Inspect(lhs, r.visit)
		return
	}
	r.selected(sel, true)
	ast.Inspect(sel.X, r.visit)
}

// selected marks the fields a selection reads: every embedded field it
// passes through and, unless the selection is written, its own field.
func (r *fieldReads) selected(sel *ast.SelectorExpr, write bool) {
	s := r.info.Selections[sel]
	if s == nil {
		return
	}
	t, path := s.Recv(), s.Index()
	for i, idx := range path {
		last := i == len(path)-1
		if last && s.Kind() != types.FieldVal {
			return // a method
		}
		st, ok := derefStruct(t)
		if !ok {
			return
		}
		fld := st.Field(idx)
		if owner := ownerOf(t); owner != nil && !(last && write) {
			r.read[fieldKey(owner, fld.Name())] = true
		}
		t = fld.Type()
	}
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// markAll marks every field of every struct that a value of type t,
// read as a whole in mode, holds; top is true for the value itself and
// false for what it holds.
func (r *fieldReads) markAll(t types.Type, mode readMode, top bool) {
	k := markKey{t, mode, top}
	if t == nil || r.seen[k] {
		return
	}
	r.seen[k] = true
	if (mode == printed || mode == encoded) && formatsItself(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		owner := ownerOf(t)
		for i := 0; i < u.NumFields(); i++ {
			if owner != nil {
				r.read[fieldKey(owner, u.Field(i).Name())] = true
			}
			r.markAll(u.Field(i).Type(), mode, false)
		}
	case *types.Array:
		r.markAll(u.Elem(), mode, false)
	case *types.Pointer:
		if mode >= encoded || (mode == printed && top) {
			r.markAll(u.Elem(), mode, false)
		}
	case *types.Slice:
		if mode != compared {
			r.markAll(u.Elem(), mode, false)
		}
	case *types.Map:
		if mode != compared {
			r.markAll(u.Key(), mode, false)
			r.markAll(u.Elem(), mode, false)
		}
	}
}

// formatsItself reports whether t or *t has a method through which fmt
// or encoding/json reads it.
func formatsItself(t types.Type) bool {
	mset := methods(t)
	for i := 0; i < mset.Len(); i++ {
		if selfFormatting[mset.At(i).Obj().Name()] {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call names, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
