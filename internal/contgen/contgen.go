// Package contgen is the stub compiler's code generator: the role §3 of
// the paper assigns to the Prelude compiler ("compiler-generated stubs
// hide the underlying complexity"; "it is far better ... to let the
// compiler handle the details of the message-passing for computation
// migration").
//
// It reads a Go source file, finds struct types annotated with a
//
//	//compmig:record
//
// comment, and emits the word-level MarshalWords/UnmarshalWords methods
// for them — the wire plumbing for continuation records, argument
// records, and replies that this repository otherwise writes by hand.
// Fields are laid out on the wire in declaration order. Supported field
// types: uint32, uint64, int64, bool, gid.GID, []uint32, []uint64, and
// []gid.GID. Pointer, interface, map, channel, and function fields are
// environment references (a *Tree, a *Network): they never travel and
// are reconstructed by the receiving side's walker factory, so the
// generator skips them. So does a field tagged `compmig:"local"`, of any
// type: host-side state of the record, such as the result an operation
// record leaves for its requester.
package contgen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
)

// Record is one annotated struct the generator found.
type Record struct {
	Name   string
	Fields []Field
}

// Field is one wire field of a record.
type Field struct {
	Name string
	Kind Kind
}

// Kind classifies a field's wire encoding.
type Kind int

const (
	KindU32 Kind = iota
	KindU64
	KindI64
	KindBool
	KindGID
	KindU32Slice
	KindU64Slice
	KindGIDSlice
	KindSkip  // environment reference: not marshaled
	KindLocal // tagged compmig:"local": host-side, not marshaled
)

// Parse extracts the annotated records from a Go source file.
func Parse(filename string, src []byte) (pkg string, recs []Record, err error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return "", nil, err
	}
	pkg = file.Name.Name
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if !annotated(gd.Doc) && !annotated(ts.Doc) && !annotated(ts.Comment) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return "", nil, fmt.Errorf("%s: //compmig:record on non-struct type %s", filename, ts.Name.Name)
			}
			rec := Record{Name: ts.Name.Name}
			for _, f := range st.Fields.List {
				kind, err := classify(f.Type)
				if local(f.Tag) {
					kind, err = KindLocal, nil
				}
				if err != nil {
					return "", nil, fmt.Errorf("%s: %s: %v", filename, ts.Name.Name, err)
				}
				if len(f.Names) == 0 {
					return "", nil, fmt.Errorf("%s: %s has an embedded field; not supported", filename, ts.Name.Name)
				}
				for _, n := range f.Names {
					rec.Fields = append(rec.Fields, Field{Name: n.Name, Kind: kind})
				}
			}
			recs = append(recs, rec)
		}
	}
	return pkg, recs, nil
}

func annotated(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "compmig:record") {
			return true
		}
	}
	return false
}

// local reports a field tagged `compmig:"local"`.
func local(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	v, err := strconv.Unquote(tag.Value)
	return err == nil && reflect.StructTag(v).Get("compmig") == "local"
}

// classify maps an AST type expression to a wire kind.
func classify(expr ast.Expr) (Kind, error) {
	switch t := expr.(type) {
	case *ast.Ident:
		switch t.Name {
		case "uint32":
			return KindU32, nil
		case "uint64":
			return KindU64, nil
		case "int64":
			return KindI64, nil
		case "bool":
			return KindBool, nil
		}
		return 0, fmt.Errorf("unsupported wire type %s", t.Name)
	case *ast.SelectorExpr:
		if pkg, ok := t.X.(*ast.Ident); ok && pkg.Name == "gid" && t.Sel.Name == "GID" {
			return KindGID, nil
		}
		return 0, fmt.Errorf("unsupported wire type %v.%v", t.X, t.Sel.Name)
	case *ast.ArrayType:
		if t.Len != nil {
			return 0, fmt.Errorf("fixed-size arrays not supported")
		}
		inner, err := classify(t.Elt)
		if err != nil {
			return 0, err
		}
		switch inner {
		case KindU32:
			return KindU32Slice, nil
		case KindU64:
			return KindU64Slice, nil
		case KindGID:
			return KindGIDSlice, nil
		}
		return 0, fmt.Errorf("unsupported slice element")
	case *ast.StarExpr, *ast.InterfaceType, *ast.MapType, *ast.ChanType, *ast.FuncType:
		// Environment reference: stays host-side.
		return KindSkip, nil
	}
	return 0, fmt.Errorf("unsupported field type %T", expr)
}

// Generate produces the companion source file with marshalers for every
// annotated record in src. It returns nil output when no records are
// annotated.
func Generate(filename string, src []byte) ([]byte, error) {
	pkg, recs, err := Parse(filename, src)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by contgen from %s; DO NOT EDIT.\n", filepath.Base(filename))
	fmt.Fprintf(&b, "//\n// These are the compiler-generated wire stubs of the paper's §3: the\n")
	fmt.Fprintf(&b, "// live-variable records travel as 32-bit words in declaration order.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)

	needGID := false
	for _, r := range recs {
		for _, f := range r.Fields {
			if f.Kind == KindGID || f.Kind == KindGIDSlice {
				needGID = true
			}
		}
	}
	b.WriteString("import (\n")
	if needGID {
		b.WriteString("\t\"compmig/internal/gid\"\n")
	}
	b.WriteString("\t\"compmig/internal/msg\"\n)\n\n")

	for _, r := range recs {
		genMarshal(&b, r)
		genUnmarshal(&b, r)
	}
	return format.Source(b.Bytes())
}

func genMarshal(b *bytes.Buffer, r Record) {
	fmt.Fprintf(b, "// MarshalWords encodes the live variables of %s.\n", r.Name)
	fmt.Fprintf(b, "func (c *%s) MarshalWords(w *msg.Writer) {\n", r.Name)
	for _, f := range r.Fields {
		switch f.Kind {
		case KindU32:
			fmt.Fprintf(b, "\tw.PutU32(c.%s)\n", f.Name)
		case KindU64:
			fmt.Fprintf(b, "\tw.PutU64(c.%s)\n", f.Name)
		case KindI64:
			fmt.Fprintf(b, "\tw.PutI64(c.%s)\n", f.Name)
		case KindBool:
			fmt.Fprintf(b, "\tw.PutBool(c.%s)\n", f.Name)
		case KindGID:
			fmt.Fprintf(b, "\tw.PutU64(uint64(c.%s))\n", f.Name)
		case KindU32Slice:
			fmt.Fprintf(b, "\tw.PutU32s(c.%s)\n", f.Name)
		case KindU64Slice:
			fmt.Fprintf(b, "\tw.PutU32(uint32(len(c.%s)))\n", f.Name)
			fmt.Fprintf(b, "\tfor _, v := range c.%s {\n\t\tw.PutU64(v)\n\t}\n", f.Name)
		case KindGIDSlice:
			fmt.Fprintf(b, "\tw.PutU32(uint32(len(c.%s)))\n", f.Name)
			fmt.Fprintf(b, "\tfor _, v := range c.%s {\n\t\tw.PutU64(uint64(v))\n\t}\n", f.Name)
		case KindSkip:
			fmt.Fprintf(b, "\t// c.%s: environment reference, stays host-side\n", f.Name)
		case KindLocal:
			fmt.Fprintf(b, "\t// c.%s: host-side, not marshaled\n", f.Name)
		}
	}
	b.WriteString("}\n\n")
}

func genUnmarshal(b *bytes.Buffer, r Record) {
	fmt.Fprintf(b, "// UnmarshalWords decodes the live variables of %s.\n", r.Name)
	fmt.Fprintf(b, "func (c *%s) UnmarshalWords(r *msg.Reader) error {\n", r.Name)
	for _, f := range r.Fields {
		switch f.Kind {
		case KindU32:
			fmt.Fprintf(b, "\tc.%s = r.U32()\n", f.Name)
		case KindU64:
			fmt.Fprintf(b, "\tc.%s = r.U64()\n", f.Name)
		case KindI64:
			fmt.Fprintf(b, "\tc.%s = r.I64()\n", f.Name)
		case KindBool:
			fmt.Fprintf(b, "\tc.%s = r.Bool()\n", f.Name)
		case KindGID:
			fmt.Fprintf(b, "\tc.%s = gid.GID(r.U64())\n", f.Name)
		case KindU32Slice:
			fmt.Fprintf(b, "\tc.%s = r.U32s()\n", f.Name)
		case KindU64Slice:
			fmt.Fprintf(b, "\tc.%s = make([]uint64, int(r.U32()))\n", f.Name)
			fmt.Fprintf(b, "\tfor i := range c.%s {\n\t\tc.%s[i] = r.U64()\n\t}\n", f.Name, f.Name)
		case KindGIDSlice:
			fmt.Fprintf(b, "\tc.%s = make([]gid.GID, int(r.U32()))\n", f.Name)
			fmt.Fprintf(b, "\tfor i := range c.%s {\n\t\tc.%s[i] = gid.GID(r.U64())\n\t}\n", f.Name, f.Name)
		case KindSkip:
			fmt.Fprintf(b, "\t// c.%s: reconstructed by the walker factory\n", f.Name)
		case KindLocal:
			fmt.Fprintf(b, "\t// c.%s: host-side, not marshaled\n", f.Name)
		}
	}
	b.WriteString("\treturn r.Err()\n}\n\n")
}
