package qmd

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowlist names the declarations no program path reaches that stay
// anyway, each with its reason: a reference implementation a test compares
// against (a named bitwise pin or oracle), a fuzz entry, or a test-support
// package. A key is "pkg.Name", "pkg.Type.Method" or, for a whole package,
// its path relative to the module root. An entry must still be unreachable
// and still be named by a _test.go file, or the test fails.
var callerAllowlist = map[string]string{
	"internal/fft.Plan3.InverseRawMulReal":      "bitwise pin: TestSupportBitwiseEqualsDense and pw's TestPrunedPathsMatchDense hold the pruned transform to it",
	"internal/fft.Plan3.InverseRawMulRealBatch": "bitwise pin: TestSupportBitwiseEqualsDense and pw's TestPrunedPathsMatchDense hold the pruned batch to it",
	"internal/pw.Hamiltonian.Apply":             "test reference: TestApplyAllMatchesApply holds ApplyAll to this single-band path",
	"internal/pw.Hamiltonian.NewWorkspace":      "test reference: the scratch Hamiltonian.Apply runs in",
	"internal/pw.Hamiltonian.LocalPotential":    "test reference: scf's TestEffectivePotentialFrom holds the installed potential to Vps + V_H + v_xc pointwise",
	"internal/waitfor":                          "test-support package: the polling helper concurrent tests wait with",
}

// TestEveryDeclarationHasACaller type-checks every non-test package of the
// module and of bench/ and fails on each package-level declaration that no
// entry point reaches. Entry points are every main and init, every
// package-level var, the root package's exported API, every declaration
// of bench/ (the benchmark is a caller this module cannot edit), any
// method whose name an interface declares once its type is reachable, and
// the allowlist.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports (~5 s)")
	}
	s, err := scanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for key, reason := range callerAllowlist {
		switch {
		case reason == "":
			t.Errorf("allowlist %s: give the reason", key)
		case !s.declared(key):
			t.Errorf("allowlist %s: no such declaration", key)
		case !s.namedByTests(key):
			t.Errorf("allowlist %s: no _test.go file names it", key)
		}
	}
	live := s.reach(false)
	for _, d := range s.decls {
		if live[d] && s.allowed(d) {
			t.Errorf("allowlist %s: a program path reaches it; remove the entry", d.key)
		}
	}
	var dead []string
	live = s.reach(true)
	for _, d := range s.decls {
		if !live[d] {
			dead = append(dead, fmt.Sprintf("%s %s", d.pos, d.key))
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations have no caller; delete them, or allowlist a test reference with its reason:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// fieldAllowlist names the struct fields that non-test code assigns and
// never reads that stay anyway, each with its reason. A key is
// "pkg.Type.field".
var fieldAllowlist = map[string]string{}

// TestEveryFieldIsRead fails on each struct field of the module that the
// non-test code of the module and of bench/ assigns but never reads:
// state written for nobody. Exempt are a field with a json tag (wire
// format, which encoding/json reads), one a _test.go file names, and the
// allowlist. A read is any use of the field but as the target of an
// assignment, an increment or a composite-literal element; comparing
// structs, or keying a map by one, reads every field.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports (~5 s)")
	}
	s, err := scanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	fields := s.fields()
	for key, reason := range fieldAllowlist {
		var found, read bool
		for _, f := range fields {
			if f.key == key {
				found, read = true, read || f.read
			}
		}
		switch {
		case reason == "":
			t.Errorf("field allowlist %s: give the reason", key)
		case !found:
			t.Errorf("field allowlist %s: no such field", key)
		case read:
			t.Errorf("field allowlist %s: program code reads it; remove the entry", key)
		}
	}
	var unread []string
	for _, f := range fields {
		if f.written && !f.read && !f.exempt && fieldAllowlist[f.key] == "" {
			unread = append(unread, fmt.Sprintf("%s %s", f.pos, f.key))
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d fields are assigned and never read; delete them, or allowlist one with its reason:\n%s",
			len(unread), strings.Join(unread, "\n"))
	}
}

// field is one named struct field of the module and what non-test code
// does with it.
type field struct {
	key, pos      string // "pkg.Type.field", file:line
	exempt        bool   // json-tagged, or named by a _test.go file
	written, read bool
}

// fields lists every named, non-embedded struct field the module's
// packages declare and marks each write and read of it in the non-test
// code of the module and of bench/. A struct type that is not the whole
// of a type declaration is named "struct".
func (s *scan) fields() []*field {
	info := s.l.info
	byVar := map[types.Object]*field{}
	var out []*field
	for _, p := range s.paths {
		rel, bench := relPath(p)
		if bench {
			continue
		}
		dir := s.l.dirs[p]
		for _, f := range s.l.files[p] {
			names := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						names[st] = n.Name.Name
					}
				case *ast.StructType:
					typ := names[n]
					if typ == "" {
						typ = "struct"
					}
					for _, fl := range n.Fields.List {
						var tagged bool
						if fl.Tag != nil {
							tag, _ := strconv.Unquote(fl.Tag.Value)
							_, tagged = reflect.StructTag(tag).Lookup("json")
						}
						for _, id := range fl.Names {
							if id.Name == "_" {
								continue
							}
							named := s.testFields[dir+" "+id.Name] || (id.IsExported() && s.testFields[id.Name])
							fd := &field{key: rel + "." + typ + "." + id.Name, pos: s.pos(info.Defs[id]), exempt: tagged || named}
							byVar[info.Defs[id]] = fd
							out = append(out, fd)
						}
					}
				}
				return true
			})
		}
	}
	readAll := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if fd := byVar[origin(st.Field(i))]; fd != nil {
					fd.read = true
				}
			}
		}
	}
	for _, p := range s.paths {
		for _, f := range s.l.files[p] {
			writes := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						writes[ast.Unparen(x)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(n.X)] = true
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, keyed := e.(*ast.KeyValueExpr); keyed {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if fd := byVar[origin(info.Uses[id])]; fd != nil {
									fd.written = true
								}
							}
						} else if ok {
							if fd := byVar[origin(st.Field(i))]; fd != nil {
								fd.written = true
							}
						}
					}
				case *ast.MapType:
					readAll(info.Types[n.Key].Type)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.Types[n.X].Type)
					}
				case *ast.SelectorExpr:
					if fd := byVar[origin(info.Uses[n.Sel])]; fd != nil {
						if writes[n] {
							fd.written = true
						} else {
							fd.read = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// decl is one package-level declaration: a func, method, type, const or var.
type decl struct {
	key  string // "pkg.Name" or "pkg.Type.Method"
	pkg  string // import path relative to the module root
	pos  string // file:line
	uses []types.Object
	root bool
}

type scan struct {
	root       string
	l          *loader
	paths      []string // import paths of the packages that type-checked
	decls      []*decl
	byObj      map[types.Object]*decl
	methods    map[*types.TypeName][]types.Object // methods whose name an interface declares
	testIdents map[string]bool                    // identifiers and import paths in _test.go files
	testFields map[string]bool                    // each selector or literal key in a _test.go file, as "name" and "dir name"
}

// scanModule type-checks the non-test files of every package under root,
// with standard-library imports type-checked from source.
func scanModule(root string) (*scan, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	s := &scan{root: root, l: l, byObj: map[types.Object]*decl{}, methods: map[*types.TypeName][]types.Object{},
		testIdents: map[string]bool{}, testFields: map[string]bool{}}
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			l.dirs[filepath.ToSlash(filepath.Join("ldcdft", path))] = path
			return nil
		}
		if strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					s.testIdents[n.Name] = true
				case *ast.ImportSpec:
					s.testIdents[strings.Trim(n.Path.Value, `"`)] = true
				case *ast.SelectorExpr:
					s.testFields[n.Sel.Name] = true
					s.testFields[filepath.Dir(path)+" "+n.Sel.Name] = true
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						s.testFields[id.Name] = true
						s.testFields[filepath.Dir(path)+" "+id.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dirs []string
	for p := range l.dirs {
		dirs = append(dirs, p)
	}
	sort.Strings(dirs)
	for _, p := range dirs {
		pkg, err := l.ImportFrom(p, "", 0)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			s.paths = append(s.paths, p)
		}
	}

	// The interfaces a method can be called through: the module's own,
	// named or literal, and the named ones of each standard package it
	// imports.
	var ifaces []*types.Interface
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && len(it.Methods.List) > 0 {
					ifaces = append(ifaces, l.info.Types[it].Type.(*types.Interface))
				}
				return true
			})
		}
	}
	for _, p := range s.paths {
		for _, imp := range l.pkgs[p].Imports() {
			if _, own := l.dirs[imp.Path()]; own {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if it, ok := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	for _, p := range s.paths {
		rel, bench := relPath(p)
		for _, f := range l.files[p] {
			add := func(obj types.Object, node ast.Node, key string, entry bool) {
				if obj == nil || obj.Name() == "_" {
					return
				}
				d := &decl{key: rel + "." + key, pkg: rel, pos: s.pos(obj), root: entry || bench}
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if o := l.info.Uses[id]; o != nil {
							d.uses = append(d.uses, origin(o))
						}
					}
					return true
				})
				s.decls = append(s.decls, d)
				s.byObj[obj] = d
			}
			api := rel == "ldcdft"
			for _, dcl := range f.Decls {
				switch dcl := dcl.(type) {
				case *ast.FuncDecl:
					obj := l.info.Defs[dcl.Name]
					name := dcl.Name.Name
					if dcl.Recv == nil {
						add(obj, dcl, name, name == "init" || (name == "main" && f.Name.Name == "main") || (api && ast.IsExported(name)))
						continue
					}
					tn := recvType(obj)
					add(obj, dcl, tn.Name()+"."+name, api && ast.IsExported(name) && ast.IsExported(tn.Name()))
					if satisfies(tn, name, ifaces) {
						s.methods[tn] = append(s.methods[tn], obj)
					}
				case *ast.GenDecl:
					for _, spec := range dcl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(l.info.Defs[spec.Name], spec, spec.Name.Name, api && ast.IsExported(spec.Name.Name))
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(l.info.Defs[id], spec, id.Name, dcl.Tok == token.VAR || (api && ast.IsExported(id.Name)))
							}
						}
					}
				}
			}
		}
	}
	return s, nil
}

// relPath is an import path relative to the module root ("ldcdft" for
// the root package), and whether it is part of bench/.
func relPath(p string) (rel string, bench bool) {
	rel = strings.TrimPrefix(strings.TrimPrefix(p, "ldcdft"), "/")
	if rel == "" {
		rel = "ldcdft"
	}
	return rel, rel == "bench" || strings.HasPrefix(rel, "bench/")
}

// pos is obj's file:line relative to the module root.
func (s *scan) pos(obj types.Object) string {
	p := s.l.fset.Position(obj.Pos())
	if r, err := filepath.Rel(s.root, p.Filename); err == nil {
		return fmt.Sprintf("%s:%d", filepath.ToSlash(r), p.Line)
	}
	return ""
}

// reach returns the declarations reachable from the entry points and,
// with withAllowlist, from the allowlisted ones.
func (s *scan) reach(withAllowlist bool) map[*decl]bool {
	live := map[*decl]bool{}
	var work []*decl
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range s.decls {
		if d.root || (withAllowlist && s.allowed(d)) {
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range d.uses {
			mark(s.byObj[o])
			if tn, ok := o.(*types.TypeName); ok {
				for _, m := range s.methods[tn] {
					mark(s.byObj[m])
				}
			}
		}
	}
	return live
}

func (s *scan) allowed(d *decl) bool {
	_, ok := callerAllowlist[d.key]
	_, pkg := callerAllowlist[d.pkg]
	return ok || pkg
}

func (s *scan) declared(key string) bool {
	for _, d := range s.decls {
		if d.key == key || d.pkg == key {
			return true
		}
	}
	return false
}

// namedByTests reports whether a _test.go file imports the allowlisted
// package or uses the allowlisted declaration's name.
func (s *scan) namedByTests(key string) bool {
	if !strings.Contains(key, ".") {
		return s.testIdents["ldcdft/"+key]
	}
	return s.testIdents[key[strings.LastIndex(key, ".")+1:]]
}

// origin maps a use of an instantiated generic func, method or field to
// its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// satisfies reports whether the method name of tn belongs to an interface
// that tn or *tn implements.
func satisfies(tn *types.TypeName, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it)) {
				return true
			}
		}
	}
	return false
}

// recvType is the named type a method is declared on.
func recvType(m types.Object) *types.TypeName {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// loader type-checks the module's packages from its directories and hands
// every other import to the standard-library importer.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	d, own := l.dirs[path]
	if !own {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(d)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(d, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(d, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.files[path] = files
	l.pkgs[path] = pkg
	return pkg, nil
}
