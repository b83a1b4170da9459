package dynsample

// The module keeps no exported name that nothing calls, no option that no
// program sets, and its docs name no declaration the code does not have.
// The checks read the source with the standard library alone: go/build
// picks each package's files, go/types resolves every reference of the
// non-test files (cmd/, bench/ and examples/ included), and the "source"
// importer type-checks the standard library. The module is loaded and
// checked once for all of them.

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "dynsample"

// unusedAllowed is the whole list of exported names that may lack a caller
// outside tests, each with its reason. A package path stands for every name
// in it, a type for its methods.
var unusedAllowed = map[string]string{
	"internal/faults":          "fault-injection hooks are test support by design",
	"internal/faults/crashsim": "the crash simulator is test support by design",
	"stats.CountCI":            "ROADMAP item 19 decides whether the served COUNT intervals use it",
	"stats.SumCI":              "ROADMAP item 19 decides whether the served SUM intervals use it",
	"stats.VarianceFromSums":   "ROADMAP item 19's SUM interval variance",
	"stats.Moments":            "ROADMAP item 19's SUM interval variance",
	"stats.Interval.Contains":  "ROADMAP item 19's coverage check",
}

// unsetAllowed is the whole list of option fields that may lack a program
// setting them, each with its reason.
var unsetAllowed = map[string]string{
	"core.SmallGroupConfig.Pairs":             "ROADMAP item 10 chooses the pair tables by budget",
	"core.SmallGroupConfig.MaxTablesPerQuery": "every version 8 family record stores it",
	"catalog.Options.Retain":                  "the benchmark harness builds catalog.Options{}, whose only field it is",
}

// modPkg is one directory of the module that holds Go files.
type modPkg struct {
	dir, path string
	bp        *build.Package
	files     []*ast.File // non-test files only
	types     *types.Package
	info      *types.Info
}

// moduleLoader type-checks the module's packages from their non-test files,
// and the standard library from source. It hands each module package out
// once, so an object one package declares is the object every other
// package's references resolve to.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modPkg // by import path
}

var (
	moduleOnce sync.Once
	module     *moduleLoader
	moduleErr  error
)

// loadedModule is the module parsed and type-checked, once per test binary.
func loadedModule(t *testing.T) *moduleLoader {
	t.Helper()
	moduleOnce.Do(func() {
		if module, moduleErr = loadModule(); moduleErr == nil {
			moduleErr = module.checkAll()
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// loadModule finds and parses every package of the module under the current
// directory; testdata and hidden directories hold none.
func loadModule() (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modPkg{}}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &modPkg{dir: dir, path: path.Join(modulePath, filepath.ToSlash(dir)), bp: bp}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		l.pkgs[p.path] = p
		return nil
	})
	return l, err
}

// checkAll type-checks every package of the module.
func (l *moduleLoader) checkAll() error {
	for _, p := range l.pkgs {
		if _, err := l.check(p); err != nil {
			return err
		}
	}
	return nil
}

// Import is the importer every module package is checked with.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.check(p)
	}
	return l.std.Import(path)
}

func (l *moduleLoader) check(p *modPkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestEveryExportHasACaller fails on each exported package-level name, and
// each exported method of an exported type, that no non-test file of the
// module references. A method that implements an interface declared in the
// module, error, fmt.Stringer or errors.Is's Unwrap counts as used: the
// interface is how it is called. It also fails on an unusedAllowed entry that
// no longer covers an unused name.
func TestEveryExportHasACaller(t *testing.T) {
	l := loadedModule(t)
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	errorType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errorType)), false))}, nil)
	unwrap.Complete()
	ifaces = append(ifaces,
		errorType.Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		unwrap)
	implementsOne := func(recv types.Type, method string) bool {
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, method); obj == nil {
				continue
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	// flag records the unused name names[0], unless an allowlist entry among
	// names covers it; an entry that covers nothing is stale.
	var unused []string
	needed := map[string]bool{}
	flag := func(names ...string) {
		for _, n := range names {
			if _, ok := unusedAllowed[n]; ok {
				needed[n] = true
				return
			}
		}
		unused = append(unused, names[0])
	}
	for _, p := range l.pkgs {
		if rel := strings.TrimPrefix(p.path, modulePath+"/"); unusedAllowed[rel] != "" {
			needed[rel] = true
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			qual := p.types.Name() + "." + name
			if !used[obj] {
				flag(qual)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !implementsOne(named, m.Name()) {
					flag(qual+"."+m.Name(), qual) // a type's entry stands for its methods
				}
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported, but no non-test file uses it: delete it, or unexport it if its own package needs it", name)
	}
	for name := range unusedAllowed {
		if !needed[name] {
			t.Errorf("unusedAllowed lists %s, which is gone or has a non-test caller now: drop the entry", name)
		}
	}
}

// docRef is a backticked pkg.Name or pkg.Type.Member, optionally called:
// `core.System`, `engine.Database.FactSlice`, `obs.Default()`. A name with an
// underscore is a benchmark layer metric (`engine.scan_ns_per_row`), not a
// declaration.
var docRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")

// TestDocsNameDeclarations holds every docRef in README.md, DESIGN.md,
// ARCHITECTURE.md and docs/*.md whose pkg is a package of the module to a
// declaration of that package, its test files included. pkg.Type.Member
// resolves when Type declares a method, a field or an interface method of
// that name.
func TestDocsNameDeclarations(t *testing.T) {
	l := loadedModule(t)
	decls := map[string]map[string]bool{} // package name -> "Name" and "Type.Member"
	for _, p := range l.pkgs {
		if p.bp.Name == "main" {
			continue
		}
		if decls[p.bp.Name] == nil {
			decls[p.bp.Name] = map[string]bool{}
		}
		files := p.files
		for _, name := range append(append([]string{}, p.bp.TestGoFiles...), p.bp.XTestGoFiles...) {
			f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		for _, f := range files {
			declNames(f, decls[p.bp.Name])
		}
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append([]string{"README.md", "DESIGN.md", "ARCHITECTURE.md"}, docs...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue
				}
				checked++
				key := m[2]
				if m[3] != "" {
					key += "." + m[3]
				}
				if !names[key] {
					t.Errorf("%s:%d names %s, which package %s does not declare", doc, i+1, m[0], m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("the docs name no declaration of the module; is the reference pattern stale?")
	}
	t.Logf("%d references checked", checked)
}

// declNames adds f's package-level names to names, and for each type its
// methods, fields and interface methods as "Type.Member".
func declNames(f *ast.File, names map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			for {
				switch r := recv.(type) {
				case *ast.StarExpr:
					recv = r.X
					continue
				case *ast.IndexExpr:
					recv = r.X
					continue
				case *ast.IndexListExpr:
					recv = r.X
					continue
				}
				break
			}
			if id, ok := recv.(*ast.Ident); ok {
				names[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names[id.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var fields *ast.FieldList
					switch typ := s.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, id := range field.Names {
							names[s.Name.Name+"."+id.Name] = true
						}
						if len(field.Names) == 0 {
							if id := embeddedName(field.Type); id != "" {
								names[s.Name.Name+"."+id] = true
							}
						}
					}
				}
			}
		}
	}
}

// embeddedName is the field name an embedded type gets.
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	}
	return ""
}

// TestEveryOptionIsSet fails on each exported field of an exported *Config
// or *Options struct that no non-test file of cmd/, internal/ or bench/
// writes from outside the field's package, as a composite-literal key or
// the target of an assignment. An option no program sets has one value in
// use: it is a constant. examples/ does not count, since an example only
// shows what a program could set. The test also fails on an unsetAllowed
// entry that no longer covers an unset field.
func TestEveryOptionIsSet(t *testing.T) {
	l := loadedModule(t)
	written := map[types.Object]bool{}
	for _, p := range l.pkgs {
		rel := strings.TrimPrefix(p.path, modulePath+"/")
		if !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "internal/") && rel != "bench" {
			continue
		}
		write := func(e ast.Expr) {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return
			}
			if f, ok := p.info.Uses[id].(*types.Var); ok && f.IsField() && f.Pkg() != p.types {
				written[f.Origin()] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					write(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(sel)
						}
					}
				}
				return true
			})
		}
	}
	fields := 0
	var unset []string
	needed := map[string]bool{}
	for _, p := range l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				fields++
				qual := p.types.Name() + "." + name + "." + f.Name()
				switch {
				case written[f]:
				case unsetAllowed[qual] != "":
					needed[qual] = true
				default:
					unset = append(unset, qual)
				}
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is an option no non-test file of cmd/, internal/ or bench/ sets: make its default a constant and delete it", name)
	}
	for name := range unsetAllowed {
		if !needed[name] {
			t.Errorf("unsetAllowed lists %s, which is gone or set by a program now: drop the entry", name)
		}
	}
	t.Logf("%d exported option fields, %d of them unset by any program", fields, len(needed)+len(unset))
}
