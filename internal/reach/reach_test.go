// Package reach is the repo's pruning gate (`make reach`). It holds no
// production code: one env-gated test type-checks every package of the
// module, tests included, and fails on declarations under internal/ and
// cmd/ that only their own package's tests still reach.
//
// Reachability is transitive. Roots are main and init functions, blank
// package-level vars, every declaration in the root facade, examples/
// and benchmark/, every declaration in a _test.go file, and the names on
// allowlist.txt. A reference made from a _test.go file to a declaration
// of its own directory is not followed — a mechanism only its own tests
// select is exactly what the gate exists to catch. A method that
// implements an interface is reached with its receiver type.
package reach

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "ntpscan"

// decl is one non-field declaration in a non-test or test file.
type decl struct {
	name   string // "internal/zgrab.Scanner.Submit"
	dir    string // module-relative directory, "." for the root
	test   bool   // declared in a _test.go file
	root   bool
	impl   bool // a method that satisfies some interface its receiver implements
	refs   []ref
	anyRef bool // referenced from anywhere but its own body
}

// ref is one outgoing reference; ownTest marks a reference made from a
// _test.go file to a declaration of the same directory.
type ref struct {
	to      *decl
	ownTest bool
}

type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*build.Package // import path → directory listing
	pkgs  map[string]*types.Package // import path → non-test package
	files map[string]*ast.File
	decls map[token.Pos]*decl
	errs  []error
	// units keeps every type-checked file set with its Info for the
	// edge pass, which needs all declarations known first.
	units []unit
	// methods are the non-test methods, checked against ifaces once
	// every package is loaded.
	methods []*types.Func
}

type unit struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if bp, ok := l.dirs[path]; ok {
		if pkg, ok := l.pkgs[path]; ok {
			return pkg, nil
		}
		pkg := l.check(path, bp, bp.GoFiles, true)
		l.pkgs[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) parse(dir, name string) *ast.File {
	full := filepath.Join(dir, name)
	if f, ok := l.files[full]; ok {
		return f
	}
	f, err := parser.ParseFile(l.fset, full, nil, parser.SkipObjectResolution)
	if err != nil {
		l.errs = append(l.errs, err)
	}
	l.files[full] = f
	return f
}

// check type-checks one file set of a directory and records its
// declarations. prod marks the non-test variant other packages import.
func (l *loader) check(path string, bp *build.Package, names []string, prod bool) *types.Package {
	var files []*ast.File
	for _, n := range names {
		if f := l.parse(bp.Dir, n); f != nil {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.errs = append(l.errs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	rel, _ := filepath.Rel(l.root, bp.Dir)
	rel = filepath.ToSlash(rel)
	l.units = append(l.units, unit{dir: rel, files: files, info: info})
	for id, obj := range info.Defs {
		if obj == nil || id.Name == "_" {
			continue
		}
		if _, seen := l.decls[obj.Pos()]; seen {
			continue
		}
		name, ok := declName(obj, pkg)
		if !ok {
			continue
		}
		test := strings.HasSuffix(l.fset.Position(obj.Pos()).Filename, "_test.go")
		d := &decl{name: rel + "." + name, dir: rel, test: test}
		top := strings.SplitN(rel, "/", 2)[0]
		d.root = test || name == "main" || name == "init" ||
			(top != "internal" && top != "cmd")
		l.decls[obj.Pos()] = d
		if fn, ok := obj.(*types.Func); ok && prod && fn.Type().(*types.Signature).Recv() != nil {
			l.methods = append(l.methods, fn)
		}
	}
	return pkg
}

// declName names a package-level func, type, var or const, a method, or
// an interface method; everything else (fields, locals, labels,
// parameters) is not a declaration the gate tracks.
func declName(obj types.Object, pkg *types.Package) (string, bool) {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + o.Name(), true
			}
			// Method of an interface literal: the enclosing
			// declaration owns it.
			return "", false
		}
		return o.Name(), true
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() == pkg.Scope() {
			return obj.Name(), true
		}
	}
	return "", false
}

// edges walks every top-level declaration of every unit and records
// which tracked declarations its identifiers resolve to.
func (l *loader) edges() {
	for _, u := range l.units {
		for _, f := range u.files {
			test := strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					l.walk(u, test, []*ast.Ident{d.Name}, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							l.walk(u, test, []*ast.Ident{s.Name}, s)
						case *ast.ValueSpec:
							l.walk(u, test, s.Names, s)
						}
					}
				}
			}
		}
	}
}

// walk records the references node n makes on behalf of the names it
// declares. A blank var (`var _ I = (*T)(nil)`) has no decl of its own:
// what it names is rooted.
func (l *loader) walk(u unit, test bool, from []*ast.Ident, n ast.Node) {
	var src []*decl
	blank := false
	for _, id := range from {
		if d, ok := l.decls[id.Pos()]; ok {
			src = append(src, d)
		} else {
			blank = true
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := u.info.Uses[id]
		if obj == nil {
			return true
		}
		to, ok := l.decls[obj.Pos()]
		if !ok {
			return true
		}
		self := false
		for _, s := range src {
			if s == to {
				self = true
				continue
			}
			s.refs = append(s.refs, ref{to: to, ownTest: test && to.dir == u.dir})
		}
		if !self {
			to.anyRef = true
		}
		if blank && !(test && to.dir == u.dir) {
			to.root = true
		}
		return true
	})
}

// linkImplementations adds a type → method edge for every method that
// satisfies a method of some interface its receiver implements, in the
// module or in any imported package (error, io.Writer, json.Marshaler,
// sort.Interface, ...).
func (l *loader) linkImplementations() {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || tn.IsAlias() && name == "any" {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i).Name()
				byMethod[m] = append(byMethod[m], it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	byMethod["Error"] = append(byMethod["Error"], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, fn := range l.methods {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				m := l.decls[fn.Pos()]
				m.impl = true
				if t, ok := l.decls[named.Obj().Pos()]; ok {
					t.refs = append(t.refs, ref{to: m})
				}
				break
			}
		}
	}
}

// reach marks everything reachable from the rooted declarations.
func (l *loader) reach(isRoot func(*decl) bool) map[*decl]bool {
	live := make(map[*decl]bool)
	var stack []*decl
	for _, d := range l.decls {
		if isRoot(d) {
			live[d] = true
			stack = append(stack, d)
		}
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range d.refs {
			if r.ownTest {
				continue
			}
			if !live[r.to] {
				live[r.to] = true
				stack = append(stack, r.to)
			}
		}
	}
	return live
}

func load(t *testing.T) *loader {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// Pure-Go variants of net and os/user: the source importer would
	// otherwise shell out to cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  make(map[string]*build.Package),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string]*ast.File),
		decls: make(map[token.Pos]*decl),
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n[0] == '.' || n[0] == '_' || n == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, path)
		ip := modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		bp := l.dirs[ip]
		if len(bp.GoFiles) > 0 {
			if _, err := l.Import(ip); err != nil {
				t.Fatal(err)
			}
		}
		if len(bp.TestGoFiles) > 0 {
			l.check(ip, bp, append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...), false)
		}
		if len(bp.XTestGoFiles) > 0 {
			l.check(ip+"_test", bp, bp.XTestGoFiles, false)
		}
	}
	for _, err := range l.errs {
		t.Errorf("type check: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	l.edges()
	l.linkImplementations()
	return l
}

// readAllowlist parses allowlist.txt: "name<TAB>reason" per line.
func readAllowlist(t *testing.T) map[string]string {
	f, err := os.Open("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, ok := strings.Cut(line, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist.txt: %q: want name<TAB>reason", line)
			continue
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func TestReach(t *testing.T) {
	if os.Getenv("NTPSCAN_REACH") == "" {
		t.Skip("whole-module type check, ~20 s: run `make reach` (NTPSCAN_REACH=1)")
	}
	l := load(t)
	allow := readAllowlist(t)

	// bare is what the roots reach on their own; gate adds the
	// allowlisted names as roots, so what they alone keep alive passes.
	bare := l.reach(func(d *decl) bool { return d.root })
	named := make(map[string]bool)
	gate := l.reach(func(d *decl) bool {
		if _, ok := allow[d.name]; ok && !d.test {
			named[d.name] = true
			if bare[d] {
				t.Errorf("allowlist.txt: %s is reached without the list now; drop the line", d.name)
			}
			return true
		}
		return d.root
	})
	dead := 0
	for _, name := range names(l, func(d *decl) bool { return !gate[d] }) {
		dead++
		t.Errorf("%s: reached only by its own package's tests, or by nothing; delete it or add it to allowlist.txt with a reason", name)
	}
	for name := range allow {
		if !named[name] {
			t.Errorf("allowlist.txt: %s names no declaration; drop the line", name)
		}
	}

	// The totals CHANGES.md quotes: declarations under internal/ that
	// production roots (cmd/, examples/, benchmark/, the facade) do not
	// reach, and how many of those nothing references at all.
	prod := l.reach(func(d *decl) bool { return d.root && !d.test })
	unreached := func(d *decl) bool {
		return !d.test && !prod[d] && strings.HasPrefix(d.dir, "internal/")
	}
	testOnly := names(l, unreached)
	unref := names(l, func(d *decl) bool { return unreached(d) && !d.anyRef && !d.impl })
	t.Logf("internal/ declarations production code does not reach: %d (%d with no reference at all); gate violations: %d; allowlisted: %d",
		len(testOnly), len(unref), dead, len(allow))
	t.Logf("not reached by production code:\n\t%s", strings.Join(testOnly, "\n\t"))
}

// names lists the matching declarations in sorted order.
func names(l *loader, match func(*decl) bool) []string {
	var out []string
	for _, d := range l.decls {
		if match(d) {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
