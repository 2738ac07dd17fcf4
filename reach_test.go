package vcqr

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// reach is the declaration graph TestServingReachesARequest walks: every
// top-level declaration of the non-test files of the root and serving
// packages, each with the declarations its body, signature or
// initialiser names. It is built from go/parser and go/ast alone, so an edge is a
// name, never a type:
//
//   - pkg.Name, pkg an import of this module → that declaration;
//   - a bare identifier → the declaration of that name in its own package;
//   - x.M → every method named M in a parsed package (conservative: an
//     interface call reaches every implementation, a field named like a
//     method keeps the method).
//
// Declaration keys are the package directory with its "internal/"
// prefix dropped, then the name: "engine.Publisher.Execute",
// "core.Build", "verify.Verifier".
type reach struct {
	fset    *token.FileSet
	decls   map[string]*reachDecl
	methods map[string][]string // method name → keys of every method so named
	roots   []string            // keys walked from unconditionally
	serving map[string]bool     // keys the gate holds to being reached
}

type reachDecl struct {
	kind  string // "func", "method", "type", "var" or "init"
	pos   token.Pos
	nodes []ast.Node // what the walk descends into
	file  *reachFile
	edges []string
}

type reachPkg struct {
	dir   string
	name  string
	files []*reachFile
}

type reachFile struct {
	pkg     *reachPkg
	ast     *ast.File
	imports map[string]*reachPkg // local name → imported package of this module
}

// parseReach parses every non-test Go file of fsys whose directory is
// one of roots (or below one) or a serving package — internal/... minus
// internal/paper/... — and links the graph. Every declaration of a root
// package is a root; so are the package-level var and const initialisers
// and init functions of every parsed package.
func parseReach(fsys fs.FS, roots []string) (*reach, error) {
	mod, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	r := &reach{
		fset:    token.NewFileSet(),
		decls:   map[string]*reachDecl{},
		methods: map[string][]string{},
		serving: map[string]bool{},
	}
	pkgs := map[string]*reachPkg{} // by directory
	isRoot := func(dir string) bool {
		return slices.ContainsFunc(roots, func(root string) bool {
			return dir == root || strings.HasPrefix(dir, root+"/")
		})
	}
	isServing := func(dir string) bool {
		return strings.HasPrefix(dir, "internal/") && dir != "internal/paper" && !strings.HasPrefix(dir, "internal/paper/")
	}
	err = fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); name != "." && (base == "testdata" || strings.HasPrefix(base, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		dir := path.Dir(name)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || !(isRoot(dir) || isServing(dir)) {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(r.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p := pkgs[dir]
		if p == nil {
			p = &reachPkg{dir: dir, name: f.Name.Name}
			pkgs[dir] = p
		}
		p.files = append(p.files, &reachFile{pkg: p, ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, p := range pkgs {
		root := isRoot(p.dir)
		for _, f := range p.files {
			f.imports = map[string]*reachPkg{}
			for _, spec := range f.ast.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				dep := pkgs[strings.TrimPrefix(ip, mod+"/")]
				if dep == nil || !strings.HasPrefix(ip, mod+"/") {
					continue
				}
				local := dep.name
				if spec.Name != nil {
					local = spec.Name.Name
				}
				f.imports[local] = dep
			}
			for _, decl := range f.ast.Decls {
				r.declare(f, decl, root, isServing(p.dir))
			}
		}
	}
	for _, name := range stdlibCalls {
		r.roots = append(r.roots, r.methods[name]...)
	}
	for _, d := range r.decls {
		d.link(r)
	}
	return r, nil
}

// stdlibCalls are the methods the standard library calls through an
// interface, so no parsed file names the call: fmt's Stringer and
// error, errors' Unwrap, http.Handler, and io's Reader, Writer and
// Closer.
var stdlibCalls = []string{"String", "Error", "Unwrap", "ServeHTTP", "Read", "Write", "Close"}

// modulePath reads the module line of fsys's go.mod.
func modulePath(fsys fs.FS) (string, error) {
	src, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("go.mod names no module")
}

// declare adds one top-level declaration's nodes to the graph.
func (r *reach) declare(f *reachFile, decl ast.Decl, root, serving bool) {
	prefix := strings.TrimPrefix(f.pkg.dir, "internal/") + "."
	// Package-level vars, consts and init functions are roots wherever
	// they are declared: they run (or fold) whether or not anything
	// names them.
	add := func(key, kind string, pos token.Pos, nodes ...ast.Node) {
		if _, dup := r.decls[key]; dup {
			key = fmt.Sprintf("%s#%d", key, len(r.decls)) // a second init, a second _
		}
		r.decls[key] = &reachDecl{kind: kind, pos: pos, nodes: nodes, file: f}
		if root || kind == "var" || kind == "init" {
			r.roots = append(r.roots, key)
		} else if serving {
			r.serving[key] = true
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		nodes := []ast.Node{d.Type}
		if d.Body != nil {
			nodes = append(nodes, d.Body)
		}
		if d.Recv == nil {
			kind := "func"
			if d.Name.Name == "init" {
				kind = "init"
			}
			add(prefix+d.Name.Name, kind, d.Pos(), nodes...)
			return
		}
		// The receiver is not walked: a type whose only mention is its
		// own methods is reached by nothing.
		key := prefix + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
		add(key, "method", d.Pos(), nodes...)
		r.methods[d.Name.Name] = append(r.methods[d.Name.Name], key)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				nodes := []ast.Node{s.Type}
				if s.TypeParams != nil {
					nodes = append(nodes, s.TypeParams)
				}
				add(prefix+s.Name.Name, "type", s.Pos(), nodes...)
			case *ast.ValueSpec:
				var nodes []ast.Node
				if s.Type != nil {
					nodes = append(nodes, s.Type)
				}
				for _, v := range s.Values {
					nodes = append(nodes, v)
				}
				add(prefix+s.Names[0].Name, "var", s.Pos(), nodes...)
			}
		}
	}
}

// recvName is the base type name of a method receiver: T of T, *T,
// T[K] and *T[K, V].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// link records the declarations d names. Names that bind rather than
// refer — struct fields, parameters, composite-literal keys, := and var
// left-hand sides, labels — are skipped, so a local called like a
// package-level function does not keep it.
func (d *reachDecl) link(r *reach) {
	prefix := strings.TrimPrefix(d.file.pkg.dir, "internal/") + "."
	ref := func(key string) {
		if _, ok := r.decls[key]; ok {
			d.edges = append(d.edges, key)
		}
	}
	var walk func(n ast.Node) bool
	visit := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, walk)
		}
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			ref(prefix + n.Name)
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if dep := d.file.imports[id.Name]; dep != nil {
					key := strings.TrimPrefix(dep.dir, "internal/") + "." + n.Sel.Name
					if _, ok := r.decls[key]; ok {
						ref(key)
						return false
					}
					// No such declaration: the import name is shadowed
					// by a local; fall through to a method call.
				}
			}
			d.edges = append(d.edges, r.methods[n.Sel.Name]...)
			visit(n.X)
			return false
		case *ast.Field:
			visit(n.Type)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); !ok {
				visit(n.Key)
			}
			visit(n.Value)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.Ident); !ok || n.Tok != token.DEFINE {
					visit(lhs)
				}
			}
			for _, rhs := range n.Rhs {
				visit(rhs)
			}
			return false
		case *ast.RangeStmt:
			if n.Tok != token.DEFINE {
				visit(n.Key)
				visit(n.Value)
			}
			visit(n.X)
			visit(n.Body)
			return false
		case *ast.ValueSpec:
			visit(n.Type)
			for _, v := range n.Values {
				visit(v)
			}
			return false
		case *ast.LabeledStmt:
			visit(n.Stmt)
			return false
		case *ast.BranchStmt:
			return false
		}
		return true
	}
	for _, n := range d.nodes {
		visit(n)
	}
}

// walk returns every key reachable from from.
func (r *reach) walk(from []string) map[string]bool {
	seen := map[string]bool{}
	queue := slices.Clone(from)
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[key] {
			continue
		}
		seen[key] = true
		if d := r.decls[key]; d != nil {
			queue = append(queue, d.edges...)
		}
	}
	return seen
}

// check walks from the roots plus the allow-list and returns one line
// per finding, sorted: a serving function, method or type nothing
// reaches; an allow-list entry whose reason files it as neither a test
// seam nor a reference, so paper and example code cannot stay in the
// serving tree; an entry that names no such declaration; and an entry
// the walk reaches without it (from the roots and the other entries), so
// the list can only shrink.
func (r *reach) check(allow map[string]string) []string {
	var out []string
	from := slices.Clone(r.roots)
	for key, reason := range allow {
		if !strings.HasPrefix(reason, "test seam: ") && !strings.HasPrefix(reason, "reference: ") {
			out = append(out, fmt.Sprintf("allow-list entry %s: reason %q starts with neither \"test seam: \" nor \"reference: \"", key, reason))
		}
		if !r.serving[key] {
			out = append(out, fmt.Sprintf("allow-list entry %s names no serving function, method or type", key))
			continue
		}
		from = append(from, key)
	}
	reached := r.walk(from)
	for key := range r.serving {
		if !reached[key] {
			d := r.decls[key]
			out = append(out, fmt.Sprintf("%s: %s %s is reached by no request", r.fset.Position(d.pos), d.kind, key))
		}
	}
	for key := range allow {
		if !r.serving[key] {
			continue
		}
		others := slices.DeleteFunc(slices.Clone(from), func(k string) bool { return k == key })
		if r.walk(others)[key] {
			out = append(out, fmt.Sprintf("allow-list entry %s is reached anyway", key))
		}
	}
	slices.Sort(out)
	return out
}

// TestReachGate feeds the walker a mini-tree with one root binary and
// two serving packages, and checks each kind of finding it must make
// and each reference it must accept.
func TestReachGate(t *testing.T) {
	tree := fstest.MapFS{
		"go.mod": {Data: []byte("module m\n\ngo 1.24\n")},
		"cmd/srv/main.go": {Data: []byte(`package main

import (
	"fmt"
	"io"

	"m/internal/a"
	bee "m/internal/b"
)

func main() {
	var w io.Writer = a.New()
	fmt.Fprintln(w, bee.Used())
	var s fmt.Stringer = a.New()
	_ = s
	var c a.Shutter = a.New()
	c.Shut()
}
`)},
		"internal/a/a.go": {Data: []byte(`package a

// Shutter is called through its interface only.
type Shutter interface{ Shut() error }

type T struct{ n int }

func New() *T { return &T{} }

func (t *T) Write(p []byte) (int, error) { return len(p), nil }

// String is reached by name: fmt calls it through fmt.Stringer.
func (t *T) String() string { return "t" }

// Shut is reached only through the interface call c.Shut().
func (t *T) Shut() error { return nil }

// Unused is a method nothing calls.
func (t *T) Unused() {}

// Orphan is a type nothing names but its own method.
type Orphan struct{}

func (Orphan) Run() {}

// caller is unreached; callee is reached only from it.
func caller() { callee() }

func callee() {}

// Kept is unreached but allow-listed.
func Kept() { keptHelper() }

func keptHelper() {}

// Stale is reached, so allow-listing it is stale.
func Stale() {}
`)},
		"internal/b/b.go": {Data: []byte(`package b

import "m/internal/a"

var registered = register()

func register() int { return 1 }

func Used() string { a.Stale(); return "" }
`)},
		"internal/paper/p/p.go": {Data: []byte(`package p

import "m/internal/a"

// References from the paper tree do not count.
func Paper() { a.New().Unused() }
`)},
		"examples/e/main.go": {Data: []byte(`package main

import "m/internal/a"

func main() { a.Kept() }
`)},
	}
	r, err := parseReach(tree, []string{"cmd/srv"})
	if err != nil {
		t.Fatal(err)
	}
	got := r.check(map[string]string{
		"a.Kept":    "test seam: examples/e calls it",
		"a.Stale":   "reference: a stale entry",
		"a.Missing": "names nothing",
	})
	want := []string{
		"a.Missing names no serving function",
		`a.Missing: reason "names nothing" starts with neither`,
		"a.Stale is reached anyway",
		"method a.Orphan.Run is reached by no request",
		"method a.T.Unused is reached by no request",
		"type a.Orphan is reached by no request",
		"func a.caller is reached by no request",
		"func a.callee is reached by no request",
	}
	for _, w := range want {
		if !slices.ContainsFunc(got, func(line string) bool { return strings.Contains(line, w) }) {
			t.Errorf("findings miss %q", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
}
