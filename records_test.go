package vcqr

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRecordWriteThrough pins the rule core.SignedRelation.Clone rests
// on: a record that is in a relation is never written, because every
// clone of the relation shares it by pointer. No Go file of the module,
// tests included, assigns to, increments or xors into anything inside a
// record it reached through a .Recs[i] index — a field, a byte of a
// digest or signature, a tuple attribute — directly, through a local
// alias of a .Recs slice, or through a local variable bound to one of
// its records. An editor swaps the pointer (x.Recs[i] = rec) or writes
// the deep copy SignedRelation.Own(i) swaps in.
func TestNoRecordWriteThrough(t *testing.T) {
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sites, err := recordWrites(path, src)
		found = append(found, sites...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range found {
		t.Errorf("%s: a record in a relation is shared by its clones; swap the pointer or write through SignedRelation.Own(i)", s)
	}
}

// TestRecordWriteGuardCatches holds the guard to every form of write it
// names, and to none of the pointer swaps and fresh copies it allows.
func TestRecordWriteGuardCatches(t *testing.T) {
	src := `package p

func f(sr, cl *R, rec *Rec) {
	sr.Recs[1].Sig = nil
	sr.Recs[1].Sig[0] ^= 1
	cl.Recs[2].Tuple.Attrs[0] = v
	sr.Recs[3].Tuple.Key++
	*sr.Recs[4] = *rec
	(sr.Recs[5]).G, x = nil, 1
	recs := sr.Recs[1:]
	recs[6].Sig = nil
	for _, r := range cl.Recs {
		r.G = nil
	}
	e := recs[7]
	e.Tuple.Key++

	sr.Recs[1] = rec
	sr.Recs = sr.Recs[:2]
	sr.Own(1).Sig = nil
	rec.Sig = sr.Recs[1].Sig
	x := sr.Recs[1].G
	recs[6] = rec
	e = sr.Own(7)
	e.Tuple.Key++
	c := sr.Recs[8].Clone()
	c.Sig = nil
}
`
	sites, err := recordWrites("p.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"p.go:4: sr.Recs[1].Sig", "p.go:5: sr.Recs[1].Sig[0]", "p.go:6: cl.Recs[2].Tuple.Attrs[0]",
		"p.go:7: sr.Recs[3].Tuple.Key", "p.go:8: *sr.Recs[4]", "p.go:9: (sr.Recs[5]).G",
		"p.go:11: recs[6].Sig", "p.go:13: r.G", "p.go:16: e.Tuple.Key",
	}
	if fmt.Sprint(sites) != fmt.Sprint(want) {
		t.Fatalf("guard found\n%q\nwant\n%q", sites, want)
	}
}

// recordWrites parses one file and returns "path:line: lhs" for every
// assignment or ++/-- whose target lies inside a record reached through
// a .Recs[i] index. Statements are read in source order: a local
// variable is an alias of a .Recs slice, or bound to one of its records,
// from the assignment that makes it one to the next that does not.
func recordWrites(path string, src []byte) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	aliases, elems := map[*ast.Object]bool{}, map[*ast.Object]bool{}
	var isRecs func(e ast.Expr) bool // x.Recs, a slice of it, or an alias
	isRecs = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return x.Sel.Name == "Recs"
		case *ast.SliceExpr:
			return isRecs(x.X)
		case *ast.Ident:
			return x.Obj != nil && aliases[x.Obj]
		}
		return false
	}
	isElem := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		return ok && isRecs(ix.X)
	}
	bind := func(lhs ast.Expr, slice, elem bool) {
		if id, ok := lhs.(*ast.Ident); ok && id.Obj != nil {
			aliases[id.Obj], elems[id.Obj] = slice, elem
		}
	}
	// written reports whether writing e writes inside such a record.
	written := func(e ast.Expr) bool {
		for top := true; ; top = false {
			switch x := e.(type) {
			case *ast.IndexExpr:
				if !top && isRecs(x.X) {
					return true
				}
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.Ident:
				return !top && x.Obj != nil && elems[x.Obj]
			default:
				return false
			}
		}
	}
	var out []string
	check := func(lhs ast.Expr) {
		if written(lhs) {
			from, to := fset.Position(lhs.Pos()), fset.Position(lhs.End())
			out = append(out, fmt.Sprintf("%s:%d: %s", path, from.Line, src[from.Offset:to.Offset]))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				check(lhs)
			}
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					bind(lhs, isRecs(s.Rhs[i]), isElem(s.Rhs[i]))
				}
			}
		case *ast.IncDecStmt:
			check(s.X)
		case *ast.RangeStmt:
			if s.Value != nil && isRecs(s.X) {
				bind(s.Value, false, true)
			}
		}
		return true
	})
	return out, nil
}
