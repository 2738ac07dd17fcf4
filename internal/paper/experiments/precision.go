package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/devanbu"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
)

// PrecisionResult reports E9: the Figure 1 access-control scenario. The
// HR executive (rights: Salary < 9000) queries Salary < 10000. Under the
// Devanbu scheme, proving completeness requires disclosing the first
// record beyond the range boundary — the 12100 salary record the
// executive must not see. Under this paper's scheme the proof discloses
// nothing beyond the rewritten range.
type PrecisionResult struct {
	// OursRows is the verified result count for the executive.
	OursRows int
	// OursLeakedKeys lists out-of-rights keys visible anywhere in our
	// result (must be empty).
	OursLeakedKeys []uint64
	// DevanbuLeakedKeys lists out-of-rights keys the baseline disclosed
	// (the boundary tuples).
	DevanbuLeakedKeys []uint64
	// DevanbuLeakedTuple is true when a full out-of-rights tuple (all
	// attributes) was shipped.
	DevanbuLeakedTuple bool
}

// Precision runs E9 on the exact Figure 1 table.
func (e *Env) Precision() (PrecisionResult, error) {
	h := hashx.New()
	schema := relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "Name", Type: relation.TypeString},
			{Name: "Dept", Type: relation.TypeInt},
		},
	}
	rel, err := relation.New(schema, 0, 100000)
	if err != nil {
		return PrecisionResult{}, err
	}
	for _, r := range []struct {
		salary uint64
		name   string
		dept   int64
	}{
		{2000, "A", 1}, {3500, "C", 2}, {8010, "D", 1}, {12100, "B", 3}, {25000, "E", 2},
	} {
		if _, err := rel.Insert(relation.Tuple{Key: r.salary, Attrs: []relation.Value{
			relation.StringVal(r.name), relation.IntVal(r.dept),
		}}); err != nil {
			return PrecisionResult{}, err
		}
	}
	p, err := core.NewParams(0, 100000, 2)
	if err != nil {
		return PrecisionResult{}, err
	}
	sr, err := core.Build(h, e.Key, p, rel)
	if err != nil {
		return PrecisionResult{}, err
	}
	exec := accessctl.Role{Name: "exec", KeyHi: 8999}
	pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(exec))
	if err := pub.AddRelation(sr, false); err != nil {
		return PrecisionResult{}, err
	}

	out := PrecisionResult{}

	// Ours: the executive's query, rewritten to Salary < 9000.
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 9999}
	res, err := pub.Execute("exec", q)
	if err != nil {
		return PrecisionResult{}, err
	}
	rows, err := verify.New(h, e.Key.Public(), p, schema).VerifyResult(q, exec, res)
	if err != nil {
		return PrecisionResult{}, err
	}
	out.OursRows = len(rows)
	for _, entry := range res.VO.Entries {
		if entry.Key > 8999 {
			out.OursLeakedKeys = append(out.OursLeakedKeys, entry.Key)
		}
	}

	// Devanbu: proving completeness of Salary < 9000 forces disclosure of
	// the next record, salary 12100 — outside the executive's rights.
	st, err := devanbu.Build(h, e.Key, rel)
	if err != nil {
		return PrecisionResult{}, err
	}
	dres, err := st.Query(h, 1, 8999)
	if err != nil {
		return PrecisionResult{}, err
	}
	if _, err := devanbu.Verify(h, e.Key.Public(), dres); err != nil {
		return PrecisionResult{}, err
	}
	for _, t := range dres.Tuples {
		if t.Key > 8999 && t.Key < 100000 {
			out.DevanbuLeakedKeys = append(out.DevanbuLeakedKeys, t.Key)
			if len(t.Attrs) > 0 {
				out.DevanbuLeakedTuple = true
			}
		}
	}
	return out, nil
}

// PrintPrecision renders E9.
func PrintPrecision(w io.Writer, r PrecisionResult) {
	ours := "nothing outside the executive's rights"
	if len(r.OursLeakedKeys) > 0 {
		ours = fmt.Sprintf("LEAKED %v — FAILURE", r.OursLeakedKeys)
	}
	printTable(w, "E9 / Figure 1 — access-control precision (HR executive, rights Salary < 9000)", []string{
		fmt.Sprintf("ours:    %d verified rows; discloses %s", r.OursRows, ours),
		fmt.Sprintf("devanbu: discloses out-of-rights boundary keys %v (full tuple: %v)",
			r.DevanbuLeakedKeys, r.DevanbuLeakedTuple),
	})
}
