// Package workload generates the synthetic datasets and query mixes the
// benchmark harness uses to regenerate the paper's evaluation: an
// Employee table shaped like Figure 1 and parameterized uniform relations
// with controllable record sizes (the Mr axis of Figure 9).
//
// Everything is seeded: the same seed reproduces the same dataset, so
// experiment output is deterministic across runs.
package workload

import (
	"fmt"
	"math/rand"

	"vcqr/internal/relation"
)

// EmployeeSchema is the Figure 1 table plus a clerk-visibility column.
func EmployeeSchema() relation.Schema {
	return relation.Schema{
		Name:    "Emp",
		KeyName: "Salary",
		Cols: []relation.Column{
			{Name: "ID", Type: relation.TypeInt},
			{Name: "Name", Type: relation.TypeString},
			{Name: "Dept", Type: relation.TypeInt},
			{Name: "Photo", Type: relation.TypeBytes},
			{Name: "vis_clerk", Type: relation.TypeBool},
		},
	}
}

// EmployeeConfig parameterizes the employee generator.
type EmployeeConfig struct {
	N         int    // number of records
	L, U      uint64 // salary domain (open interval)
	Depts     int    // number of departments
	PhotoSize int    // BLOB size in bytes (drives Mr)
	HiddenPct int    // percent of records with vis_clerk = false
	Seed      int64
}

// Employees generates an employee relation.
func Employees(cfg EmployeeConfig) (*relation.Relation, error) {
	if cfg.Depts <= 0 {
		cfg.Depts = 5
	}
	rel, err := relation.New(EmployeeSchema(), cfg.L, cfg.U)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		salary := uint64(rng.Int63n(int64(cfg.U-cfg.L-1))) + cfg.L + 1
		photo := make([]byte, cfg.PhotoSize)
		rng.Read(photo)
		vis := rng.Intn(100) >= cfg.HiddenPct
		if _, err := rel.Insert(relation.Tuple{Key: salary, Attrs: []relation.Value{
			relation.IntVal(int64(i)),
			relation.StringVal(fmt.Sprintf("emp-%04d", i)),
			relation.IntVal(int64(rng.Intn(cfg.Depts)) + 1),
			relation.BytesVal(photo),
			relation.BoolVal(vis),
		}}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// UniformConfig parameterizes the generic record generator used for the
// Figure 9 sweep: record size is controlled by the payload column.
type UniformConfig struct {
	N           int
	L, U        uint64
	PayloadSize int // bytes per record payload (Mr - key size, approx.)
	Seed        int64
}

// UniformSchema is the minimal key+payload schema.
func UniformSchema() relation.Schema {
	return relation.Schema{
		Name:    "Uniform",
		KeyName: "K",
		Cols: []relation.Column{
			{Name: "Payload", Type: relation.TypeBytes},
		},
	}
}

// Uniform generates N records with uniformly random distinct-ish keys.
func Uniform(cfg UniformConfig) (*relation.Relation, error) {
	rel, err := relation.New(UniformSchema(), cfg.L, cfg.U)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		key := uint64(rng.Int63n(int64(cfg.U-cfg.L-1))) + cfg.L + 1
		payload := make([]byte, cfg.PayloadSize)
		rng.Read(payload)
		if _, err := rel.Insert(relation.Tuple{Key: key, Attrs: []relation.Value{
			relation.BytesVal(payload),
		}}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
