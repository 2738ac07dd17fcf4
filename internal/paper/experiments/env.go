// Package experiments implements the benchmark harness that regenerates
// every table and figure of the paper's evaluation (Section 6), plus the
// comparative and ablation experiments indexed in DESIGN.md (E1-E9).
//
// Each experiment returns typed rows and offers a tabular printer; the
// cmd/vcbench driver and the repository-root benchmarks are thin wrappers
// around this package. All workloads are seeded and deterministic.
package experiments

import (
	"fmt"
	"io"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/workload"
)

// Env carries the shared experiment environment: the owner key (generated
// once — RSA keygen is slow) and the scale knob.
type Env struct {
	Key *sig.PrivateKey
	// Short reduces dataset sizes for quick runs (go test, CI).
	Short bool
}

// NewEnv creates the environment.
func NewEnv(short bool) (*Env, error) {
	key, err := sig.Generate(sig.DefaultBits, nil)
	if err != nil {
		return nil, err
	}
	return &Env{Key: key, Short: short}, nil
}

// scale shrinks a size in Short mode.
func (e *Env) scale(n int) int {
	if e.Short && n > 64 {
		return n / 4
	}
	return n
}

// buildUniform signs a uniform relation of n records with the given
// payload size over a 32-bit key domain at base B.
func (e *Env) buildUniform(h *hashx.Hasher, n, payload int, base uint64, seed int64) (*core.SignedRelation, *relation.Relation, error) {
	rel, err := workload.Uniform(workload.UniformConfig{
		N: n, L: 0, U: 1 << 32, PayloadSize: payload, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewParams(0, 1<<32, base)
	if err != nil {
		return nil, nil, err
	}
	sr, err := core.Build(h, e.Key, p, rel)
	if err != nil {
		return nil, nil, err
	}
	return sr, rel, nil
}

// publisherFor wraps a signed relation in a single-role publisher.
func (e *Env) publisherFor(h *hashx.Hasher, sr *core.SignedRelation) (*engine.Publisher, accessctl.Role) {
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(role))
	// Ingest validation is an O(n) rebuild; experiments skip it.
	_ = pub.AddRelation(sr, false)
	return pub, role
}

// greaterThanQuery returns a query selecting the top q records of sr:
// the Section 3 greater-than predicate, which formula (4)/(5) model.
func greaterThanQuery(sr *core.SignedRelation, name string, q int) (engine.Query, error) {
	n := sr.Len()
	if q > n {
		return engine.Query{}, fmt.Errorf("experiments: want %d results from %d records", q, n)
	}
	lo := sr.Recs[n-q+1].Key() // index n-q+1 is the (q)th record from the end
	return engine.Query{Relation: name, KeyLo: lo}, nil
}

// printTable writes rows with a header through a tab-ish formatter.
func printTable(w io.Writer, header string, rows []string) {
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	fmt.Fprintln(w)
}
