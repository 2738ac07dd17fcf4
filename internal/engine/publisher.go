package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// Publisher hosts signed relations on behalf of the owner and answers
// queries with verification objects. It is deliberately *able* to cheat
// (internal/paper/adversary does) because the system's guarantee is that
// cheating is detected by the user, not prevented at the publisher.
//
// Concurrency contract: AddRelation, Relation, Execute and the
// streaming executors may be called from multiple goroutines; the
// relation registry is guarded by an internal RWMutex. The *contents* of
// a hosted *core.SignedRelation must not be mutated while queries run —
// callers that apply live updates (internal/delta) must either serialize
// updates with queries or swap in a fresh copy via AddRelation, never
// modify a registered relation in place. internal/server implements the
// copy-on-write epoch discipline on top of this contract.
type Publisher struct {
	h      *hashx.Hasher
	pub    *sig.PublicKey
	policy accessctl.Policy

	mu   sync.RWMutex
	rels map[string]*core.SignedRelation

	// Obs receives stage latency observations (internal/obs) when the
	// hosting layer wires a registry in. Nil or disabled is a no-op. It
	// is read without synchronization and must be set before the
	// publisher is shared.
	Obs *obs.Registry
}

// NewPublisher creates a publisher that verifies relations against the
// owner's public key on ingest.
func NewPublisher(h *hashx.Hasher, pub *sig.PublicKey, policy accessctl.Policy) *Publisher {
	return &Publisher{
		h:      h,
		pub:    pub,
		policy: policy,
		rels:   make(map[string]*core.SignedRelation),
	}
}

// AddRelation ingests a signed relation after validating every digest and
// signature — the publisher protects itself from a corrupted owner feed.
// Publishing also builds the relation's crypto index (core.AggIndex),
// from which every condensed signature is assembled, unless it carries a
// current one: an O(n) pass here buys every subsequent query O(log n)
// signature aggregation. A relation that cannot be indexed (malformed
// signature bytes with validation off) is refused with core.ErrAggIndex.
func (p *Publisher) AddRelation(sr *core.SignedRelation, validate bool) error {
	if validate {
		if err := sr.Validate(p.h, p.pub); err != nil {
			return fmt.Errorf("engine: ingest validation: %w", err)
		}
	}
	if err := sr.EnsureAggIndex(p.h, p.pub); err != nil {
		return fmt.Errorf("engine: ingest: %w", err)
	}
	p.mu.Lock()
	p.rels[sr.Schema.Name] = sr
	p.mu.Unlock()
	return nil
}

// Relation returns a hosted relation by name.
func (p *Publisher) Relation(name string) (*core.SignedRelation, bool) {
	p.mu.RLock()
	sr, ok := p.rels[name]
	p.mu.RUnlock()
	return sr, ok
}

// Execute runs a select-project query for a role and returns the
// materialized result: the drain (Collect) of ExecuteStream, which
// rewrites the query per the role's row and column policies (Section 1's
// HR example) and proves completeness for the *rewritten* range, so
// nothing outside the user's rights is disclosed, not even as boundary
// records. It is the tests' and the paper tree's one-call query; every
// request is served as the stream.
func (p *Publisher) Execute(roleName string, q Query) (*Result, error) {
	st, err := p.ExecuteStream(roleName, q, StreamOpts{})
	if err != nil {
		return nil, err
	}
	return Collect(st)
}

// Plan is PlanQuery under this publisher's policy against one relation
// snapshot's parameters and schema: the role and the effective query
// every execution starts from (the Section 3.2 adversary starts there
// too).
func (p *Publisher) Plan(sr *core.SignedRelation, roleName string, q Query) (accessctl.Role, Query, error) {
	return PlanQuery(p.policy, sr.Params, sr.Schema, roleName, q)
}

// PlanQuery is the step every serving path takes before touching a
// record: resolve the role under the owner's policy, check the query's
// columns against the schema, and compute the effective rewrite. The
// publisher runs it per execution; the partitioned server and the
// cluster coordinator run it up front to decompose the effective range
// across shards before pinning any slice.
func PlanQuery(policy accessctl.Policy, params core.Params, schema relation.Schema, roleName string, q Query) (accessctl.Role, Query, error) {
	role, err := policy.Role(roleName)
	if err != nil {
		return role, Query{}, err
	}
	if err := q.Validate(schema); err != nil {
		return role, Query{}, err
	}
	eff, err := EffectiveQuery(params, schema, role, q)
	return role, eff, err
}

// EffectiveQuery computes the rewrite the owner's policy mandates for a
// role's query: range defaulting over the open domain (L, U), the role's
// row-policy clamp, and projection filtering, which keeps the role's
// visibility column in any projection so that results prove their
// visibility. The publisher executes the effective query, the verifier
// recomputes it to check the publisher's claim, and the serving layer
// derives it up front to decompose a range across partition shards
// before pinning their epochs — all three must agree, which is why the
// derivation is exported once.
func EffectiveQuery(p core.Params, schema relation.Schema, role accessctl.Role, q Query) (Query, error) {
	lo, hi := q.KeyLo, q.KeyHi
	if lo <= p.L {
		lo = p.L + 1
	}
	if hi == 0 || hi >= p.U {
		hi = p.U - 1
	}
	if lo > hi {
		return Query{}, fmt.Errorf("engine: empty key range [%d, %d]", lo, hi)
	}
	lo, hi, ok := role.ClampRange(lo, hi)
	if !ok {
		return Query{}, ErrEmptyRewrite
	}
	eff := q
	eff.KeyLo, eff.KeyHi = lo, hi
	eff.Project = role.FilterCols(schema, q.Project)
	if v := role.VisibilityCol; eff.Project != nil && schema.ColIndex(v) >= 0 && !slices.Contains(eff.Project, v) {
		// A record-level policy is a filter on the visibility column, and
		// a result row proves it passes one by disclosing the column.
		eff.Project = append(eff.Project, v)
	}
	return eff, nil
}

// filterCols returns the sorted distinct column indexes used by filters.
func filterCols(schema relation.Schema, filters []Filter) []int {
	set := map[int]bool{}
	for _, f := range filters {
		set[schema.ColIndex(f.Col)] = true
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// projectCols resolves a projection list (nil = all columns).
func projectCols(schema relation.Schema, project []string) []int {
	if project == nil {
		out := make([]int, len(schema.Cols))
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, len(project))
	for _, name := range project {
		if i := schema.ColIndex(name); i >= 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
