package relalg

import (
	"errors"
	"fmt"
	"sort"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/verify"
)

// Join verification failures.
var (
	ErrJoinIntegrity = errors.New("relalg: join omits a matching S tuple (referential integrity)")
	ErrJoinSpurious  = errors.New("relalg: join carries S results for keys not in R")
	ErrBandShape     = errors.New("relalg: band join partitions inconsistent")
)

// JoinQuery is a primary-key/foreign-key join (Section 4.3): R.fk = S.pk
// with an optional range restriction on the join attribute. R must be
// signed with its foreign-key column as the sort key ("ordering R on Ai at
// the owner's master database, and constructing signatures for this sort
// order"), and S with its primary key.
type JoinQuery struct {
	R, S string
	// KeyLo, KeyHi restrict the join-attribute range (inclusive);
	// zero KeyHi means unbounded, as in engine.Query.
	KeyLo, KeyHi uint64
	// RProject and SProject are the projections applied to each side.
	RProject, SProject []string
}

// JoinResult bundles the R-side range result with one S-side point result
// per distinct foreign-key value. Referential integrity guarantees every
// R.fk instance has a matching S.pk, so completeness of the join reduces
// to completeness of the R range plus authenticated point lookups on S.
type JoinResult struct {
	R *engine.Result
	// S maps each distinct foreign-key value appearing in R's result to
	// the point-query result [v, v] on S.
	S map[uint64]*engine.Result
}

// JoinedRow is one verified join output row.
type JoinedRow struct {
	RRow engine.Row
	SRow engine.Row
}

// ExecuteJoin answers a PK-FK join for a role. Both relations are
// resolved once up front so a concurrent AddRelation swap cannot mix two
// snapshot generations within one join result.
func ExecuteJoin(p *engine.Publisher, roleName string, q JoinQuery) (*JoinResult, error) {
	rRel, sRel, err := relations(p, q.R, q.S)
	if err != nil {
		return nil, fmt.Errorf("relalg: join: %w", err)
	}
	rRes, err := executeOn(p, rRel, roleName, engine.Query{
		Relation: q.R, KeyLo: q.KeyLo, KeyHi: q.KeyHi, Project: q.RProject,
	})
	if err != nil {
		return nil, fmt.Errorf("relalg: join R side: %w", err)
	}
	out := &JoinResult{R: rRes, S: make(map[uint64]*engine.Result)}
	for _, row := range rRes.Rows() {
		if _, done := out.S[row.Key]; done {
			continue
		}
		sRes, err := executeOn(p, sRel, roleName, engine.Query{
			Relation: q.S, KeyLo: row.Key, KeyHi: row.Key, Project: q.SProject,
		})
		if err != nil {
			return nil, fmt.Errorf("relalg: join S side (pk %d): %w", row.Key, err)
		}
		out.S[row.Key] = sRes
	}
	return out, nil
}

// VerifyJoin checks a PK-FK join result (Section 4.3) with r and s, the
// verifiers of the two sides: the R-side range result is verified as
// usual; then every distinct foreign-key value in the R rows must come
// with a verified point result on S containing at least one tuple
// (referential integrity mandates a match, so an empty point result
// means the publisher withheld it).
func VerifyJoin(r, s *verify.Verifier, q JoinQuery, role accessctl.Role, res *JoinResult) ([]JoinedRow, error) {
	rRows, err := r.VerifyResult(engine.Query{
		Relation: q.R, KeyLo: q.KeyLo, KeyHi: q.KeyHi, Project: q.RProject,
	}, role, res.R)
	if err != nil {
		return nil, fmt.Errorf("join R side: %w", err)
	}
	need := map[uint64]bool{}
	for _, row := range rRows {
		need[row.Key] = true
	}
	for v := range res.S {
		if !need[v] {
			return nil, fmt.Errorf("%w: key %d", ErrJoinSpurious, v)
		}
	}
	sRows := make(map[uint64][]engine.Row, len(need))
	for v := range need {
		sRes, ok := res.S[v]
		if !ok {
			return nil, fmt.Errorf("%w: no S result for key %d", ErrJoinIntegrity, v)
		}
		rows, err := s.VerifyResult(engine.Query{
			Relation: q.S, KeyLo: v, KeyHi: v, Project: q.SProject,
		}, role, sRes)
		if err != nil {
			return nil, fmt.Errorf("join S side (pk %d): %w", v, err)
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%w: key %d has no S tuple", ErrJoinIntegrity, v)
		}
		sRows[v] = rows
	}
	var out []JoinedRow
	for _, rr := range rRows {
		for _, sr := range sRows[rr.Key] {
			out = append(out, JoinedRow{RRow: rr, SRow: sr})
		}
	}
	return out, nil
}

// BandJoinQuery is the second join class of Section 4.3: R.Ai <= S.Aj.
// Completeness is checked from two range results:
//
//   - the R partition contains every r with L < r.Ai <= max(S.Aj), and
//   - the S partition contains every s with min(R.Ai) <= s.Aj < U.
type BandJoinQuery struct {
	R, S               string
	RProject, SProject []string
}

// BandJoinResult is either the two partitions (join non-empty) or an
// empty-join proof: a pivot v with proofs that S has no keys above v and R
// none at or below v, which together imply no pair r <= s exists.
type BandJoinResult struct {
	// R covers [L+1, X] on R where X = max(S partition); nil when Empty.
	R *engine.Result
	// S covers [Y, U-1] on S where Y = min(R partition); nil when Empty.
	S *engine.Result
	// Empty signals an empty join, attested by REmpty and SEmpty.
	Empty bool
	// Pivot v: SEmpty proves S ∩ [v+1, U-1] = ∅, REmpty proves
	// R ∩ [L+1, v] = ∅.
	Pivot  uint64
	REmpty *engine.Result
	SEmpty *engine.Result
}

// ExecuteBandJoin answers R.key <= S.key for a role.
func ExecuteBandJoin(p *engine.Publisher, roleName string, q BandJoinQuery) (*BandJoinResult, error) {
	rRel, sRel, err := relations(p, q.R, q.S)
	if err != nil {
		return nil, err
	}
	minR, okR := minKey(rRel)
	maxS, okS := maxKey(sRel)
	if !okR || !okS || minR > maxS {
		// Empty join: pick the pivot proving separation. With an empty R,
		// any pivot at the top of the domain works; with an empty S, any
		// pivot at the bottom; otherwise maxS itself separates.
		pivot := maxS
		if !okS {
			pivot = rRel.Params.L // S empty: [L+1, U-1] shows it; R side [L+1, L] is vacuous
		}
		res := &BandJoinResult{Empty: true, Pivot: pivot}
		var err error
		if pivot+1 <= sRel.Params.U-1 {
			res.SEmpty, err = executeOn(p, sRel, roleName, engine.Query{Relation: q.S, KeyLo: pivot + 1})
			if err != nil {
				return nil, fmt.Errorf("relalg: band join S-empty proof: %w", err)
			}
		}
		if pivot >= rRel.Params.L+1 {
			res.REmpty, err = executeOn(p, rRel, roleName, engine.Query{Relation: q.R, KeyLo: rRel.Params.L + 1, KeyHi: pivot})
			if err != nil {
				return nil, fmt.Errorf("relalg: band join R-empty proof: %w", err)
			}
		}
		return res, nil
	}
	rRes, err := executeOn(p, rRel, roleName, engine.Query{Relation: q.R, KeyLo: rRel.Params.L + 1, KeyHi: maxS, Project: q.RProject})
	if err != nil {
		return nil, fmt.Errorf("relalg: band join R partition: %w", err)
	}
	sRes, err := executeOn(p, sRel, roleName, engine.Query{Relation: q.S, KeyLo: minR, Project: q.SProject})
	if err != nil {
		return nil, fmt.Errorf("relalg: band join S partition: %w", err)
	}
	return &BandJoinResult{R: rRes, S: sRes}, nil
}

// VerifyBandJoin checks an R.key <= S.key band join per the Section 4.3
// bullets, with r and s the verifiers of the two sides: the R partition
// must be complete for (L, max(S.Aj)] and the S partition for
// [min(R.Ai), U); an empty join is attested by a pivot v with verified
// proofs that S has no key above v and R none at or below v. Returns the
// joined pairs.
func VerifyBandJoin(r, s *verify.Verifier, q BandJoinQuery, role accessctl.Role, res *BandJoinResult) ([]JoinedRow, error) {
	if res.Empty {
		return nil, verifyEmptyBand(r, s, q, role, res)
	}
	if res.R == nil || res.S == nil {
		return nil, fmt.Errorf("%w: missing partition", ErrBandShape)
	}
	// The partitions' stated ranges.
	rLo, rHi := res.R.Effective.KeyLo, res.R.Effective.KeyHi
	sLo, sHi := res.S.Effective.KeyLo, res.S.Effective.KeyHi
	if rLo != r.Params.L+1 || sHi != s.Params.U-1 {
		return nil, fmt.Errorf("%w: partitions do not span the domain ends", ErrBandShape)
	}
	rRows, err := r.VerifyResult(engine.Query{
		Relation: q.R, KeyLo: rLo, KeyHi: rHi, Project: q.RProject,
	}, role, res.R)
	if err != nil {
		return nil, fmt.Errorf("band R partition: %w", err)
	}
	sRows, err := s.VerifyResult(engine.Query{
		Relation: q.S, KeyLo: sLo, KeyHi: sHi, Project: q.SProject,
	}, role, res.S)
	if err != nil {
		return nil, fmt.Errorf("band S partition: %w", err)
	}
	if len(rRows) == 0 || len(sRows) == 0 {
		return nil, fmt.Errorf("%w: empty partition in a non-empty join", ErrBandShape)
	}
	// Cross-consistency: the R partition's upper bound must equal the
	// verified max(S), and the S partition's lower bound the verified
	// min(R) — the two bullets of Section 4.3.
	maxS := sRows[len(sRows)-1].Key
	minR := rRows[0].Key
	if rHi != maxS {
		return nil, fmt.Errorf("%w: R bound %d != max(S) %d", ErrBandShape, rHi, maxS)
	}
	if sLo != minR {
		return nil, fmt.Errorf("%w: S bound %d != min(R) %d", ErrBandShape, sLo, minR)
	}
	var out []JoinedRow
	// sRows is sorted; for each r, pair with all s >= r.key.
	for _, rr := range rRows {
		i := sort.Search(len(sRows), func(i int) bool { return sRows[i].Key >= rr.Key })
		for ; i < len(sRows); i++ {
			out = append(out, JoinedRow{RRow: rr, SRow: sRows[i]})
		}
	}
	return out, nil
}

// verifyEmptyBand checks the pivot separation proofs.
func verifyEmptyBand(r, s *verify.Verifier, q BandJoinQuery, role accessctl.Role, res *BandJoinResult) error {
	v := res.Pivot
	// S ∩ [v+1, U-1] must be proven empty (unless vacuous: v+1 > U-1).
	if v+1 <= s.Params.U-1 {
		if res.SEmpty == nil {
			return fmt.Errorf("%w: missing S emptiness proof", ErrBandShape)
		}
		rows, err := s.VerifyResult(engine.Query{Relation: q.S, KeyLo: v + 1}, role, res.SEmpty)
		if err != nil {
			return fmt.Errorf("band S emptiness: %w", err)
		}
		if len(rows) != 0 {
			return fmt.Errorf("%w: S has keys above pivot %d", ErrBandShape, v)
		}
	}
	// R ∩ [L+1, v] must be proven empty (unless vacuous: v < L+1).
	if v >= r.Params.L+1 {
		if res.REmpty == nil {
			return fmt.Errorf("%w: missing R emptiness proof", ErrBandShape)
		}
		rows, err := r.VerifyResult(engine.Query{Relation: q.R, KeyLo: r.Params.L + 1, KeyHi: v}, role, res.REmpty)
		if err != nil {
			return fmt.Errorf("band R emptiness: %w", err)
		}
		if len(rows) != 0 {
			return fmt.Errorf("%w: R has keys at or below pivot %d", ErrBandShape, v)
		}
	}
	return nil
}

// relations resolves both sides of a join once, from one registry read
// each.
func relations(p *engine.Publisher, r, s string) (*core.SignedRelation, *core.SignedRelation, error) {
	rRel, ok := p.Relation(r)
	if !ok {
		return nil, nil, fmt.Errorf("R side: %w: %q", engine.ErrUnknownRelation, r)
	}
	sRel, ok := p.Relation(s)
	if !ok {
		return nil, nil, fmt.Errorf("S side: %w: %q", engine.ErrUnknownRelation, s)
	}
	return rRel, sRel, nil
}

// executeOn runs q against one pinned relation snapshot and materializes
// the answer: the K = 1 stream /stream serves for it, drained.
func executeOn(p *engine.Publisher, sr *core.SignedRelation, roleName string, q engine.Query) (*engine.Result, error) {
	st, err := p.ExecuteStreamOn(sr, roleName, q, engine.StreamOpts{})
	if err != nil {
		return nil, err
	}
	return engine.Collect(st)
}

// minKey returns the smallest data key of a signed relation.
func minKey(sr *core.SignedRelation) (uint64, bool) {
	if sr.Len() == 0 {
		return 0, false
	}
	return sr.Recs[1].Key(), true
}

// maxKey returns the largest data key of a signed relation.
func maxKey(sr *core.SignedRelation) (uint64, bool) {
	if sr.Len() == 0 {
		return 0, false
	}
	return sr.Recs[len(sr.Recs)-2].Key(), true
}
