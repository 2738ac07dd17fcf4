// Package verify is the user side of the data-publishing model (Figure
// 3): given the owner's public key and domain parameters (obtained over an
// authenticated channel) it checks a publisher's result against its
// verification object and either returns the verified rows or an error
// naming what failed.
//
// The checks implement the completeness analysis of Section 3.2 plus the
// precision requirement of Section 3: every covered record reconstructs a
// g digest, the signature chain binds consecutive digests, the boundary
// proofs place the adjacent records strictly outside the rewritten range,
// and nothing beyond the query's projection is accepted as disclosed.
package verify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// Verification failures. All of them mean "reject the result".
var (
	ErrRewriteMismatch  = errors.New("verify: effective query does not match the expected rewrite")
	ErrBoundary         = errors.New("verify: boundary proof invalid")
	ErrEntry            = errors.New("verify: entry malformed")
	ErrKeyOutOfRange    = errors.New("verify: entry key outside effective range")
	ErrKeyOrder         = errors.New("verify: entry keys out of order")
	ErrFilterViolation  = errors.New("verify: result entry fails the query filters")
	ErrFilteredMatches  = errors.New("verify: filtered entry actually satisfies the query")
	ErrPrecision        = errors.New("verify: disclosure does not match the projection")
	ErrHiddenNotAllowed = errors.New("verify: hidden entry without a record-level policy")
	ErrVisibility       = errors.New("verify: visibility disclosure invalid")
	ErrSignature        = errors.New("verify: signature check failed")
)

// Verifier holds the user's trusted inputs: the owner's public key, the
// domain parameters, and the relation schema.
type Verifier struct {
	H      *hashx.Hasher
	Pub    *sig.PublicKey
	Params core.Params
	Schema relation.Schema

	// Obs, when set, receives the verifier-side cost (obs.StageVerify,
	// one observation per consumed chunk) — the live measurement of the
	// paper's client overhead claim. It never affects what is accepted.
	Obs *obs.Registry
}

// New constructs a verifier.
func New(h *hashx.Hasher, pub *sig.PublicKey, p core.Params, schema relation.Schema) *Verifier {
	return &Verifier{H: h, Pub: pub, Params: p, Schema: schema}
}

// VerifyResult checks a publisher result against the query the user
// issued and the user's knowledge of their own rights (role). On success
// it returns the verified result rows in key order.
//
// It is a thin drain over the incremental StreamVerifier: the result is
// sliced back into its chunk sequence and consumed in order, so the
// materialized and streaming verification paths enforce exactly the same
// checks. A nil result is a stream that never started, refused as
// ErrStreamTruncated.
func (v *Verifier) VerifyResult(q engine.Query, role accessctl.Role, res *engine.Result) ([]engine.Row, error) {
	if res == nil {
		return nil, fmt.Errorf("%w: no result", ErrStreamTruncated)
	}
	sv := v.NewStreamVerifier(q, role)
	sv.stable = true
	rows := make([]engine.Row, 0, len(res.VO.Entries))
	for _, c := range engine.ChunkResult(res, engine.DefaultChunkRows) {
		released, err := sv.Consume(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, released...)
	}
	if err := sv.Finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkRewrite recomputes the rewrite the publisher should have performed
// and compares. A publisher that silently narrows (hiding records) or
// widens (leaking records) the range is caught here; a lying *rewrite*
// combined with a consistent VO would still verify structurally, which is
// why the user must know their own rights — exactly the paper's trust
// model, where rewriting is mandated by the owner's policy.
func (v *Verifier) checkRewrite(q engine.Query, role accessctl.Role, eff engine.Query) error {
	want, err := engine.EffectiveQuery(v.Params, v.Schema, role, q)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRewriteMismatch, err)
	}
	if eff.KeyLo != want.KeyLo || eff.KeyHi != want.KeyHi {
		return fmt.Errorf("%w: expected [%d,%d], got [%d,%d]", ErrRewriteMismatch, want.KeyLo, want.KeyHi, eff.KeyLo, eff.KeyHi)
	}
	if (want.Project == nil) != (eff.Project == nil) || !slices.Equal(want.Project, eff.Project) {
		return fmt.Errorf("%w: projection", ErrRewriteMismatch)
	}
	// The filters must be the user's own, not merely as many: the
	// per-entry checks evaluate the effective ones.
	if eff.Distinct != q.Distinct || !slices.EqualFunc(eff.Filters, q.Filters, func(a, b engine.Filter) bool {
		return a.Col == b.Col && a.Op == b.Op && a.Val.Equal(b.Val)
	}) {
		return fmt.Errorf("%w: flags or filters", ErrRewriteMismatch)
	}
	return nil
}

// plan is the per-stream disclosure layout, resolved against the schema
// once at the header so the per-entry checks index fixed slices.
type plan struct {
	projected []bool // by column: part of the effective projection
	nProj     int    // distinct projected columns
	projErr   error  // a projected column the schema lacks; every result entry reports it
	filterCol []int  // schema column of eff.Filters[i]; -1 when the schema lacks it
	visCol    int    // the role's visibility column; -1 when there is none
}

func (v *Verifier) newPlan(eff engine.Query, role accessctl.Role) plan {
	pl := plan{projected: make([]bool, len(v.Schema.Cols)), visCol: -1}
	for i := range pl.projected {
		pl.projected[i] = eff.Project == nil
	}
	for _, name := range eff.Project {
		i := v.Schema.ColIndex(name)
		if i < 0 {
			pl.projErr = fmt.Errorf("%w: unknown projected column %q", ErrEntry, name)
			break
		}
		pl.projected[i] = true
	}
	for _, in := range pl.projected {
		if in {
			pl.nProj++
		}
	}
	for _, f := range eff.Filters {
		pl.filterCol = append(pl.filterCol, v.Schema.ColIndex(f.Col))
	}
	if role.VisibilityCol != "" {
		pl.visCol = v.Schema.ColIndex(role.VisibilityCol)
	}
	return pl
}

// entryG reconstructs g for one VO entry and performs the per-entry
// semantic checks. Every mode takes the same path: the attribute root
// from the disclosure — the key slot opened from the entry's key when the
// mode discloses it — folded with the entry's opaque chain digest C
// (record format 1: the key leaf, not the formula-(3) chains, binds a
// disclosed key; format 2: one digest C = h(up | down) stands for both
// chains). The attribute root stays on the stack and g lands in the
// entry's slot of the verifier's ring (gs).
func (sv *StreamVerifier) entryG(e *engine.VOEntry) (hashx.Digest, error) {
	v := sv.v
	switch e.Mode {
	case engine.EntryResult:
		if err := sv.openDisclosure(e, true); err != nil {
			return nil, err
		}
		if err := sv.checkResultDisclosure(e); err != nil {
			return nil, err
		}
		if !sv.passesDisclosed(e) {
			return nil, ErrFilterViolation
		}
		if sv.plan.visCol >= 0 {
			// The rewrite projects the visibility column (EffectiveQuery).
			if vis, _ := disclosedVal(e, sv.plan.visCol); vis.Type == relation.TypeBool && !vis.Bool {
				return nil, ErrVisibility
			}
		}

	case engine.EntryFilteredVisible:
		if err := sv.openDisclosure(e, true); err != nil {
			return nil, err
		}
		if err := sv.checkFilteredDisclosure(e); err != nil {
			return nil, err
		}

	case engine.EntryFilteredHidden:
		if sv.plan.visCol < 0 {
			return nil, ErrHiddenNotAllowed
		}
		if len(e.Disclosed) != 1 || e.Disclosed[0].Col != sv.plan.visCol ||
			!e.Disclosed[0].Val.Equal(relation.BoolVal(false)) {
			return nil, ErrVisibility
		}
		if e.Key != 0 {
			// The key stays hidden; its leaf travels as a digest.
			return nil, fmt.Errorf("%w: key on a hidden entry", ErrEntry)
		}
		if err := sv.openDisclosure(e, false); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("%w: unknown mode %d", ErrEntry, e.Mode)
	}
	var rb [hashx.MaxSize]byte
	attrRoot, err := core.AppendAttrRoot(&sv.b, rb[:0], sv.open, e.HiddenLeaves)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEntry, err)
	}
	if len(e.Combined) != v.H.Size() {
		return nil, fmt.Errorf("%w: chain digest", ErrEntry)
	}
	return core.AppendG(&sv.b, sv.gs[sv.entryIdx%3][:0], core.KindRecord, e.Combined, attrRoot), nil
}

// openDisclosure encodes an entry's disclosed attributes into the
// by-leaf pre-image slots used for attribute-root reconstruction (leaf 0
// is the row id, never opened), rejecting out-of-range columns and any
// order but strictly ascending — the released row's values are the
// disclosure as sent, so its layout must be the one the query fixes —
// and opens the last slot, the key leaf, from the entry's key when
// openKey. The slots and the encoding buffer are the stream's own and
// are overwritten by the next entry.
func (sv *StreamVerifier) openDisclosure(e *engine.VOEntry, openKey bool) error {
	clear(sv.open)
	sv.enc = sv.enc[:0]
	for i := range e.Disclosed {
		d := &e.Disclosed[i]
		if d.Col < 0 || d.Col >= len(sv.v.Schema.Cols) {
			return fmt.Errorf("%w: disclosed column %d out of schema", ErrEntry, d.Col)
		}
		if i > 0 && d.Col <= e.Disclosed[i-1].Col {
			return fmt.Errorf("%w: disclosed column %d out of order or twice", ErrEntry, d.Col)
		}
		at := len(sv.enc)
		sv.enc = d.Val.AppendEncode(sv.enc)
		sv.open[d.Col+1] = sv.enc[at:len(sv.enc):len(sv.enc)]
	}
	if openKey {
		// core.KeyLeaf's pre-image: the key in hashx.U64's encoding.
		at := len(sv.enc)
		sv.enc = binary.BigEndian.AppendUint64(sv.enc, e.Key)
		sv.open[len(sv.open)-1] = sv.enc[at:]
	}
	return nil
}

// checkResultDisclosure enforces precision: a result entry must disclose
// exactly the projected columns — no more (information leak) and no less
// (unusable result).
func (sv *StreamVerifier) checkResultDisclosure(e *engine.VOEntry) error {
	if sv.plan.projErr != nil {
		return sv.plan.projErr
	}
	if len(e.Disclosed) != sv.plan.nProj {
		return fmt.Errorf("%w: %d disclosed, %d projected", ErrPrecision, len(e.Disclosed), sv.plan.nProj)
	}
	for _, d := range e.Disclosed {
		if !sv.plan.projected[d.Col] {
			return fmt.Errorf("%w: column %d not projected", ErrPrecision, d.Col)
		}
	}
	return nil
}

// checkFilteredDisclosure validates a Case 1 entry: every filter column
// must be disclosed, and the disclosed values must fail at least one
// filter — otherwise the publisher is withholding a qualifying tuple.
func (sv *StreamVerifier) checkFilteredDisclosure(e *engine.VOEntry) error {
	if len(sv.eff.Filters) == 0 {
		return fmt.Errorf("%w: filtered entry in an unfiltered query", ErrFilteredMatches)
	}
	for i, f := range sv.eff.Filters {
		if _, ok := disclosedVal(e, sv.plan.filterCol[i]); !ok {
			return fmt.Errorf("%w: filter column %q not disclosed", ErrEntry, f.Col)
		}
	}
	if sv.passesDisclosed(e) {
		return ErrFilteredMatches
	}
	return nil
}

// passesDisclosed evaluates the query filters over disclosed values;
// missing columns count as failing (conservative: the result entry must
// disclose every filter column via the projection check or the values
// would be unusable anyway).
func (sv *StreamVerifier) passesDisclosed(e *engine.VOEntry) bool {
	for i, f := range sv.eff.Filters {
		val, ok := disclosedVal(e, sv.plan.filterCol[i])
		if !ok || !f.Eval(val) {
			return false
		}
	}
	return true
}

// disclosedVal returns the value an entry discloses for a column.
func disclosedVal(e *engine.VOEntry, col int) (relation.Value, bool) {
	for i := range e.Disclosed {
		if e.Disclosed[i].Col == col {
			return e.Disclosed[i].Val, true
		}
	}
	return relation.Value{}, false
}
