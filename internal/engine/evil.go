package engine

import (
	"fmt"

	"vcqr/internal/core"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// Adversary is a compromised publisher: it holds exactly the material an
// honest publisher holds (the signed relation, all record signatures) and
// mounts the strongest version of each attack from the Section 3.2
// analysis. Every attack re-derives whatever VO components *can* be
// re-derived — re-aggregating signatures, regenerating boundary proofs for
// shifted bounds — so the tests show the attacks fail because of the
// cryptography, not because of sloppy bookkeeping.
type Adversary struct {
	p *Publisher
}

// NewAdversary wraps a publisher.
func NewAdversary(p *Publisher) *Adversary { return &Adversary{p: p} }

// Attack names correspond to the cases of Section 3.2 plus the
// authenticity and access-control threats of Sections 4.1 and 1.
const (
	AttackOmitFirst      = "omit-first"       // Case 1: wrong origin
	AttackFakeEmpty      = "fake-empty"       // Case 2: empty result despite matches
	AttackOmitLast       = "omit-last"        // Case 3: wrong terminal
	AttackOmitMiddle     = "omit-middle"      // Case 4: gap in the result
	AttackSpurious       = "spurious"         // Case 5: injected record
	AttackTamperValue    = "tamper-value"     // Section 4.1: authenticity
	AttackSwapValues     = "swap-values"      // Section 1: value swap between records
	AttackWidenRewrite   = "widen-rewrite"    // Section 1: ignore access policy
	AttackHideAsFiltered = "hide-as-filtered" // Section 4.4: fake Case 1 filtering
	AttackReplaySig      = "replay-sig"       // substitute a stale aggregate
)

// Attacks lists every implemented attack.
func Attacks() []string {
	return []string{
		AttackOmitFirst, AttackFakeEmpty, AttackOmitLast, AttackOmitMiddle,
		AttackSpurious, AttackTamperValue, AttackSwapValues, AttackWidenRewrite,
		AttackHideAsFiltered, AttackReplaySig,
	}
}

// Execute runs the query honestly and then applies the named attack to
// the result. The returned result is what a cheating publisher would send.
func (a *Adversary) Execute(roleName string, q Query, attack string) (*Result, error) {
	sr, ok := a.p.Relation(q.Relation)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, q.Relation)
	}
	role, eff, err := a.p.plan(sr, roleName, q)
	if err != nil {
		return nil, err
	}

	switch attack {
	case AttackOmitFirst:
		// Serve the narrower range [k1+1, hi] — with a fresh, internally
		// consistent VO — but label it as the full range. The left
		// boundary proof is then for bound k1+1; extending it by
		// U-KeyLo instead lands on the wrong digest (Case 1: the
		// publisher cannot produce h^{KeyLo-pred-1}).
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		if ib-ia < 1 {
			return nil, fmt.Errorf("engine: attack %s needs a non-empty result", attack)
		}
		inner := eff
		inner.KeyLo = sr.Recs[ia].Key() + 1
		if inner.KeyLo > inner.KeyHi {
			return nil, fmt.Errorf("engine: attack %s cannot narrow", attack)
		}
		res, err := a.p.executeRewritten(sr, role, inner)
		if err != nil {
			return nil, err
		}
		res.Effective.KeyLo = eff.KeyLo
		res.VO.KeyLo = eff.KeyLo
		return res, nil

	case AttackOmitLast:
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		if ib-ia < 1 {
			return nil, fmt.Errorf("engine: attack %s needs a non-empty result", attack)
		}
		inner := eff
		inner.KeyHi = sr.Recs[ib-1].Key() - 1
		if inner.KeyHi < inner.KeyLo {
			return nil, fmt.Errorf("engine: attack %s cannot narrow", attack)
		}
		res, err := a.p.executeRewritten(sr, role, inner)
		if err != nil {
			return nil, err
		}
		res.Effective.KeyHi = eff.KeyHi
		res.VO.KeyHi = eff.KeyHi
		return res, nil

	case AttackFakeEmpty:
		// Claim the range is empty: use the true predecessor and the true
		// successor as the "adjacent" pair. Their boundary proofs are
		// individually valid, but sig(pred) binds pred's *real* right
		// neighbour — the first omitted record — not the successor.
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		if ib == ia {
			return nil, fmt.Errorf("engine: attack %s needs a non-empty result", attack)
		}
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		vo := &res.VO
		vo.Entries = nil
		left, err := sr.ProveBoundary(a.p.h, ia-1, core.Up, eff.KeyLo)
		if err != nil {
			return nil, err
		}
		right, err := sr.ProveBoundary(a.p.h, ib, core.Down, eff.KeyHi)
		if err != nil {
			return nil, err
		}
		vo.Left, vo.Right = left, right
		if ia-1 > 0 {
			vo.PredPrevG = sr.Recs[ia-2].G.Clone()
		} else {
			vo.PredPrevG = nil
		}
		sigs := []sig.Signature{sig.Signature(sr.Recs[ia-1].Sig)}
		return a.resign(res, sigs)

	case AttackOmitMiddle:
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if len(res.VO.Entries) < 3 {
			return nil, fmt.Errorf("engine: attack %s needs >= 3 entries", attack)
		}
		ia, _ := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		mid := len(res.VO.Entries) / 2
		res.VO.Entries = append(res.VO.Entries[:mid], res.VO.Entries[mid+1:]...)
		var sigs []sig.Signature
		for i := range res.VO.Entries {
			off := i
			if i >= mid {
				off = i + 1
			}
			sigs = append(sigs, sig.Signature(sr.Recs[ia+off].Sig))
		}
		return a.resign(res, sigs)

	case AttackSpurious:
		// Inject a record that was never signed, with self-consistent
		// digest material derived from a forged relation (Case 5: the
		// adversary can compute digests but not the owner's signature).
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if len(res.VO.Entries) == 0 {
			return nil, fmt.Errorf("engine: attack %s needs a non-empty result", attack)
		}
		forged := res.VO.Entries[0]
		forged.Key = eff.KeyLo
		forged.Disclosed = append([]DisclosedAttr(nil), forged.Disclosed...)
		for i := range forged.Disclosed {
			if forged.Disclosed[i].Val.Type == relation.TypeString {
				forged.Disclosed[i].Val = relation.StringVal("intruder")
			}
		}
		res.VO.Entries = append([]VOEntry{forged}, res.VO.Entries...)
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		sigs := []sig.Signature{sig.Signature(sr.Recs[ia].Sig)} // reuse a real sig
		for i := ia; i < ib; i++ {
			sigs = append(sigs, sig.Signature(sr.Recs[i].Sig))
		}
		return a.resign(res, sigs)

	case AttackTamperValue:
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if !tamperFirstString(res, "TAMPERED") {
			return nil, fmt.Errorf("engine: attack %s found no string value", attack)
		}
		return res, nil

	case AttackSwapValues:
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		var idx []int
		for i, e := range res.VO.Entries {
			if e.Mode == EntryResult && len(e.Disclosed) > 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) < 2 {
			return nil, fmt.Errorf("engine: attack %s needs two result entries", attack)
		}
		a1, a2 := idx[0], idx[1]
		e1 := append([]DisclosedAttr(nil), res.VO.Entries[a1].Disclosed...)
		e2 := append([]DisclosedAttr(nil), res.VO.Entries[a2].Disclosed...)
		res.VO.Entries[a1].Disclosed, res.VO.Entries[a2].Disclosed = e2, e1
		return res, nil

	case AttackWidenRewrite:
		// Ignore the row policy: serve the user's raw range. The VO is
		// fully consistent — this attack is caught by the user's own
		// policy knowledge (checkRewrite), not by cryptography, matching
		// the paper's trust model.
		raw := q
		if raw.KeyLo <= sr.Params.L {
			raw.KeyLo = sr.Params.L + 1
		}
		if raw.KeyHi == 0 || raw.KeyHi >= sr.Params.U {
			raw.KeyHi = sr.Params.U - 1
		}
		raw.Project = role.FilterCols(sr.Schema, q.Project)
		return a.p.executeRewritten(sr, role, raw)

	case AttackHideAsFiltered:
		// Re-class a qualifying tuple as Case 1 filtered, fabricating a
		// failing value for the filter column. The fabricated value's
		// leaf digest cannot match the owner's attribute tree.
		if len(eff.Filters) == 0 {
			return nil, fmt.Errorf("engine: attack %s needs a filtered query", attack)
		}
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		for i, e := range res.VO.Entries {
			if e.Mode != EntryResult {
				continue
			}
			fcol := sr.Schema.ColIndex(eff.Filters[0].Col)
			rec, ok := findRecord(sr, e.Key)
			if !ok {
				continue
			}
			cols := filterCols(sr.Schema, eff.Filters)
			fake := rec.Tuple.Clone()
			fake.Attrs[fcol] = failingValue(eff.Filters[0])
			var arena entryArena
			b := a.p.h.Batch()
			disclosed, hidden := arena.disclose(&b, fake, cols, false)
			b.Done()
			res.VO.Entries[i] = VOEntry{
				Mode:         EntryFilteredVisible,
				Key:          e.Key,
				Disclosed:    disclosed,
				HiddenLeaves: hidden,
				UpCombined:   e.UpCombined,
				DownCombined: e.DownCombined,
			}
			return res, nil
		}
		return nil, fmt.Errorf("engine: attack %s found no result entry", attack)

	case AttackReplaySig:
		// Serve the right rows but attach the aggregate from a *different*
		// range (immutability threat of Section 5.2).
		res, err := a.p.executeRewritten(sr, role, eff)
		if err != nil {
			return nil, err
		}
		other := eff
		other.KeyLo = sr.Params.L + 1
		other.KeyHi = sr.Params.U - 1
		stale, err := a.p.executeRewritten(sr, role, other)
		if err != nil {
			return nil, err
		}
		res.VO.AggSig = stale.VO.AggSig
		return res, nil

	default:
		return nil, fmt.Errorf("engine: unknown attack %q", attack)
	}
}

// resign recomputes the condensed signature the way the cheating
// publisher would, from the real signatures it holds.
func (a *Adversary) resign(res *Result, sigs []sig.Signature) (*Result, error) {
	agg, err := a.p.pub.Aggregate(sigs)
	if err != nil {
		return nil, err
	}
	res.VO.AggSig = agg
	return res, nil
}

func tamperFirstString(res *Result, repl string) bool {
	for i, e := range res.VO.Entries {
		if e.Mode != EntryResult {
			continue
		}
		for j, d := range e.Disclosed {
			if d.Val.Type == relation.TypeString {
				vals := append([]DisclosedAttr(nil), e.Disclosed...)
				vals[j].Val = relation.StringVal(repl)
				res.VO.Entries[i].Disclosed = vals
				return true
			}
		}
	}
	return false
}

func findRecord(sr *core.SignedRelation, key uint64) (core.SignedRecord, bool) {
	for _, rec := range sr.Recs {
		if rec.Kind == core.KindRecord && rec.Key() == key {
			return rec, true
		}
	}
	return core.SignedRecord{}, false
}

// failingValue fabricates a value that fails the filter.
func failingValue(f Filter) relation.Value {
	switch f.Val.Type {
	case relation.TypeInt:
		if f.Op == OpEq || f.Op == OpGe || f.Op == OpGt {
			return relation.IntVal(f.Val.Int - 1000)
		}
		return relation.IntVal(f.Val.Int + 1000)
	case relation.TypeString:
		return relation.StringVal(f.Val.Str + "~fail")
	default:
		return relation.IntVal(-999999)
	}
}
