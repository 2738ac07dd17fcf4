// Package adversary is the compromised publisher of Section 3.2: it holds
// exactly what an honest engine.Publisher holds and mounts each attack of
// the paper's analysis on an honest result, so the tests, the E8
// experiment and examples/{quickstart,tamper} can show the unmodified
// verifier rejecting every one. It serves no request: it reaches the
// engine through its exported API and one hook, Publisher.Plan.
package adversary

import (
	"fmt"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
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
	p  *engine.Publisher
	h  *hashx.Hasher
	pk *sig.PublicKey
}

// New wraps a publisher, with the hasher and the owner's public key it
// was built with.
func New(p *engine.Publisher, h *hashx.Hasher, pk *sig.PublicKey) *Adversary {
	return &Adversary{p: p, h: h, pk: pk}
}

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
func (a *Adversary) Execute(roleName string, q engine.Query, attack string) (*engine.Result, error) {
	sr, ok := a.p.Relation(q.Relation)
	if !ok {
		return nil, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, q.Relation)
	}
	role, eff, err := a.p.Plan(sr, roleName, q)
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
			return nil, fmt.Errorf("adversary: attack %s needs a non-empty result", attack)
		}
		inner := eff
		inner.KeyLo = sr.Recs[ia].Key() + 1
		if inner.KeyLo > inner.KeyHi {
			return nil, fmt.Errorf("adversary: attack %s cannot narrow", attack)
		}
		res, err := a.execute(sr, role, inner)
		if err != nil {
			return nil, err
		}
		res.Effective.KeyLo = eff.KeyLo
		res.VO.KeyLo = eff.KeyLo
		return res, nil

	case AttackOmitLast:
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		if ib-ia < 1 {
			return nil, fmt.Errorf("adversary: attack %s needs a non-empty result", attack)
		}
		inner := eff
		inner.KeyHi = sr.Recs[ib-1].Key() - 1
		if inner.KeyHi < inner.KeyLo {
			return nil, fmt.Errorf("adversary: attack %s cannot narrow", attack)
		}
		res, err := a.execute(sr, role, inner)
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
			return nil, fmt.Errorf("adversary: attack %s needs a non-empty result", attack)
		}
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		vo := &res.VO
		vo.Entries = nil
		left, err := sr.ProveBoundary(a.h, ia-1, core.Up, eff.KeyLo)
		if err != nil {
			return nil, err
		}
		right, err := sr.ProveBoundary(a.h, ib, core.Down, eff.KeyHi)
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
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if len(res.VO.Entries) < 3 {
			return nil, fmt.Errorf("adversary: attack %s needs >= 3 entries", attack)
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
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if len(res.VO.Entries) == 0 {
			return nil, fmt.Errorf("adversary: attack %s needs a non-empty result", attack)
		}
		forged := res.VO.Entries[0]
		forged.Key = eff.KeyLo
		forged.Disclosed = append([]engine.DisclosedAttr(nil), forged.Disclosed...)
		for i := range forged.Disclosed {
			if forged.Disclosed[i].Val.Type == relation.TypeString {
				forged.Disclosed[i].Val = relation.StringVal("intruder")
			}
		}
		res.VO.Entries = append([]engine.VOEntry{forged}, res.VO.Entries...)
		ia, ib := sr.RangeIndices(eff.KeyLo, eff.KeyHi)
		sigs := []sig.Signature{sig.Signature(sr.Recs[ia].Sig)} // reuse a real sig
		for i := ia; i < ib; i++ {
			sigs = append(sigs, sig.Signature(sr.Recs[i].Sig))
		}
		return a.resign(res, sigs)

	case AttackTamperValue:
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		if !tamperFirstString(res, "TAMPERED") {
			return nil, fmt.Errorf("adversary: attack %s found no string value", attack)
		}
		return res, nil

	case AttackSwapValues:
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		var idx []int
		for i, e := range res.VO.Entries {
			if e.Mode == engine.EntryResult && len(e.Disclosed) > 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) < 2 {
			return nil, fmt.Errorf("adversary: attack %s needs two result entries", attack)
		}
		a1, a2 := idx[0], idx[1]
		e1 := append([]engine.DisclosedAttr(nil), res.VO.Entries[a1].Disclosed...)
		e2 := append([]engine.DisclosedAttr(nil), res.VO.Entries[a2].Disclosed...)
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
		return a.execute(sr, role, raw)

	case AttackHideAsFiltered:
		// Re-class a qualifying tuple as Case 1 filtered, fabricating a
		// failing value for the filter column. The fabricated value's
		// leaf digest cannot match the owner's attribute tree.
		if len(eff.Filters) == 0 {
			return nil, fmt.Errorf("adversary: attack %s needs a filtered query", attack)
		}
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		for i, e := range res.VO.Entries {
			if e.Mode != engine.EntryResult {
				continue
			}
			fcol := sr.Schema.ColIndex(eff.Filters[0].Col)
			rec, ok := findRecord(sr, e.Key)
			if !ok {
				continue
			}
			fake := rec.Tuple.Clone()
			fake.Attrs[fcol] = failingValue(eff.Filters[0])
			disclosed, hidden := a.disclose(fake, sr.Schema, eff.Filters)
			res.VO.Entries[i] = engine.VOEntry{
				Mode:         engine.EntryFilteredVisible,
				Key:          e.Key,
				Disclosed:    disclosed,
				HiddenLeaves: hidden,
				Combined:     e.Combined,
			}
			return res, nil
		}
		return nil, fmt.Errorf("adversary: attack %s found no result entry", attack)

	case AttackReplaySig:
		// Serve the right rows but attach the aggregate from a *different*
		// range (immutability threat of Section 5.2).
		res, err := a.execute(sr, role, eff)
		if err != nil {
			return nil, err
		}
		other := eff
		other.KeyLo = sr.Params.L + 1
		other.KeyHi = sr.Params.U - 1
		stale, err := a.execute(sr, role, other)
		if err != nil {
			return nil, err
		}
		res.VO.AggSig = stale.VO.AggSig
		return res, nil

	default:
		return nil, fmt.Errorf("adversary: unknown attack %q", attack)
	}
}

// execute runs an already-rewritten query honestly: the K = 1 fan-out
// over the slice covering its range, drained, as ExecuteStream serves it.
func (a *Adversary) execute(sr *core.SignedRelation, role accessctl.Role, eff engine.Query) (*engine.Result, error) {
	st, err := a.p.FanoutStream(role, eff, []engine.ShardSlice{{SR: sr, Lo: eff.KeyLo, Hi: eff.KeyHi}}, nil, engine.StreamOpts{})
	if err != nil {
		return nil, err
	}
	return engine.Collect(st)
}

// disclose lays out a Case 1 entry's attribute tree the way the
// publisher ships one: the filter columns opened as values, every other
// leaf but the key leaf hidden as its digest, in leaf order.
func (a *Adversary) disclose(t relation.Tuple, schema relation.Schema, filters []engine.Filter) ([]engine.DisclosedAttr, []hashx.Digest) {
	open := map[int]bool{}
	for _, f := range filters {
		open[schema.ColIndex(f.Col)] = true
	}
	var disclosed []engine.DisclosedAttr
	var hidden []hashx.Digest
	for i, leaf := range core.AttrLeaves(a.h, t) {
		if i > 0 && open[i-1] {
			disclosed = append(disclosed, engine.DisclosedAttr{Col: i - 1, Val: t.Attrs[i-1]})
		} else {
			hidden = append(hidden, leaf)
		}
	}
	return disclosed, hidden
}

// resign recomputes the condensed signature the way the cheating
// publisher would, from the real signatures it holds.
func (a *Adversary) resign(res *engine.Result, sigs []sig.Signature) (*engine.Result, error) {
	agg, err := a.pk.Aggregate(sigs)
	if err != nil {
		return nil, err
	}
	res.VO.AggSig = agg
	return res, nil
}

func tamperFirstString(res *engine.Result, repl string) bool {
	for i, e := range res.VO.Entries {
		if e.Mode != engine.EntryResult {
			continue
		}
		for j, d := range e.Disclosed {
			if d.Val.Type == relation.TypeString {
				vals := append([]engine.DisclosedAttr(nil), e.Disclosed...)
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
			return *rec, true
		}
	}
	return core.SignedRecord{}, false
}

// failingValue fabricates a value that fails the filter.
func failingValue(f engine.Filter) relation.Value {
	switch f.Val.Type {
	case relation.TypeInt:
		if f.Op == engine.OpEq || f.Op == engine.OpGe || f.Op == engine.OpGt {
			return relation.IntVal(f.Val.Int - 1000)
		}
		return relation.IntVal(f.Val.Int + 1000)
	case relation.TypeString:
		return relation.StringVal(f.Val.Str + "~fail")
	default:
		return relation.IntVal(-999999)
	}
}
