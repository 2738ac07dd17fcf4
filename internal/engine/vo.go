package engine

import (
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// EntryMode classifies the entries of a range VO. Every record of the
// signed relation whose key falls in the effective range appears exactly
// once, in key order, in one of these modes — the contiguity that the
// signature chain then certifies.
type EntryMode byte

// Entry modes.
const (
	// EntryResult is a qualifying tuple: key plus projected values.
	EntryResult EntryMode = iota
	// EntryFilteredVisible is Section 4.4 Case 1: a tuple inside the key
	// range that fails a non-key filter; the user may see it, so the
	// failing attribute values are disclosed and the rest digested.
	EntryFilteredVisible
	// EntryFilteredHidden is Section 4.4 Case 2: a tuple the access
	// policy hides. Only the visibility-column leaf is opened; the key
	// travels as its leaf digest.
	EntryFilteredHidden
)

// String implements fmt.Stringer.
func (m EntryMode) String() string {
	switch m {
	case EntryResult:
		return "result"
	case EntryFilteredVisible:
		return "filtered-visible"
	case EntryFilteredHidden:
		return "filtered-hidden"
	}
	return "?"
}

// DisclosedAttr is one opened attribute value: the column index into the
// schema's non-key columns and the value.
type DisclosedAttr struct {
	Col int
	Val relation.Value
}

// VOEntry is one covered record of the effective key range.
type VOEntry struct {
	Mode EntryMode

	// Key is meaningful for EntryResult and EntryFilteredVisible.
	Key uint64
	// Disclosed holds opened attribute values (projection for results,
	// failing filter columns for Case 1, the visibility column for Case
	// 2), sorted by Col.
	Disclosed []DisclosedAttr
	// HiddenLeaves carries digests of the undisclosed leaves of
	// MHT(r.A), in ascending leaf-index order (leaf 0 is the row id). The
	// key leaf, last, is among them only for EntryFilteredHidden: for the
	// other modes the user opens it from Key.
	HiddenLeaves []hashx.Digest
	// Combined is the record's opaque chain digest C, which folds its two
	// combined chain digests (record format 2).
	Combined hashx.Digest
}

// entryArena holds a run of entries' lists and bytes in three arrays: the
// disclosed attributes, the hidden-leaf digest headers, and the bytes of
// every digest. Each list is cut with a full slice expression, so an
// append that outgrows an array moves only the entries that follow; the
// ones cut before keep the old array. The publisher's disclosed values share the record's
// immutable bytes, as its shipped signatures do.
type entryArena struct {
	attrs  []DisclosedAttr
	leaves []hashx.Digest
	bytes  []byte
}

// reset empties the arena for the next chunk, keeping its arrays: the
// entries cut from it before are overwritten.
func (a *entryArena) reset() {
	a.attrs, a.leaves, a.bytes = a.attrs[:0], a.leaves[:0], a.bytes[:0]
}

// reserve makes room for attrs more disclosed attributes, leaves more
// hidden-leaf headers and bytes more bytes: an array short of its room
// is replaced by a new one of exactly that room — the lists cut before
// keep the old one — so a chunk costs one allocation per array, and a
// recycled arena that already has the room none.
func (a *entryArena) reserve(attrs, leaves, bytes int) {
	if cap(a.attrs)-len(a.attrs) < attrs {
		a.attrs = make([]DisclosedAttr, 0, attrs)
	}
	if cap(a.leaves)-len(a.leaves) < leaves {
		a.leaves = make([]hashx.Digest, 0, leaves)
	}
	if cap(a.bytes)-len(a.bytes) < bytes {
		a.bytes = make([]byte, 0, bytes)
	}
}

// copy copies b into the arena.
func (a *entryArena) copy(b []byte) []byte {
	at := len(a.bytes)
	a.bytes = append(a.bytes, b...)
	return a.cut(at)
}

// cut returns the digest bytes appended since at.
func (a *entryArena) cut(at int) hashx.Digest {
	return a.bytes[at:len(a.bytes):len(a.bytes)]
}

// disclose splits a tuple's attribute-tree leaves other than the key leaf
// into opened values (the given column indexes, sorted) and hidden
// digests (everything else, including the row-id leaf 0), then the key
// leaf itself when hideKey. Only the hidden leaves are hashed — an opened
// one travels as its value, and the user hashes it — so a full projection
// costs the row-id leaf alone. cols is walked in step with the leaves
// instead of through a set: this runs once per covered record per query.
func (a *entryArena) disclose(b *hashx.Batch, t relation.Tuple, cols []int, hideKey bool) ([]DisclosedAttr, []hashx.Digest) {
	at, lat := len(a.attrs), len(a.leaves)
	var enc [64]byte
	ci := 0
	for i := 0; i <= len(t.Attrs); i++ {
		if ci < len(cols) && cols[ci]+1 == i {
			c := cols[ci]
			a.attrs = append(a.attrs, DisclosedAttr{Col: c, Val: t.Attrs[c]})
			for ci++; ci < len(cols) && cols[ci] == c; ci++ {
				// skip duplicate column requests
			}
			continue
		}
		d := len(a.bytes)
		a.bytes = b.Leaf(a.bytes, core.AppendAttrLeaf(enc[:0], t, i))
		a.leaves = append(a.leaves, a.cut(d))
	}
	if hideKey {
		d := len(a.bytes)
		a.bytes = core.AppendKeyLeaf(b, a.bytes, t.Key)
		a.leaves = append(a.leaves, a.cut(d))
	}
	return a.attrs[at:len(a.attrs):len(a.attrs)], a.leaves[lat:len(a.leaves):len(a.leaves)]
}

// RangeVO is the verification object for a (possibly multipoint) range
// query: boundary proofs at both ends, one entry per covered record, and
// the condensed signature binding them together.
type RangeVO struct {
	// KeyLo, KeyHi is the effective (post-rewrite) inclusive range the
	// boundary proofs are relative to.
	KeyLo, KeyHi uint64
	// Left proves the record preceding the range has key < KeyLo; Right
	// proves the record following it has key > KeyHi.
	Left, Right core.BoundaryProof
	// Entries covers every record in the range, in key order.
	Entries []VOEntry
	// AggSig is the condensed signature over the covered entries'
	// signatures (Section 5.2), or over the single predecessor signature
	// when the range is empty.
	AggSig sig.Signature
	// PredPrevG is g of the entry preceding the predecessor, needed to
	// check sig(pred) when the range is empty. Nil means the predecessor
	// is the left delimiter and the verifier substitutes the virtual end
	// digest.
	PredPrevG hashx.Digest
}

// Result is what the publisher returns: the relation name, the effective
// query after access-control rewriting, and the VO (which carries the
// result values themselves inside its EntryResult entries).
type Result struct {
	Relation string
	// Effective is the rewritten query actually executed.
	Effective Query
	VO        RangeVO
}

// Row is one verified result row: the key and the projected values.
type Row struct {
	Key    uint64
	Values []DisclosedAttr
}

// Rows extracts the claimed result rows (EntryResult entries) without
// verification; callers that need trust must go through verify.Verifier.
func (r *Result) Rows() []Row {
	var rows []Row
	for _, e := range r.VO.Entries {
		if e.Mode == EntryResult {
			rows = append(rows, Row{Key: e.Key, Values: e.Disclosed})
		}
	}
	return rows
}

// --- Traffic accounting (Figure 9 / formula (4)) ---

// SizeAccounting reports the byte size of a VO's authentication
// information: digest bytes plus signature bytes. Disclosed values are
// result payload, not overhead, and are excluded — matching the paper's
// Muser, which counts digests and the aggregated signature only.
type SizeAccounting struct {
	Digests    int // number of digests shipped
	Signatures int // number of signatures shipped
	DigestSize int // Mdigest in bytes
	SigSize    int // Msign in bytes
}

// Bytes returns the total authentication traffic.
func (s SizeAccounting) Bytes() int {
	return s.Digests*s.DigestSize + s.Signatures*s.SigSize
}

// Account tallies the digests and signatures in the VO.
func (vo *RangeVO) Account(digestSize, sigSize int) SizeAccounting {
	acc := SizeAccounting{DigestSize: digestSize, SigSize: sigSize}
	acc.Digests += vo.Left.Size() + vo.Right.Size()
	for _, e := range vo.Entries {
		// The opaque chain digest C, plus the hidden leaves — a Case 2
		// entry's key leaf among them.
		acc.Digests += 1 + len(e.HiddenLeaves)
	}
	if vo.PredPrevG != nil {
		acc.Digests++
	}
	if vo.AggSig != nil {
		acc.Signatures++
	}
	return acc
}
