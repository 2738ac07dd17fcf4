package core

import (
	"encoding/binary"
	"fmt"

	"vcqr/internal/hashx"
	"vcqr/internal/mht"
	"vcqr/internal/relation"
)

// Kind tags the three classes of entries in a signed relation. Delimiters
// are "certified as such by the owner" (Section 3.1): the kind byte enters
// g(r), so a publisher cannot pass a real record off as a delimiter or
// vice versa.
type Kind byte

// Entry kinds.
const (
	KindRecord     Kind = 1
	KindDelimLeft  Kind = 2
	KindDelimRight Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRecord:
		return "record"
	case KindDelimLeft:
		return "delim-left"
	case KindDelimRight:
		return "delim-right"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Marker digests for chain directions that do not exist on delimiters
// (the left delimiter has no down chain, the right no up chain) and for
// delimiter attribute trees. They are public constants of the scheme.
func markerNoChain(h *hashx.Hasher) hashx.Digest { return h.Hash([]byte("core/no-chain")) }
func markerDelimAttr(h *hashx.Hasher) hashx.Digest {
	return h.Hash([]byte("core/delim-attr"))
}

// endTag opens the virtual end digest hashed for the neighbour beyond a
// delimiter (signedNeighbour).
var endTag = []byte("core/end")

// AttrLeaves returns leaves 0..n of the per-record attribute tree
// MHT(r.A): leaf 0 is the row identifier (the replica number that
// disambiguates duplicates), leaves 1..n are the encoded attribute values.
// Leaf n+1, the last, is the key (KeyLeaf): a user who is shown the key
// opens that slot from it, so a publisher ships the other leaves only.
func AttrLeaves(h *hashx.Hasher, t relation.Tuple) []hashx.Digest {
	b := h.Batch()
	defer b.Done()
	leaves := make([]hashx.Digest, len(t.Attrs)+1, len(t.Attrs)+2)
	var enc []byte
	for i := range leaves {
		enc = AppendAttrLeaf(enc[:0], t, i)
		leaves[i] = b.Leaf(nil, enc)
	}
	return leaves
}

// AppendAttrLeaf appends the pre-image of leaf i of MHT(r.A) to dst: the
// row identifier in hashx.U64's encoding for leaf 0, the encoding of
// attribute i−1 for leaf i ≥ 1. It is the one definition of those
// leaves, so a publisher that hashes only the leaves it ships hashes
// exactly what AttrLeaves would.
func AppendAttrLeaf(dst []byte, t relation.Tuple, i int) []byte {
	if i == 0 {
		return binary.BigEndian.AppendUint64(dst, t.RowID)
	}
	return t.Attrs[i-1].AppendEncode(dst)
}

// KeyLeaf returns the last leaf of MHT(r.A), the record's key in
// hashx.U64's encoding. It binds a disclosed key to g(r) without the
// formula-(3) chains (record format 1; DESIGN.md "Disclosed keys bind
// through the attribute tree").
func KeyLeaf(h *hashx.Hasher, key uint64) hashx.Digest {
	b := h.Batch()
	defer b.Done()
	return AppendKeyLeaf(&b, nil, key)
}

// AppendKeyLeaf appends KeyLeaf(key) to dst.
func AppendKeyLeaf(b *hashx.Batch, dst []byte, key uint64) []byte {
	return b.Leaf(dst, hashx.U64(key))
}

// AttrRoot returns the root of the per-record attribute tree, the
// MHT(r.A) component of formula (3): AttrLeaves and KeyLeaf, laid end to
// end and folded in place, as AppendAttrRoot folds a disclosure.
func AttrRoot(h *hashx.Hasher, t relation.Tuple) hashx.Digest {
	var leaves []byte
	for _, l := range AttrLeaves(h, t) {
		leaves = append(leaves, l...)
	}
	b := h.Batch()
	defer b.Done()
	return mht.Root(&b, append(leaves, KeyLeaf(h, t.Key)...))
}

// recordG computes g(r) from its components: the kind tag, the chain
// digest C = h(up | down) (Hasher.CDigest) and the attribute-tree root.
// This is formula (3) with the concatenation hashed to a fixed width and
// the two chains folded into one digest first (record format 2).
func recordG(h *hashx.Hasher, kind Kind, c, attrRoot hashx.Digest) hashx.Digest {
	return h.GDigest([]byte{byte(kind)}, c, attrRoot)
}

// SignedRecord is one entry of a signed relation as stored by the owner
// and shipped to the publisher: the tuple plus the digest material needed
// to build verification objects without re-deriving chains for every
// result entry.
type SignedRecord struct {
	Kind  Kind
	Tuple relation.Tuple

	// UpCombined and DownCombined are the folded per-direction chain
	// digests h(h(delta_t) | rep-tree root). A boundary proof ships the
	// one its chain proof does not rebuild (BoundaryProof.OtherCombined).
	UpCombined, DownCombined hashx.Digest
	// Combined is the chain digest C = h(UpCombined | DownCombined) that
	// g(r) folds. Every VO entry ships it opaquely — the key leaf, not the
	// chains, binds a disclosed key — and keeping it here means no
	// serving path hashes it per row.
	Combined hashx.Digest
	// AttrRoot is the root of MHT(r.A).
	AttrRoot hashx.Digest
	// G is the record digest g(r).
	G hashx.Digest
	// Sig is sig(r) per formula (1).
	Sig []byte
}

// Clone returns a deep copy of the record.
func (r SignedRecord) Clone() SignedRecord {
	out := r
	out.Tuple = r.Tuple.Clone()
	out.UpCombined = r.UpCombined.Clone()
	out.DownCombined = r.DownCombined.Clone()
	out.Combined = r.Combined.Clone()
	out.AttrRoot = r.AttrRoot.Clone()
	out.G = r.G.Clone()
	out.Sig = append([]byte(nil), r.Sig...)
	return out
}

// Key returns the record's sort-key value.
func (r SignedRecord) Key() uint64 { return r.Tuple.Key }

// AppendG appends g(r), recomputed from an opaque chain digest C and an
// attribute root, to dst — the user's path for every VO entry. C is bound
// by the signature chain; a disclosed key is bound by its leaf inside the
// attribute root.
func AppendG(b *hashx.Batch, dst []byte, kind Kind, c, attrRoot hashx.Digest) []byte {
	return b.GDigest(dst, []byte{byte(kind)}, c, attrRoot)
}

// ErrDisclosure reports an inconsistent attribute disclosure.
var errDisclosure = fmt.Errorf("core: inconsistent attribute disclosure")

// AppendAttrRoot rebuilds the root of MHT(r.A) from a partial disclosure
// and appends it to dst. disclosed has one slot per leaf (leaf 0 is the
// row id, leaf i+1 is attribute i, the last leaf is the key) holding the
// encoded leaf pre-image, or nil for a leaf that travels as a digest;
// hidden supplies those digests in ascending leaf order (digests beyond
// the last hidden leaf bind nothing and are ignored). This implements
// the projection mechanism of Section 4.2: projected-out attributes
// travel as digests, never as values.
func AppendAttrRoot(b *hashx.Batch, dst []byte, disclosed [][]byte, hidden []hashx.Digest) ([]byte, error) {
	var stack [8 * hashx.MaxSize]byte // wider records spill to the heap
	leaves := stack[:0]
	for i, enc := range disclosed {
		if enc != nil {
			leaves = b.Leaf(leaves, enc)
			continue
		}
		if len(hidden) == 0 || len(hidden[0]) != b.Size() {
			return dst, fmt.Errorf("%w: leaf %d missing or malformed", errDisclosure, i)
		}
		leaves = append(leaves, hidden[0]...)
		hidden = hidden[1:]
	}
	return append(dst, mht.Root(b, leaves)...), nil
}

// EntryG recomputes g(r) for a record whose key and kind the user knows,
// given the two representation-tree roots and the attribute root: the
// paper's Figure 8(b) procedure, which rebuilds both formula-(3) chains
// from the key. No serving path runs it since record format 1 bound the
// key through its leaf; the paper tree times and counts it.
func EntryG(h *hashx.Hasher, p Params, key uint64, kind Kind, upRoot, downRoot, attrRoot hashx.Digest) (hashx.Digest, error) {
	b := h.Batch()
	defer b.Done()
	var ub, db [hashx.MaxSize]byte
	up, down := hashx.Digest(ub[:0]), hashx.Digest(db[:0])
	var err error
	if kind == KindDelimRight {
		up = markerNoChain(h)
	} else if up, err = entryCombined(&b, up, p, key, Up, upRoot); err != nil {
		return nil, err
	}
	if kind == KindDelimLeft {
		down = markerNoChain(h)
	} else if down, err = entryCombined(&b, down, p, key, Down, downRoot); err != nil {
		return nil, err
	}
	return recordG(h, kind, h.CDigest(up, down), attrRoot), nil
}
