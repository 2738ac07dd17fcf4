package delta

import (
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
)

// The tests drive CheckOpSigs, ApplyOps and ValidateTouched through the
// all-or-nothing composition the serving layer performs per shard
// (internal/server checks op signatures, stages, stitches mirrors, then
// validates).

// Apply integrates a delta into the publisher's copy and validates the
// touched neighbourhood: every affected entry and its immediate
// neighbours get their digest material recomputed and their signatures
// checked against the owner's public key. On any failure the relation is
// left unchanged (apply-then-validate runs on a scratch copy).
func Apply(h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, d Delta) error {
	return apply(h, pub, sr, d, false)
}

// ApplySlice is Apply for a partition shard slice (internal/partition):
// a contiguous run of the global record sequence whose first and last
// entries are context records mirroring the neighbouring shards. Their
// signatures bind records outside the slice, so they cannot be checked
// locally; the slice variant still recomputes their digest material but
// skips the signature check on non-delimiter edge entries. The skipped
// checks are not lost: each record's signature is verified by the shard
// that owns it, and the serving layer re-validates the cross-shard seams
// after stitching mirrors (see internal/server).
func ApplySlice(h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, d Delta) error {
	return apply(h, pub, sr, d, true)
}

func apply(h *hashx.Hasher, pub *sig.PublicKey, sr *core.SignedRelation, d Delta, slice bool) error {
	if err := CheckOpSigs(pub, d); err != nil {
		return err
	}
	scratch := sr.Clone()
	touched, err := ApplyOps(scratch, d)
	if err != nil {
		return err
	}
	if err := ValidateTouched(h, pub, scratch, touched, slice); err != nil {
		return err
	}
	// The crypto index followed the ops on the scratch copy (ApplyOps
	// keeps it in lock-step); adopt it with the records so the next epoch
	// keeps the O(log n) aggregation path without a rebuild.
	*sr = *scratch
	return nil
}

// ApplyOpsRef is ApplyOps with the two linear scans its binary search
// replaced, kept as its reference (FuzzApplyOps): findEntry walks the
// sequence for the identity, insertPos for the first entry past (key,
// rowID). The old insertPos started at 1 and stopped before the last
// entry; that clamp is dropped here as in ApplyOps, because a context
// record re-seated at a shard's edge sorts before the old left context
// or after the old right one, and the clamp put it on the wrong side,
// out of identity order, until the old context's delete.
func ApplyOpsRef(sr *core.SignedRelation, d Delta) ([]int, error) {
	return applyOps(sr, d, func(recs []*core.SignedRecord, key, rowID uint64, kind core.Kind) (int, bool) {
		if i := findEntry(recs, key, rowID, kind); i >= 0 {
			return i, true
		}
		return insertPos(recs, key, rowID), false
	})
}

func findEntry(recs []*core.SignedRecord, key, rowID uint64, kind core.Kind) int {
	for i, rec := range recs {
		if rec.Kind == kind && rec.Key() == key && rec.Tuple.RowID == rowID {
			return i
		}
	}
	return -1
}

func insertPos(recs []*core.SignedRecord, key, rowID uint64) int {
	pos := 0
	for ; pos < len(recs); pos++ {
		rec := recs[pos]
		if rec.Key() > key || (rec.Key() == key && rec.Tuple.RowID > rowID) {
			break
		}
	}
	return pos
}
