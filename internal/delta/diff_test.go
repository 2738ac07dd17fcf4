package delta_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// diffRef is the map-based diff Diff's single walk replaced, kept as its
// reference: index both sides by identity, upsert what is new or
// changed, delete what is gone, then order upserts first and each kind
// by key and row id.
func diffRef(old, new *core.SignedRelation) delta.Delta {
	d := delta.Delta{Relation: new.Schema.Name}
	type ident struct {
		k, r uint64
		kind core.Kind
	}
	index := func(sr *core.SignedRelation) map[ident]*core.SignedRecord {
		m := make(map[ident]*core.SignedRecord, len(sr.Recs))
		for _, rec := range sr.Recs {
			m[ident{rec.Key(), rec.Tuple.RowID, rec.Kind}] = rec
		}
		return m
	}
	oldIdx := index(old)
	newIdx := index(new)
	for id, rec := range newIdx {
		prev, ok := oldIdx[id]
		if !ok || !sig.Signature(prev.Sig).Equal(sig.Signature(rec.Sig)) || !prev.G.Equal(rec.G) {
			d.Ops = append(d.Ops, delta.Op{Kind: delta.OpUpsert, Key: id.k, RowID: id.r, Rec: rec.Clone()})
		}
	}
	for id := range oldIdx {
		if _, ok := newIdx[id]; !ok && id.kind == core.KindRecord {
			d.Ops = append(d.Ops, delta.Op{Kind: delta.OpDelete, Key: id.k, RowID: id.r})
		}
	}
	sort.Slice(d.Ops, func(i, j int) bool {
		a, b := d.Ops[i], d.Ops[j]
		if a.Kind != b.Kind {
			return a.Kind == delta.OpUpsert
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.RowID < b.RowID
	})
	return d
}

// diffSlice is a synthetic record sequence for the diff kernels: Diff
// and ApplyOps read identities and compare G and signature bytes, never
// verify them, so fuzzing needs no signing key.
type diffSlice struct {
	sr   *core.SignedRelation
	next byte // salt for fresh G and signature bytes
}

func (s *diffSlice) rec(kind core.Kind, key, rowID uint64) *core.SignedRecord {
	s.next++
	return &core.SignedRecord{
		Kind:  kind,
		Tuple: relation.Tuple{Key: key, RowID: rowID},
		G:     []byte{byte(key), byte(rowID), s.next, 'g'},
		Sig:   []byte{byte(key >> 8), byte(key), s.next, 's'},
	}
}

// newDiffSlice builds n records at keys 16, 32, ... between two edges:
// delimiters (the whole relation, or an edge shard) or context records
// (an interior shard's slice).
func newDiffSlice(n int, leftDelim, rightDelim bool) *diffSlice {
	s := &diffSlice{sr: &core.SignedRelation{Schema: relation.Schema{Name: "R"}}}
	if leftDelim {
		s.sr.Recs = append(s.sr.Recs, s.rec(core.KindDelimLeft, 0, 0))
	} else {
		s.sr.Recs = append(s.sr.Recs, s.rec(core.KindRecord, 8, 0))
	}
	for i := 1; i <= n; i++ {
		s.sr.Recs = append(s.sr.Recs, s.rec(core.KindRecord, uint64(16*i), 0))
	}
	right := uint64(16*n + 8)
	if rightDelim {
		s.sr.Recs = append(s.sr.Recs, s.rec(core.KindDelimRight, 1<<16, 0))
	} else {
		s.sr.Recs = append(s.sr.Recs, s.rec(core.KindRecord, right, 0))
	}
	return s
}

// edit applies one fuzz-chosen change to the sequence, keeping it in
// identity order: a re-sign (delimiters included), a G change, an
// insert, a delete of an owned record, or a context swap — a context
// record replaced by one of another identity, as a neighbour shard's
// edge insert or delete leaves it.
func (s *diffSlice) edit(op, a, b byte) {
	recs := s.sr.Recs
	n := len(recs)
	at := int(a) % n
	switch op % 5 {
	case 0: // re-sign
		s.next++
		s.sr.Own(at).Sig = []byte{s.next, 'r'}
	case 1: // new digest material
		s.next++
		s.sr.Own(at).G = []byte{s.next, 'G'}
	case 2: // insert after at, strictly between it and its successor
		if at == n-1 {
			at--
		}
		lo, hi := recs[at], recs[at+1]
		key, row := lo.Key(), lo.Tuple.RowID+1+uint64(b%3)
		if hi.Key() == key && hi.Tuple.RowID <= row {
			return
		}
		if lo.Kind == core.KindDelimLeft {
			key, row = lo.Key()+1, 0
			if key >= hi.Key() {
				return
			}
		}
		rec := s.rec(core.KindRecord, key, row)
		s.sr.Recs = slices.Insert(recs, at+1, rec)
	case 3: // delete an owned record
		if n > 3 && at > 0 && at < n-1 {
			s.sr.Recs = slices.Delete(recs, at, at+1)
		}
	case 4: // context swap
		left := b%2 == 0
		switch {
		case left && recs[0].Kind == core.KindRecord:
			lo, hi := uint64(1), recs[1].Key()
			if hi <= lo {
				return
			}
			recs[0] = s.rec(core.KindRecord, lo+uint64(a)%(hi-lo), 0)
		case !left && recs[n-1].Kind == core.KindRecord:
			lo := recs[n-2].Key() + 1
			recs[n-1] = s.rec(core.KindRecord, lo+uint64(a%8), 0)
		}
	}
}

// FuzzDiff holds the one-walk Diff to the map reference — same ops, same
// order — over inserts, deletes, re-signs (delimiters included) and
// context swaps on every slice shape, and proves every diff
// round-trips: ApplyOps on the old sequence reproduces the new one,
// context swaps included (they need the upserts ordered first).
func FuzzDiff(f *testing.F) {
	// data[0] picks the shape, data[1] the record count, and every three
	// bytes after them one edit (kind, position, argument).
	f.Add([]byte{2, 2, 4, 3, 0})                      // interior shard: left context swap
	f.Add([]byte{2, 2, 4, 5, 1})                      // interior shard: right context swap
	f.Add([]byte{1, 3, 4, 1, 1, 0, 0, 0})             // first shard: right swap, delimiter re-sign
	f.Add([]byte{3, 5, 4, 2, 0, 3, 2, 0})             // last shard: left swap, delete
	f.Add([]byte{0, 4, 3, 2, 0, 2, 1, 1, 0, 0, 0})    // whole relation: delete, insert, re-sign
	f.Add([]byte{2, 6, 2, 0, 1, 4, 0, 0, 1, 3, 0, 3}) // insert after the left context, swap it, new G
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// 0: the whole relation, 1: the first shard, 2: an interior
		// shard, 3: the last shard.
		shape := data[0] % 4
		old := newDiffSlice(2+int(data[1]%10), shape <= 1, shape == 0 || shape == 3)
		next := &diffSlice{sr: old.sr.Clone(), next: 128}
		for p := 2; p+2 < len(data) && p < 2+3*16; p += 3 {
			next.edit(data[p], data[p+1], data[p+2])
		}
		got, want := delta.Diff(old.sr, next.sr), diffRef(old.sr, next.sr)
		if len(got.Ops) != len(want.Ops) || (len(got.Ops) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Diff = %v\nreference = %v", opList(got), opList(want))
		}
		probe := old.sr.Clone()
		if _, err := delta.ApplyOps(probe, got); err != nil {
			t.Fatalf("ops %v do not apply: %v", opList(got), err)
		}
		if !partition.SameSlice(probe, next.sr) {
			t.Fatalf("ops %v do not reproduce the new sequence", opList(got))
		}
	})
}

func opList(d delta.Delta) []string {
	out := make([]string, len(d.Ops))
	for i, op := range d.Ops {
		kind := "upsert"
		if op.Kind == delta.OpDelete {
			kind = "delete"
		}
		out[i] = fmt.Sprintf("%s (%d,%d)", kind, op.Key, op.RowID)
	}
	return out
}
