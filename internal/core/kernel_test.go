package core

import (
	"testing"

	"vcqr/internal/basep"
	"vcqr/internal/hashx"
)

// buildFormat1 is the hash count of Build over goldenRelation per base in
// record format 1, whose key leaf widens each record's attribute tree,
// when every digit chain ran its full 2B steps.
var buildFormat1 = map[uint64]uint64{2: 2461, 4: 2125, 16: 3757}

// unreachedSteps counts the chain steps a full 2B-step chain side of
// (key, dir) applies beyond what any of the key's representations
// reaches, which a side hashed once skips: B-1-c_0 at digit 0, whose
// chain stops at c_0+B, and B-c_j at every digit above, whose chains
// stop at c_j+B-1.
func unreachedSteps(t *testing.T, p Params, key uint64, dir Direction) uint64 {
	t.Helper()
	dt, err := p.deltaT(key, dir)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := basep.Canonical(p.BP, dt)
	if err != nil {
		t.Fatal(err)
	}
	n := p.BP.B - 1 - canon.Digits[0]
	for _, c := range canon.Digits[1:] {
		n += p.BP.B - c
	}
	return n
}

// TestOpsMatchPreKernelCounts: batching the Hasher's counter must keep
// totals exact — experiments report Chash from Ops(). The EntryG and
// VerifyBoundary counts are the ones the pre-kernel implementation
// (commit c274afd) reported for the same calls; the Build counts are
// record format 1's, each record's attribute tree one key leaf wider,
// less the chain steps no representation reaches on each chain side
// Build hashes: both sides of every golden key and the delimiters' one.
// Record format 2 adds one application to every g: the chain digest C.
func TestOpsMatchPreKernelCounts(t *testing.T) {
	want := map[uint64]struct {
		build, entry uint64
		boundary     [6]uint64
	}{
		2:  {buildFormat1[2], 102, [6]uint64{25, 24, 12, 19, 37, 37}},
		4:  {buildFormat1[4], 86, [6]uint64{37, 35, 16, 23, 53, 53}},
		16: {buildFormat1[16], 142, [6]uint64{91, 83, 34, 49, 125, 125}},
	}
	for _, base := range []uint64{2, 4, 16} {
		h := hashx.New()
		p := mustParams(t, 0, 1<<32, base)
		rel := goldenRelation(t, p, goldenKeys)
		h.ResetOps()
		sr, err := Build(h, signKey(t), p, rel)
		if err != nil {
			t.Fatal(err)
		}
		build := want[base].build + uint64(len(sr.Recs))
		for _, rec := range sr.Recs {
			if rec.Kind != KindDelimRight {
				build -= unreachedSteps(t, p, rec.Key(), Up)
			}
			if rec.Kind != KindDelimLeft {
				build -= unreachedSteps(t, p, rec.Key(), Down)
			}
		}
		if got := h.Ops(); got != build {
			t.Errorf("base %d: Build counted %d ops, format 1 plus one C per record less unreached chain steps counts %d", base, got, build)
		}
		up, down := repRoots(t, h, p, sr.Recs[3])
		h.ResetOps()
		if _, err := EntryG(h, p, 77777, KindRecord, up, down, sr.Recs[3].AttrRoot); err != nil {
			t.Fatal(err)
		}
		if got := h.Ops(); got != want[base].entry+1 {
			t.Errorf("base %d: EntryG counted %d ops, pre-kernel %d plus C", base, got, want[base].entry)
		}
		for i, c := range []struct {
			idx   int
			dir   Direction
			bound uint64
		}{{3, Up, 77778}, {3, Up, 77777 + 9}, {3, Down, 77776}, {3, Down, 77777 - 4}, {0, Up, 1}, {6, Down, p.U - 1}} {
			proof, err := sr.ProveBoundary(h, c.idx, c.dir, c.bound)
			if err != nil {
				t.Fatal(err)
			}
			h.ResetOps()
			if _, err := VerifyBoundary(h, p, proof, c.dir, c.bound); err != nil {
				t.Fatal(err)
			}
			if got := h.Ops(); got != want[base].boundary[i]+1 {
				t.Errorf("base %d: VerifyBoundary #%d counted %d ops, pre-kernel %d plus C", base, i, got, want[base].boundary[i])
			}
		}
	}
}

// TestEntryGAllocs: recomputing g for a known key allocates the returned
// digest and nothing per digit — allocation counts repeat exactly, so
// this (not a timing) is the gate on the verification kernel.
func TestEntryGAllocs(t *testing.T) {
	for _, base := range []uint64{2, 16} {
		h := hashx.New()
		p := mustParams(t, 0, 1<<32, base)
		up, down, attr := h.Hash([]byte("u")), h.Hash([]byte("d")), h.Hash([]byte("a"))
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := EntryG(h, p, 77777, KindRecord, up, down, attr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 && !raceEnabled {
			t.Errorf("base %d: EntryG %v allocs/op, want <= 2", base, allocs)
		}
	}
}

// TestAppendDigestsAllocNothing: the verifier's per-row digests — the
// attribute root, g, and the signed digest at every version, virtual
// ends included — append into caller storage without allocating.
func TestAppendDigestsAllocNothing(t *testing.T) {
	h := hashx.New()
	p := mustParams(t, 0, 1<<32, 2)
	g := h.Hash([]byte("g"))
	disclosed := [][]byte{nil, []byte("value"), hashx.U64(77777)}
	hidden := []hashx.Digest{h.Hash([]byte("row id"))}
	for _, version := range []uint64{0, 7} {
		p.Version = version
		allocs := testing.AllocsPerRun(50, func() {
			var root, gb, sb [hashx.MaxSize]byte
			b := h.Batch()
			r, err := AppendAttrRoot(&b, root[:0], disclosed, hidden)
			if err != nil {
				t.Fatal(err)
			}
			cur := AppendG(&b, gb[:0], KindRecord, g, r)
			AppendSigDigest(&b, sb[:0], p, nil, cur, g)
			AppendSigDigest(&b, sb[:0], p, g, cur, nil)
			b.Done()
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("version %d: %v allocs/op, want 0", version, allocs)
		}
	}
}

// TestProveBoundaryAllocs: a chain side is hashed once, into one chain
// block, with its representation leaves folded on the stack, so a
// boundary proof allocates a bounded handful (the selection's digit
// slices, the chain block, the proof's digests and path) and a record
// side a few — where rebuilding a tree per side cost 194 and 145.
func TestProveBoundaryAllocs(t *testing.T) {
	h := hashx.New()
	p := mustParams(t, 0, 1<<32, 2)
	sr, err := Build(h, signKey(t), p, goldenRelation(t, p, goldenKeys))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir   Direction
		bound uint64
	}{{Up, 77778}, {Up, 77777 + 9}, {Down, 77776}, {Down, 77777 - 4}} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sr.ProveBoundary(h, 3, c.dir, c.bound); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 && !raceEnabled {
			t.Errorf("%v bound %d: ProveBoundary %v allocs/op, want <= 16", c.dir, c.bound, allocs)
		}
	}
	for _, dir := range []Direction{Up, Down} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sideCombined(h, nil, p, 77777, dir); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 && !raceEnabled {
			t.Errorf("%v: record-path chain side %v allocs/op, want <= 8", dir, allocs)
		}
	}
}
