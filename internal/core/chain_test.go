package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vcqr/internal/hashx"
)

// refProof is the reference construction's ChainProof for (key, dir)
// against bound: the side built whole, its digit chains built again, and
// the proof read off the two.
func refProof(h *hashx.Hasher, p Params, key uint64, dir Direction, bound uint64) (ChainProof, error) {
	side, err := buildChainSide(h, p, key, dir)
	if err != nil {
		return ChainProof{}, err
	}
	return newDigitChains(h, p, key, dir).proveChain(h, side, bound)
}

// sameAsReference fails t unless the record path's combined digest and
// the whole ChainProof against bound — Canonical, Index, every
// intermediate, RepRoot/CanonDigest and RepPath — equal the reference
// construction's byte for byte, or both refuse with the same error.
func sameAsReference(t *testing.T, h *hashx.Hasher, p Params, key uint64, dir Direction, bound uint64) {
	t.Helper()
	where := fmt.Sprintf("B=%d domain (%d,%d) key %d %v bound %d", p.BP.B, p.L, p.U, key, dir, bound)
	ref, refErr := buildChainSide(h, p, key, dir)
	got, err := sideCombined(h, nil, p, key, dir)
	if (err != nil) != (refErr != nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: combined err %v, reference %v", where, err, refErr)
	}
	if err == nil && !got.Equal(ref.Combined) {
		t.Fatalf("%s: combined %x, reference %x", where, got, ref.Combined)
	}
	want, refErr := refProof(h, p, key, dir, bound)
	proof, err := proveSide(h, p, key, dir, bound)
	if (err != nil) != (refErr != nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: proof err %v, reference %v", where, err, refErr)
	}
	if !reflect.DeepEqual(proof, want) {
		t.Fatalf("%s: proof\n%+v\nreference\n%+v", where, proof, want)
	}
}

// TestChainSideMatchesReference holds the once-hashed chain side to the
// reference over every base the scheme is run at, both directions, both
// delimiters, the keys next to the domain ends, keys whose canonical
// digits hold zeros (invalid preferred representations), and bounds next
// to the key on both sides as well as a power of B away, which selects
// every preferred-representation index.
func TestChainSideMatchesReference(t *testing.T) {
	for _, size := range []int{hashx.DefaultSize, hashx.MaxSize} {
		h := hashx.NewSize(size)
		for _, base := range []uint64{2, 3, 4, 8, 16} {
			for _, dom := range [][2]uint64{{0, 1 << 32}, {100, 164}, {0, 3}} {
				p := mustParams(t, dom[0], dom[1], base)
				span := p.U - p.L
				keys := []uint64{p.L + 1, p.U - 1, p.L + span/2, p.L + span/3}
				for _, z := range []uint64{1, base, base * base, base*base*base + 1} {
					if z < span-1 {
						keys = append(keys, p.U-1-z, p.L+1+z) // delta_t = z: up, down
					}
				}
				ds := []uint64{1, 2, 3, base + 1, span / 7, span / 2}
				for d := base; d < span; d *= base {
					ds = append(ds, d, d+d/3)
				}
				for _, key := range keys {
					for _, dir := range []Direction{Up, Down} {
						for _, d := range ds {
							sameAsReference(t, h, p, key, dir, key+d)
							sameAsReference(t, h, p, key, dir, key-d)
						}
						sameAsReference(t, h, p, key, dir, key)
					}
				}
				for _, bound := range []uint64{p.L + 1, p.L + 2, p.U - 2, p.U - 1, p.L + span/2} {
					sameAsReference(t, h, p, p.L, Up, bound)   // left delimiter
					sameAsReference(t, h, p, p.U, Down, bound) // right delimiter
				}
			}
		}
	}
}

// FuzzChainSide: for any base, key, direction and bound, the record
// path's combined digest and the whole ChainProof equal the reference
// construction's byte for byte, or both refuse alike.
func FuzzChainSide(f *testing.F) {
	f.Add(uint8(0), uint64(77777), true, uint64(77778))
	f.Add(uint8(0), uint64(77777), false, uint64(77773))
	f.Add(uint8(2), uint64(0), true, uint64(1))
	f.Add(uint8(14), uint64(1<<32), false, uint64(1<<32-1))
	f.Add(uint8(1), uint64(1<<31+12345), true, uint64(1<<31+12345+9))
	h := hashx.New()
	f.Fuzz(func(t *testing.T, b uint8, key uint64, up bool, bound uint64) {
		p, err := NewParams(0, 1<<32, 2+uint64(b%15))
		if err != nil {
			t.Fatal(err)
		}
		key %= p.U + 1
		dir := Down
		if up {
			dir = Up
		}
		sameAsReference(t, h, p, key, dir, bound%(p.U+1))
	})
}

// BenchmarkChainSide times one record-path chain side (sideCombined, as
// Build and CheckEntryDigests run it) and one boundary proof
// (ProveBoundary, as every query runs two) per base over the 32-bit
// domain, each beside the reference construction it replaced, and
// reports the hash applications each counts — the unit of
// internal/paper/costmodel.
func BenchmarkChainSide(b *testing.B) {
	type query struct {
		idx   int
		dir   Direction
		bound uint64
	}
	for _, base := range []uint64{2, 4, 8, 16} {
		h := hashx.New()
		p := mustParams(b, 0, 1<<32, base)
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = 2 + rng.Uint64()%(p.U-4)
		}
		sr, err := Build(h, signKey(b), p, goldenRelation(b, p, keys))
		if err != nil {
			b.Fatal(err)
		}
		queries := make([]query, 64)
		for i := range queries {
			q := query{idx: 1 + i, dir: Direction(i % 2)}
			key := sr.Recs[q.idx].Key()
			if q.dir == Up {
				q.bound = key + 1 + rng.Uint64()%(p.U-1-key)
			} else {
				q.bound = key - 1 - rng.Uint64()%(key-1)
			}
			queries[i] = q
		}
		run := func(name string, op func(i int) error) {
			b.Run(fmt.Sprintf("B=%d/%s", base, name), func(b *testing.B) {
				b.ReportAllocs()
				h.ResetOps()
				for i := 0; i < b.N; i++ {
					if err := op(i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(h.Ops())/float64(b.N), "hashes/op")
			})
		}
		var dst [hashx.MaxSize]byte
		run("record", func(i int) error {
			_, err := sideCombined(h, dst[:0], p, keys[i%len(keys)], Direction(i%2))
			return err
		})
		run("record-ref", func(i int) error {
			_, err := buildChainSide(h, p, keys[i%len(keys)], Direction(i%2))
			return err
		})
		run("proof", func(i int) error {
			q := queries[i%len(queries)]
			_, err := sr.ProveBoundary(h, q.idx, q.dir, q.bound)
			return err
		})
		run("proof-ref", func(i int) error {
			q := queries[i%len(queries)]
			_, err := refProof(h, p, sr.Recs[q.idx].Key(), q.dir, q.bound)
			return err
		})
	}
}
