package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/workload"
)

// dataset is the owner's side of one set-up: the signed master relation
// (never handed to a server — servers get clones), plus what signing cost.
type dataset struct {
	h      *hashx.Hasher
	key    *sig.PrivateKey
	master *core.SignedRelation
	signD  time.Duration
}

// signRelation generates the fixed synthetic relation from the seed and
// signs it. The RSA key is the caller's: it is fresh per invocation, so
// signatures (and only signatures) differ between two runs of one seed.
func signRelation(cfg config, key *sig.PrivateKey, seed int64) (*dataset, error) {
	h := hashx.New()
	u := uint64(1) << cfg.KeyBits
	rel, err := workload.Uniform(workload.UniformConfig{
		N: cfg.N, L: 0, U: u, PayloadSize: cfg.Payload, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	p, err := core.NewParams(0, u, cfg.Base)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sr, err := core.Build(h, key, p, rel)
	if err != nil {
		return nil, err
	}
	return &dataset{h: h, key: key, master: sr, signD: time.Since(t0)}, nil
}

// oracle is the harness's own view of what every query must return,
// derived from the owner's master relation and never from a server: one
// 64-bit hash per data row in key order. A query's expected answer is
// the ordered fold of the hashes in its key range.
type oracle struct {
	keys   []uint64
	hashes []uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	foldPrime = 0x9E3779B97F4A7C15 // odd, so the fold is order-sensitive and invertible
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// hashRow hashes one result row: key, then every disclosed column.
func hashRow(key uint64, vals []engine.DisclosedAttr) uint64 {
	var kb [8]byte
	binary.BigEndian.PutUint64(kb[:], key)
	h := fnvBytes(fnvOffset, kb[:])
	for _, v := range vals {
		h = (h ^ uint64(v.Col)) * fnvPrime
		if v.Val.Type == relation.TypeBytes {
			h = fnvBytes(h, v.Val.Bytes)
		} else {
			h = fnvBytes(h, v.Val.Encode())
		}
	}
	return h
}

func hashTuple(t relation.Tuple) uint64 {
	vals := make([]engine.DisclosedAttr, len(t.Attrs))
	for i, a := range t.Attrs {
		vals[i] = engine.DisclosedAttr{Col: i, Val: a}
	}
	return hashRow(t.Key, vals)
}

func fold(acc, rowHash uint64) uint64 { return acc*foldPrime + rowHash }

func newOracle(sr *core.SignedRelation) *oracle {
	n := sr.Len()
	o := &oracle{keys: make([]uint64, n), hashes: make([]uint64, n)}
	for i := 0; i < n; i++ {
		t := sr.Recs[i+1].Tuple
		o.keys[i] = t.Key
		o.hashes[i] = hashTuple(t)
	}
	return o
}

// expect returns the row count and folded hash of the inclusive key range.
func (o *oracle) expect(lo, hi uint64) (rows int, sum uint64) {
	a := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= lo })
	b := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] > hi })
	for i := a; i < b; i++ {
		sum = fold(sum, o.hashes[i])
	}
	return b - a, sum
}

// keyRange is one inclusive key range; sequences of them are the read
// workloads' generated inputs.
type keyRange struct{ Lo, Hi uint64 }

func (r keyRange) query(rel string) engine.Query {
	return engine.Query{Relation: rel, KeyLo: r.Lo, KeyHi: r.Hi}
}

// rowsAt is the range covering `rows` consecutive rows from rank start.
func (o *oracle) rowsAt(start, rows int) keyRange {
	return keyRange{Lo: o.keys[start], Hi: o.keys[start+rows-1]}
}

// scanSequence draws n ranges of `rows` consecutive rows, start rank uniform.
func scanSequence(o *oracle, rng *rand.Rand, rows, n int) []keyRange {
	out := make([]keyRange, n)
	for i := range out {
		out[i] = o.rowsAt(rng.Intn(len(o.keys)-rows+1), rows)
	}
	return out
}

// zipfSequence fixes `distinct` ranges of `rows` rows and draws n of them
// Zipf(s): rank 0 is the hottest range.
func zipfSequence(o *oracle, rng *rand.Rand, rows, distinct int, s float64, n int) []keyRange {
	fixed := scanSequence(o, rng, rows, distinct)
	z := rand.NewZipf(rng, s, 1, uint64(distinct-1))
	out := make([]keyRange, n)
	for i := range out {
		out[i] = fixed[z.Uint64()]
	}
	return out
}

func hashRanges(seq []keyRange) string {
	h := sha256.New()
	var b [16]byte
	for _, r := range seq {
		binary.BigEndian.PutUint64(b[:8], r.Lo)
		binary.BigEndian.PutUint64(b[8:], r.Hi)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// update is one pre-signed owner delta and the plaintext change it
// carries, so the oracle can follow the acknowledged prefix.
type update struct {
	d       delta.Delta
	row     int // oracle index of the rewritten record
	rowHash uint64
}

// presignUpdates replays single-record UpdateAttrs against a scratch
// copy of the master (the way experiments/sharding.go mints its delta
// stream) and keeps each step's delta. A one-record attribute update
// re-signs the record and its two neighbours, so the delta is exactly
// those three upserts — what delta.Diff would find, without its O(N)
// pass per step. The edge records are never picked, keeping delimiters
// out of the ops.
func presignUpdates(ds *dataset, cfg config, rng *rand.Rand, n int) ([]update, string, error) {
	scratch := ds.master.Clone()
	out := make([]update, n)
	sum := sha256.New()
	for i := range out {
		pos := 2 + rng.Intn(scratch.Len()-2) // Recs index in [2, Len-1]: both neighbours are data records
		rec := scratch.Recs[pos]
		payload := make([]byte, cfg.Payload)
		rng.Read(payload)
		attrs := []relation.Value{relation.BytesVal(payload)}
		if _, err := scratch.UpdateAttrs(ds.h, ds.key, rec.Key(), rec.Tuple.RowID, attrs); err != nil {
			return nil, "", fmt.Errorf("presign update %d: %w", i, err)
		}
		d := delta.Delta{Relation: scratch.Schema.Name}
		for _, j := range []int{pos - 1, pos, pos + 1} {
			r := scratch.Recs[j]
			d.Ops = append(d.Ops, delta.Op{Kind: delta.OpUpsert, Key: r.Key(), RowID: r.Tuple.RowID, Rec: r.Clone()})
		}
		sort.SliceStable(d.Ops, func(a, b int) bool {
			if d.Ops[a].Key != d.Ops[b].Key {
				return d.Ops[a].Key < d.Ops[b].Key
			}
			return d.Ops[a].RowID < d.Ops[b].RowID
		})
		out[i] = update{d: d, row: pos - 1, rowHash: hashTuple(scratch.Recs[pos].Tuple)}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(pos))
		sum.Write(b[:])
		sum.Write(payload)
	}
	return out, hex.EncodeToString(sum.Sum(nil)), nil
}

// applied folds the first n updates into the oracle.
func (o *oracle) applied(ups []update) {
	for _, u := range ups {
		o.hashes[u.row] = u.rowHash
	}
}
