// Package sig provides the digital-signature substrate for the scheme:
// an RSA full-domain-hash (FDH) signer for the per-record signatures of
// formula (1), and condensed-RSA signature aggregation for the Section 5.2
// optimization.
//
// The paper proposes aggregating the per-record signatures of a query
// result into one value using either BGLS bilinear aggregation [8] or the
// single-signer condensed-RSA construction of Mykletun et al. [18]. The Go
// standard library has no pairing-friendly curves, so this package
// implements condensed-RSA, which matches the data-publishing setting
// exactly (one signer: the data owner):
//
//	sigma_i   = FDH(m_i)^d mod N
//	sigma_agg = prod_i sigma_i mod N
//	verify:     sigma_agg^e == prod_i FDH(m_i)  (mod N)
//
// This preserves the properties the paper uses: the aggregate is the size
// of one signature (Msign), and the user performs a single public-key
// operation per query result.
//
// Immutability caveat (Section 5.2): naive multiplicative aggregates are
// mutable — anyone can multiply two aggregates. Deployments should bind the
// aggregate to the query/result as described in [18]; the library exposes
// the primitive and documents the caveat, and the verifier recomputes the
// expected digest set itself so a mixed-and-matched aggregate never
// verifies against a *specific* query's digests unless it is exactly their
// product.
package sig

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"

	"vcqr/internal/hashx"
)

// DefaultBits is the default RSA modulus size: 1024 bits, matching the
// paper's Msign = 1024 so that VO byte counts reproduce formula (4).
// (Production deployments should use >= 3072; the experiments keep the
// paper's parameter for comparability.)
const DefaultBits = 1024

var (
	// ErrEmptyAggregate reports aggregation over zero signatures.
	ErrEmptyAggregate = errors.New("sig: cannot aggregate zero signatures")
	// ErrBadSignature reports a malformed signature encoding.
	ErrBadSignature = errors.New("sig: malformed signature")
)

// Signature is a big-endian encoding of the RSA signature value, always
// exactly the modulus length (Msign/8 bytes).
type Signature []byte

// Clone returns an independent copy.
func (s Signature) Clone() Signature {
	out := make(Signature, len(s))
	copy(out, s)
	return out
}

// Equal reports byte-wise equality.
func (s Signature) Equal(o Signature) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// PublicKey is the owner's verification key, distributed to users through
// an authenticated channel (Section 2.2).
type PublicKey struct {
	N *big.Int
	E int

	verifyOps atomic.Uint64
	// red caches N's Barrett constant. It is lazily initialized so keys
	// built as struct literals (the cmd tools decode N and E off the wire)
	// still benefit: AggVerifier.Add reduces one product per result row
	// with it, and every public-key exponentiation reduces each step.
	red atomic.Pointer[barrett]
}

// expScratch is the working set of one public-key exponentiation: the
// running power, the unreduced product and the reduction's two scratch
// values. The result is needed only for one comparison, so the set is
// pooled instead of being garbage per call.
type expScratch struct{ z, t, q, u big.Int }

var expPool = sync.Pool{New: func() any { return new(expScratch) }}

// verifyExp reports whether s^E ≡ want (mod N) for a decoded signature
// value 0 < s < N. A key whose exponent is below 1 verifies nothing.
func (p *PublicKey) verifyExp(s, want *big.Int) bool {
	if p.E < 1 {
		return false
	}
	x := expPool.Get().(*expScratch)
	ok := p.barrett().exp(&x.z, s, p.E, &x.t, &x.q, &x.u).Cmp(want) == 0
	expPool.Put(x)
	return ok
}

// PrivateKey is the owner's signing key.
type PrivateKey struct {
	key *rsa.PrivateKey
	pub *PublicKey

	signOps atomic.Uint64
}

// Generate creates a fresh RSA-FDH key pair. rng may be nil, in which case
// crypto/rand.Reader is used.
func Generate(bits int, rng io.Reader) (*PrivateKey, error) {
	if bits == 0 {
		bits = DefaultBits
	}
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("sig: key generation: %w", err)
	}
	pub := &PublicKey{N: new(big.Int).Set(key.N), E: key.E}
	return &PrivateKey{key: key, pub: pub}, nil
}

// Public returns the verification key.
func (k *PrivateKey) Public() *PublicKey { return k.pub }

// SigBytes returns the signature length in bytes (Msign/8).
func (p *PublicKey) SigBytes() int { return (p.N.BitLen() + 7) / 8 }

// SignOps returns how many signing operations the key has performed.
func (k *PrivateKey) SignOps() uint64 { return k.signOps.Load() }

// VerifyOps returns how many public-key operations the key has performed;
// the Csign unit of the paper's cost model.
func (p *PublicKey) VerifyOps() uint64 { return p.verifyOps.Load() }

// FDH maps a digest into Z_N — the full-domain hash of formula (1),
// exported so the publisher-side crypto index (core.AggIndex) can
// precompute per-record FDH values once per epoch instead of re-deriving
// them on every verification.
func (p *PublicKey) FDH(digest hashx.Digest) *big.Int { return fdh(p.N, digest) }

// fdh maps a digest into Z_N via MGF1-SHA256 expansion reduced mod N.
// Deterministic, so signer and verifier agree; the reduction bias is
// negligible because the expansion is 64 bits wider than N.
func fdh(n *big.Int, digest hashx.Digest) *big.Int {
	var buf [fdhStack]byte
	x := new(big.Int).SetBytes(fdhExpand(nil, buf[:0], n, digest))
	return x.Mod(x, n)
}

// fdhStack holds the expansion for moduli up to 4096 bits on the caller's
// stack; wider keys spill to the heap.
const fdhStack = 4096/8 + 8 + hashx.MaxSize

// fdhExpand appends the unreduced expansion of digest — 64 bits wider
// than n — to buf: MGF1-SHA256 of "vcqr/fdh"‖digest, every block on b's
// held hash kernel, or on a pooled one when b is nil. digest is at most
// hashx.MaxSize bytes, as every Hasher's is, so the seed fits one block
// with its counter.
func fdhExpand(b *hashx.Batch, buf []byte, n *big.Int, digest hashx.Digest) []byte {
	var seed [len(fdhTag) + hashx.MaxSize]byte
	s, size := append(append(seed[:0], fdhTag...), digest...), (n.BitLen()+7)/8+8
	if b == nil {
		return hashx.MGF1(buf, s, size)
	}
	return b.MGF1(buf, s, size)
}

// fdhTag domain-separates the full-domain hash's expansion.
const fdhTag = "vcqr/fdh"

// Sign produces the RSA-FDH signature of digest. The private operation
// uses the CRT (m^dp mod p, m^dq mod q, recombine) — ~4x faster than a
// full-width exponentiation, which matters because the owner signs once
// per record at build time.
func (k *PrivateKey) Sign(digest hashx.Digest) Signature {
	k.signOps.Add(1)
	m := fdh(k.key.N, digest)
	pr := k.key.Primes
	pre := k.key.Precomputed
	if len(pr) == 2 && pre.Dp != nil {
		m1 := new(big.Int).Exp(m, pre.Dp, pr[0])
		m2 := new(big.Int).Exp(m, pre.Dq, pr[1])
		h := new(big.Int).Sub(m1, m2)
		h.Mod(h, pr[0])
		h.Mul(h, pre.Qinv)
		h.Mod(h, pr[0])
		s := h.Mul(h, pr[1])
		s.Add(s, m2)
		return encode(s, k.pub.SigBytes())
	}
	s := new(big.Int).Exp(m, k.key.D, k.key.N)
	return encode(s, k.pub.SigBytes())
}

// Verify checks an individual signature against a digest.
func (p *PublicKey) Verify(digest hashx.Digest, sig Signature) bool {
	return p.VerifyFDH(fdh(p.N, digest), sig)
}

// VerifyFDH checks an individual signature against an already-computed
// FDH value — the seam the per-record FDH cache (core.AggIndex) uses to
// skip re-hashing on delta validation. The exponentiation runs in pooled
// scratch, so the call allocates only the decoded signature.
func (p *PublicKey) VerifyFDH(want *big.Int, sig Signature) bool {
	p.verifyOps.Add(1)
	s, err := decode(sig, p)
	if err != nil {
		return false
	}
	return p.verifyExp(s, want)
}

// Aggregate condenses signatures into one by multiplication mod N.
// All signatures must come from the same key.
func (p *PublicKey) Aggregate(sigs []Signature) (Signature, error) {
	agg := p.NewAggregator()
	for _, s := range sigs {
		if err := agg.Add(s); err != nil {
			return nil, err
		}
	}
	return agg.Sum()
}

// Aggregator condenses signatures incrementally: the running product mod
// N is the only state, so a producer can fold in one signature per result
// entry as it streams a VO without ever holding the signature list. The
// zero-overhead equivalent of Aggregate for pipelines.
type Aggregator struct {
	p   *PublicKey
	acc *big.Int
	n   int
}

// NewAggregator starts an empty condensed-signature accumulator.
func (p *PublicKey) NewAggregator() *Aggregator {
	return &Aggregator{p: p, acc: big.NewInt(1)}
}

// Add folds one signature into the aggregate.
func (a *Aggregator) Add(s Signature) error {
	v, err := decode(s, a.p)
	if err != nil {
		return err
	}
	a.acc.Mul(a.acc, v)
	a.acc.Mod(a.acc, a.p.N)
	a.n++
	return nil
}

// Count returns how many signatures were folded in so far.
func (a *Aggregator) Count() int { return a.n }

// Sum returns the condensed signature over everything added so far.
func (a *Aggregator) Sum() (Signature, error) {
	if a.n == 0 {
		return nil, ErrEmptyAggregate
	}
	return encode(a.acc, a.p.SigBytes()), nil
}

// AggVerifier is the user-side dual of Aggregator: it accumulates the
// expected FDH product one digest at a time, so a streaming verifier
// needs O(1) memory regardless of result size, and performs the single
// public-key exponentiation only when the aggregate arrives.
type AggVerifier struct {
	p          *PublicKey
	want       *big.Int
	x, t, q, u big.Int // scratch reused by every Add: FDH value, product, reduction
	n          int
}

// NewAggVerifier starts an empty expected-digest accumulator.
func (p *PublicKey) NewAggVerifier() *AggVerifier {
	return &AggVerifier{p: p, want: big.NewInt(1)}
}

// Add folds one expected message digest into the accumulator, its FDH
// expansion on a pooled hash kernel; AddOn is Add on a caller's Batch.
func (a *AggVerifier) Add(d hashx.Digest) { a.AddOn(nil, d) }

// AddOn folds one expected message digest into the accumulator, its FDH
// expansion on b's held hash kernel (nil takes a pooled one, as Add
// does). The FDH value enters the product unreduced — the one reduction
// of the product yields the same residue — and that reduction is
// Barrett's, two multiplications instead of a division. Every temporary
// is the verifier's own and none aliases its operand, so a streamed
// result costs no garbage per row.
func (a *AggVerifier) AddOn(b *hashx.Batch, d hashx.Digest) {
	var buf [fdhStack]byte
	a.x.SetBytes(fdhExpand(b, buf[:0], a.p.N, d))
	a.t.Mul(a.want, &a.x)
	a.p.barrett().reduce(a.want, &a.t, &a.q, &a.u)
	a.n++
}

// Count returns how many digests were folded in so far.
func (a *AggVerifier) Count() int { return a.n }

// Verify checks a condensed signature against the accumulated digests
// with one modular exponentiation.
func (a *AggVerifier) Verify(agg Signature) bool {
	a.p.verifyOps.Add(1)
	if a.n == 0 {
		return false
	}
	s, err := decode(agg, a.p)
	if err != nil {
		return false
	}
	return a.p.verifyExp(s, a.want)
}

// SigValue decodes a signature into its Z_N value — the leaf material of
// a product tree. Fails on malformed or out-of-range encodings exactly
// like verification would.
func (p *PublicKey) SigValue(s Signature) (*big.Int, error) { return decode(s, p) }

// barrett holds what Barrett reduction modulo N needs. With N of k
// 64-bit words, it reduces any t < N·2^(64(k+1)): a product of a residue
// and an unreduced full-domain hash, which is 64 bits wider than N.
type barrett struct {
	n      *big.Int
	mu     *big.Int // ⌊2^(64(2k+1)) / N⌋
	lo, hi uint     // 64(k−1) and 64(k+2)
}

// barrett returns N's Barrett constant, computed once per key.
func (p *PublicKey) barrett() *barrett {
	if r := p.red.Load(); r != nil {
		return r
	}
	k := uint(p.N.BitLen()+63) / 64
	r := &barrett{n: p.N, lo: 64 * (k - 1), hi: 64 * (k + 2)}
	r.mu = new(big.Int).Lsh(big.NewInt(1), 64*(2*k+1))
	r.mu.Quo(r.mu, p.N)
	p.red.Store(r)
	return r
}

// reduce sets z = t mod N for 0 ≤ t < N·2^(64(k+1)) and returns how many
// final subtractions of N that took. The estimate q3 = ⌊⌊t/2^lo⌋·μ/2^hi⌋
// falls short of ⌊t/N⌋ by at most two, so there are at most two. q and u
// are scratch; z, t, q and u must be distinct, since a big.Int Mul whose
// result aliases an operand allocates.
func (r *barrett) reduce(z, t, q, u *big.Int) (subs int) {
	q.Rsh(t, r.lo)
	u.Mul(q, r.mu)
	q.Rsh(u, r.hi)
	u.Mul(q, r.n)
	z.Sub(t, u)
	for ; z.Cmp(r.n) >= 0; subs++ {
		z.Sub(z, r.n)
	}
	return subs
}

// exp sets z = s^e mod N for 0 ≤ s < N and e ≥ 1 and returns z: left-to-
// right square-and-multiply over e's bits, each step one product and its
// Barrett reduction. math/big's Exp reduces each step of a one-word
// exponent — every RSA public exponent — by long division instead. Both
// squares and products of residues stay below N², inside reduce's bound.
// z, t, q and u are scratch, distinct from s and from each other.
func (r *barrett) exp(z, s *big.Int, e int, t, q, u *big.Int) *big.Int {
	z.Set(s)
	for i := bits.Len(uint(e)) - 2; i >= 0; i-- {
		t.Mul(z, z)
		r.reduce(z, t, q, u)
		if e>>i&1 == 1 {
			t.Mul(z, s)
			r.reduce(z, t, q, u)
		}
	}
	return z
}

func encode(v *big.Int, size int) Signature {
	out := make([]byte, size)
	v.FillBytes(out)
	return out
}

func decode(s Signature, p *PublicKey) (*big.Int, error) {
	if len(s) != p.SigBytes() {
		return nil, ErrBadSignature
	}
	v := new(big.Int).SetBytes(s)
	if v.Sign() <= 0 || v.Cmp(p.N) >= 0 {
		return nil, ErrBadSignature
	}
	return v, nil
}
