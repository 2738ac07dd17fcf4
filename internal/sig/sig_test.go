package sig

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"vcqr/internal/hashx"
)

// testKey is generated once: RSA keygen dominates test time otherwise.
var (
	keyOnce sync.Once
	testKey *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	keyOnce.Do(func() {
		k, err := Generate(DefaultBits, nil)
		if err != nil {
			t.Fatalf("key generation: %v", err)
		}
		testKey = k
	})
	return testKey
}

func digests(h *hashx.Hasher, n int) []hashx.Digest {
	out := make([]hashx.Digest, n)
	for i := range out {
		out[i] = h.Hash([]byte{byte(i), byte(i >> 8)})
	}
	return out
}

func TestSignVerifyRoundTrip(t *testing.T) {
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("message"))
	s := k.Sign(d)
	if len(s) != k.Public().SigBytes() {
		t.Fatalf("signature length %d != %d", len(s), k.Public().SigBytes())
	}
	if !k.Public().Verify(d, s) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsWrongDigest(t *testing.T) {
	k := key(t)
	h := hashx.New()
	s := k.Sign(h.Hash([]byte("a")))
	if k.Public().Verify(h.Hash([]byte("b")), s) {
		t.Fatal("signature verified against wrong digest")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("a"))
	s := k.Sign(d).Clone()
	s[len(s)/2] ^= 0x01
	if k.Public().Verify(d, s) {
		t.Fatal("tampered signature accepted")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("a"))
	if k.Public().Verify(d, nil) {
		t.Fatal("nil signature accepted")
	}
	if k.Public().Verify(d, make(Signature, 5)) {
		t.Fatal("short signature accepted")
	}
	// All-zero value of the right length decodes to 0, which is invalid.
	if k.Public().Verify(d, make(Signature, k.Public().SigBytes())) {
		t.Fatal("zero signature accepted")
	}
	// Value >= N must be rejected.
	huge := make(Signature, k.Public().SigBytes())
	for i := range huge {
		huge[i] = 0xff
	}
	if k.Public().Verify(d, huge) {
		t.Fatal("over-modulus signature accepted")
	}
}

func TestSignDeterministic(t *testing.T) {
	// RSA-FDH is deterministic: the owner can re-sign after updates and
	// the publisher can deduplicate.
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("m"))
	if !k.Sign(d).Equal(k.Sign(d)) {
		t.Fatal("signing must be deterministic")
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	k := key(t)
	h := hashx.New()
	for _, n := range []int{1, 2, 3, 10, 50} {
		ds := digests(h, n)
		sigs := make([]Signature, n)
		for i, d := range ds {
			sigs[i] = k.Sign(d)
		}
		agg, err := k.Public().Aggregate(sigs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(agg) != k.Public().SigBytes() {
			t.Fatalf("n=%d: aggregate size %d != one signature", n, len(agg))
		}
		if !k.Public().VerifyAggregate(ds, agg) {
			t.Fatalf("n=%d: valid aggregate rejected", n)
		}
	}
}

func TestAggregateDetectsOmission(t *testing.T) {
	// Case analogues of Section 3.2: an aggregate over fewer or different
	// messages must not verify against the expected digest set.
	k := key(t)
	h := hashx.New()
	ds := digests(h, 5)
	sigs := make([]Signature, 5)
	for i, d := range ds {
		sigs[i] = k.Sign(d)
	}
	short, err := k.Public().Aggregate(sigs[:4])
	if err != nil {
		t.Fatal(err)
	}
	if k.Public().VerifyAggregate(ds, short) {
		t.Fatal("aggregate missing one signature verified against full set")
	}
	full, _ := k.Public().Aggregate(sigs)
	if k.Public().VerifyAggregate(ds[:4], full) {
		t.Fatal("full aggregate verified against reduced digest set")
	}
}

func TestAggregateRejectsForgedMember(t *testing.T) {
	k := key(t)
	h := hashx.New()
	ds := digests(h, 3)
	sigs := []Signature{k.Sign(ds[0]), k.Sign(ds[1]), k.Sign(ds[2])}
	// Replace one component with garbage of the right length; flip a low
	// byte so the forged value stays below the modulus and aggregation
	// itself succeeds.
	forged := sigs[1].Clone()
	forged[len(forged)-1] ^= 0xaa
	agg, err := k.Public().Aggregate([]Signature{sigs[0], forged, sigs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if k.Public().VerifyAggregate(ds, agg) {
		t.Fatal("aggregate containing forged signature accepted")
	}
}

func TestAggregateOrderIndependent(t *testing.T) {
	// Multiplication commutes; the verifier need not know result order.
	k := key(t)
	h := hashx.New()
	ds := digests(h, 4)
	sigs := make([]Signature, 4)
	for i, d := range ds {
		sigs[i] = k.Sign(d)
	}
	a, _ := k.Public().Aggregate(sigs)
	rev := []Signature{sigs[3], sigs[2], sigs[1], sigs[0]}
	b, _ := k.Public().Aggregate(rev)
	if !a.Equal(b) {
		t.Fatal("aggregation must be order independent")
	}
}

func TestAggregateWithDuplicates(t *testing.T) {
	// Section 4.2: duplicate tuples are retained for SUM/AVG; their
	// signatures appear multiple times in the aggregate.
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("dup"))
	s := k.Sign(d)
	agg, err := k.Public().Aggregate([]Signature{s, s, s})
	if err != nil {
		t.Fatal(err)
	}
	if !k.Public().VerifyAggregate([]hashx.Digest{d, d, d}, agg) {
		t.Fatal("triplicate aggregate rejected")
	}
	if k.Public().VerifyAggregate([]hashx.Digest{d, d}, agg) {
		t.Fatal("triplicate aggregate verified against two copies")
	}
}

func TestAggregateEmpty(t *testing.T) {
	k := key(t)
	if _, err := k.Public().Aggregate(nil); err != ErrEmptyAggregate {
		t.Fatalf("empty aggregate: got %v, want ErrEmptyAggregate", err)
	}
	if k.Public().VerifyAggregate(nil, make(Signature, k.Public().SigBytes())) {
		t.Fatal("empty digest set must not verify")
	}
}

func TestOpCounters(t *testing.T) {
	k := key(t)
	h := hashx.New()
	d := h.Hash([]byte("ops"))
	before := k.SignOps()
	s := k.Sign(d)
	if k.SignOps() != before+1 {
		t.Fatal("SignOps must count")
	}
	k.Public().ResetOps()
	k.Public().Verify(d, s)
	k.Public().VerifyAggregate([]hashx.Digest{d}, s)
	if k.Public().VerifyOps() != 2 {
		t.Fatalf("VerifyOps = %d, want 2", k.Public().VerifyOps())
	}
}

func TestGenerateDefaults(t *testing.T) {
	k, err := Generate(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k.Public().N.BitLen() != DefaultBits {
		t.Fatalf("default modulus = %d bits, want %d", k.Public().N.BitLen(), DefaultBits)
	}
	if k.Public().SigBytes() != DefaultBits/8 {
		t.Fatalf("SigBytes = %d, want %d", k.Public().SigBytes(), DefaultBits/8)
	}
}

func TestCrossKeyRejection(t *testing.T) {
	k1 := key(t)
	k2, err := Generate(DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := hashx.New()
	d := h.Hash([]byte("x"))
	if k2.Public().Verify(d, k1.Sign(d)) {
		t.Fatal("signature verified under wrong key")
	}
}

func BenchmarkSign(b *testing.B) {
	k := key(b)
	h := hashx.New()
	d := h.Hash([]byte("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Sign(d)
	}
}

// BenchmarkVerify measures Csign, the paper's Table 1 parameter for one
// signature verification.
func BenchmarkVerify(b *testing.B) {
	k := key(b)
	h := hashx.New()
	d := h.Hash([]byte("bench"))
	s := k.Sign(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Public().Verify(d, s) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkVerifyAggregate100 shows the Section 5.2 saving: one modular
// exponentiation amortized over 100 result entries.
func BenchmarkVerifyAggregate100(b *testing.B) {
	k := key(b)
	h := hashx.New()
	rng := rand.New(rand.NewSource(3))
	ds := make([]hashx.Digest, 100)
	sigs := make([]Signature, 100)
	for i := range ds {
		ds[i] = h.Hash([]byte{byte(rng.Int()), byte(i)})
		sigs[i] = k.Sign(ds[i])
	}
	agg, err := k.Public().Aggregate(sigs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Public().VerifyAggregate(ds, agg) {
			b.Fatal("aggregate verify failed")
		}
	}
}

// TestAggVerifierAddAllocs: folding a digest into the expected product
// reuses the verifier's own scratch and allocates nothing per row, on a
// pooled kernel or a caller's Batch (allocation counts repeat exactly;
// timings on a shared box do not).
func TestAggVerifierAddAllocs(t *testing.T) {
	av := key(t).Public().NewAggVerifier()
	h := hashx.New()
	d := h.Hash([]byte("row"))
	av.Add(d) // size the scratch
	if allocs := testing.AllocsPerRun(100, func() { av.Add(d) }); allocs > 0 && !raceEnabled {
		t.Fatalf("AggVerifier.Add: %v allocs/op, want 0", allocs)
	}
	b := h.Batch()
	defer b.Done()
	if allocs := testing.AllocsPerRun(100, func() { av.AddOn(&b, d) }); allocs > 0 && !raceEnabled {
		t.Fatalf("AggVerifier.AddOn: %v allocs/op, want 0", allocs)
	}
}

// modulus returns a public key over a random odd modulus of exactly bits
// bits: the accumulator reads only N, so reduction tests need no RSA
// keygen at 4096 bits.
func modulus(rng *rand.Rand, bits int) *PublicKey {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	n.SetBit(n, bits-1, 1)
	n.SetBit(n, 0, 1)
	return &PublicKey{N: n, E: 65537}
}

// reduceBound is N·2^(64(k+1)), the exclusive bound of what Barrett
// reduction accepts: a residue times an unreduced full-domain hash.
func reduceBound(p *PublicKey) *big.Int {
	k := uint(p.N.BitLen()+63) / 64
	return new(big.Int).Lsh(p.N, 64*(k+1))
}

// checkReduce reduces t with the key's Barrett constant and fails unless
// the result is t mod N, reached in at most two final subtractions; it
// returns how many it took.
func checkReduce(t testing.TB, p *PublicKey, v *big.Int) int {
	t.Helper()
	var z, q, u big.Int
	subs := p.barrett().reduce(&z, v, &q, &u)
	if want := new(big.Int).Mod(v, p.N); z.Cmp(want) != 0 {
		t.Fatalf("%d-bit N: reduce(%x) = %x, want %x", p.N.BitLen(), v, &z, want)
	}
	if subs > 2 {
		t.Fatalf("%d-bit N: reduce(%x) took %d subtractions, want <= 2", p.N.BitLen(), v, subs)
	}
	return subs
}

// twoShort returns a k-word modulus just above 2^(64(k−1)) and the
// largest multiple of it below the bound whose low 64(k−1) bits are all
// ones. Both floors of the Barrett estimate then drop almost a whole
// unit, and for about half such moduli the estimate falls two short of
// the quotient: random products never reach the second subtraction.
func twoShort(rng *rand.Rand, k uint) (*PublicKey, *big.Int) {
	one := big.NewInt(1)
	low := new(big.Int).Lsh(one, 64*(k-1))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(one, 64*(k-2)))
	m.SetBit(m, 0, 1)
	p := &PublicKey{N: new(big.Int).Add(low, m), E: 65537}
	// c·N ≡ c·m ≡ −1 (mod 2^(64(k−1))), c in the top residue window.
	c := new(big.Int).Sub(low, new(big.Int).ModInverse(m, low))
	c.Add(c, new(big.Int).Lsh(one, 64*(k+1)))
	c.Sub(c, low)
	return p, c.Mul(c, p.N)
}

// TestAggVerifierMatchesModProduct: the Barrett-reduced accumulator holds
// exactly the Mul+Mod product of the full-domain hashes after every one
// of 2 000 digests (folded in turn by Add and by AddOn on a Batch), at the paper's 1024 bits, at 2048, at 4096 (the
// widest expansion kept on the stack) and at widths that are not whole
// 64-bit words; edge products, random ones up to the bound and products
// built to need the second subtraction reduce exactly in at most two.
func TestAggVerifierMatchesModProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := hashx.New()
	keys := []*PublicKey{key(t).Public()}
	for _, bits := range []int{1000, 1024, 1090, 2048, 4096} {
		keys = append(keys, modulus(rng, bits))
	}
	b := h.Batch()
	defer b.Done()
	for _, p := range keys {
		av := p.NewAggVerifier()
		ref := big.NewInt(1)
		for i := range 2000 {
			d := h.Hash(hashx.U64(uint64(i)))
			if i%2 == 0 {
				av.Add(d)
			} else {
				av.AddOn(&b, d) // the same expansion on a held kernel
			}
			ref.Mul(ref, p.FDH(d))
			ref.Mod(ref, p.N)
			if av.want.Cmp(ref) != 0 {
				t.Fatalf("%d-bit N: product differs from Mul+Mod after %d digests", p.N.BitLen(), i+1)
			}
		}
		bound := reduceBound(p)
		one := big.NewInt(1)
		for _, v := range []*big.Int{
			new(big.Int),
			new(big.Int).Sub(p.N, one),
			new(big.Int).Set(p.N),
			new(big.Int).Mul(p.N, big.NewInt(12345)),
			new(big.Int).Sub(bound, p.N), // the largest multiple of N
			new(big.Int).Sub(bound, one),
		} {
			checkReduce(t, p, v)
		}
		for range 2000 {
			checkReduce(t, p, new(big.Int).Rand(rng, bound))
		}
	}
	for _, k := range []uint{3, 16, 32, 64} {
		two := 0
		for range 32 {
			p, v := twoShort(rng, k)
			if checkReduce(t, p, v) == 2 {
				two++
			}
		}
		if two == 0 {
			t.Fatalf("%d-word N: no constructed product took the second subtraction", k)
		}
	}
}

// FuzzAggVerifierAdd: for any digest pair the accumulator matches the
// Mul+Mod reference, and any product below the bound reduces exactly in
// at most two subtractions.
func FuzzAggVerifierAdd(f *testing.F) {
	f.Add([]byte("row"), []byte{})
	f.Add(make([]byte, hashx.MaxSize), []byte{0xff, 0xff, 0xff})
	f.Add([]byte{1}, make([]byte, 300))
	p := key(f).Public()
	bound := reduceBound(p)
	f.Fuzz(func(t *testing.T, d, raw []byte) {
		d = d[:min(len(d), hashx.MaxSize)]
		av := p.NewAggVerifier()
		ref := big.NewInt(1)
		for _, x := range []hashx.Digest{d, hashx.Digest(raw[:min(len(raw), hashx.MaxSize)])} {
			av.Add(x)
			ref.Mul(ref, p.FDH(x))
			ref.Mod(ref, p.N)
			if av.want.Cmp(ref) != 0 {
				t.Fatalf("product differs from Mul+Mod after digest %x", x)
			}
		}
		checkReduce(t, p, new(big.Int).Mod(new(big.Int).SetBytes(raw), bound))
	})
}

// TestBarrettExpMatchesExp: the Barrett square-and-multiply every
// verification runs equals math/big's Exp at 1024, 2048 and 4096 bits,
// for small, prime and wide public exponents, on the edge bases and on
// random ones; and VerifyFDH accepts exactly that power.
func TestBarrettExpMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{1024, 2048, 4096} {
		p := modulus(rng, bits)
		one := big.NewInt(1)
		bases := []*big.Int{one, big.NewInt(2), new(big.Int).Sub(p.N, one)}
		for range 4 {
			bases = append(bases, new(big.Int).Rand(rng, p.N))
		}
		for _, e := range []int{3, 17, 65537, 1<<31 - 1} {
			q := &PublicKey{N: p.N, E: e}
			for _, s := range bases {
				var z, tt, qq, u big.Int
				want := new(big.Int).Exp(s, big.NewInt(int64(e)), p.N)
				if got := q.barrett().exp(&z, s, e, &tt, &qq, &u); got.Cmp(want) != 0 {
					t.Fatalf("%d-bit N, e=%d: exp(%x) = %x, want %x", bits, e, s, got, want)
				}
				sig := encode(s, q.SigBytes())
				if !q.VerifyFDH(want, sig) {
					t.Fatalf("%d-bit N, e=%d: VerifyFDH rejects s^e", bits, e)
				}
				if q.VerifyFDH(new(big.Int).Add(want, one), sig) {
					t.Fatalf("%d-bit N, e=%d: VerifyFDH accepts s^e+1", bits, e)
				}
			}
		}
	}
}

// TestVerifyAllocs: a verification allocates only its decoded signature
// value; the exponentiation's working set is pooled.
func TestVerifyAllocs(t *testing.T) {
	k := key(t)
	p := k.Public()
	d := hashx.New().Hash([]byte("row"))
	s := k.Sign(d)
	want := p.FDH(d)
	p.VerifyFDH(want, s) // warm the pool and the Barrett constant
	if allocs := testing.AllocsPerRun(100, func() { p.VerifyFDH(want, s) }); allocs > 2 && !raceEnabled {
		t.Fatalf("VerifyFDH allocates %.1f per call, want <= 2", allocs)
	}
}

// FuzzVerifyExp: for any base below N and any positive exponent the
// Barrett exponentiation equals math/big's Exp.
func FuzzVerifyExp(f *testing.F) {
	f.Add([]byte{1}, uint32(65537))
	f.Add([]byte{2}, uint32(3))
	f.Add(make([]byte, 200), uint32(1<<31-1))
	f.Add([]byte{0xff, 0xff}, uint32(1))
	p := key(f).Public()
	f.Fuzz(func(t *testing.T, raw []byte, e uint32) {
		s := new(big.Int).Mod(new(big.Int).SetBytes(raw), p.N)
		ei := max(int(e), 1)
		var z, tt, q, u big.Int
		want := new(big.Int).Exp(s, big.NewInt(int64(ei)), p.N)
		if got := p.barrett().exp(&z, s, ei, &tt, &q, &u); got.Cmp(want) != 0 {
			t.Fatalf("e=%d: exp(%x) = %x, want %x", ei, s, got, want)
		}
	})
}

// BenchmarkAggVerifierAdd is the per-row signature cost a streaming
// verifier pays: one full-domain hash (five SHA-256 compressions on one
// kernel at RSA-1024) folded into the expected product by Barrett
// reduction.
func BenchmarkAggVerifierAdd(b *testing.B) {
	av := key(b).Public().NewAggVerifier()
	h := hashx.New()
	ds := make([]hashx.Digest, 64)
	for i := range ds {
		ds[i] = h.Hash([]byte{byte(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		av.Add(ds[i%len(ds)])
	}
}

// VerifyAggregate checks a condensed signature against the digests of the
// messages it is supposed to cover, in one modular exponentiation
// regardless of len(digests) — the Section 5.2 saving. It is the tests'
// one-shot form of the AggVerifier every serving path streams through.
func (p *PublicKey) VerifyAggregate(digests []hashx.Digest, agg Signature) bool {
	av := p.NewAggVerifier()
	for _, d := range digests {
		av.Add(d)
	}
	return av.Verify(agg)
}

// ResetOps zeroes the verify-operation counter only; the signing count
// lives on the PrivateKey.
func (p *PublicKey) ResetOps() { p.verifyOps.Store(0) }
