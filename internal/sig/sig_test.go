package sig

import (
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
// reuses the verifier's own scratch — at most one allocation per row
// (allocation counts repeat exactly; timings on a shared box do not).
func TestAggVerifierAddAllocs(t *testing.T) {
	av := key(t).Public().NewAggVerifier()
	d := hashx.New().Hash([]byte("row"))
	av.Add(d) // size the scratch
	if allocs := testing.AllocsPerRun(100, func() { av.Add(d) }); allocs > 1 && !raceEnabled {
		t.Fatalf("AggVerifier.Add: %v allocs/op, want <= 1", allocs)
	}
}

// BenchmarkAggVerifierAdd is the per-row signature cost a streaming
// verifier pays: one full-domain hash (five one-block SHA-256s at
// RSA-1024) folded into the expected product.
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
