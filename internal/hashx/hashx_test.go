package hashx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSizeClamps(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 8}, {7, 8}, {8, 8}, {16, 16}, {32, 32}, {33, 32}, {100, 32},
	}
	for _, c := range cases {
		if got := NewSize(c.in).Size(); got != c.want {
			t.Errorf("NewSize(%d).Size() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDefaultSize(t *testing.T) {
	h := New()
	if h.Size() != DefaultSize {
		t.Fatalf("default size = %d, want %d", h.Size(), DefaultSize)
	}
	if len(h.Hash([]byte("x"))) != DefaultSize {
		t.Fatalf("digest length != %d", DefaultSize)
	}
}

func TestDigestEqualAndClone(t *testing.T) {
	h := New()
	a := h.Hash([]byte("a"))
	b := h.Hash([]byte("a"))
	c := h.Hash([]byte("b"))
	if !a.Equal(b) {
		t.Error("identical inputs must produce equal digests")
	}
	if a.Equal(c) {
		t.Error("different inputs must not produce equal digests")
	}
	if a.Equal(a[:8]) {
		t.Error("length mismatch must compare unequal")
	}
	cl := a.Clone()
	if !cl.Equal(a) {
		t.Error("clone must equal original")
	}
	cl[0] ^= 0xff
	if cl.Equal(a) {
		t.Error("mutating clone must not affect original")
	}
}

func TestDomainSeparation(t *testing.T) {
	h := New()
	m := []byte("same input")
	digests := []Digest{
		h.Hash(m), h.Leaf(m), h.First(m), h.GDigest(m), h.CDigest(m, nil),
	}
	for i := range digests {
		for j := i + 1; j < len(digests); j++ {
			if digests[i].Equal(digests[j]) {
				t.Errorf("tagged digests %d and %d collide", i, j)
			}
		}
	}
}

func TestNodeOrderMatters(t *testing.T) {
	h := New()
	a, b := h.Leaf([]byte("a")), h.Leaf([]byte("b"))
	if h.Node(a, b).Equal(h.Node(b, a)) {
		t.Error("Node must not be commutative")
	}
}

func TestIterateComposition(t *testing.T) {
	// h^{a+b}(m) == IterateFrom(h^a(m), b): the composition property the
	// user relies on when extending the publisher's intermediate digest.
	h := New()
	f := func(seed uint32, a8, b8 uint8) bool {
		m := U64(uint64(seed))
		a, b := uint64(a8%50), uint64(b8%50)
		full := h.Iterate(m, a+b)
		split := h.IterateFrom(h.Iterate(m, a), b)
		return full.Equal(split)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIterateZero(t *testing.T) {
	h := New()
	m := []byte("m")
	if !h.Iterate(m, 0).Equal(h.First(m)) {
		t.Error("h^0 must equal First")
	}
}

func TestIterateDistinctSteps(t *testing.T) {
	// Successive chain values must all differ (no short cycles in practice).
	h := New()
	m := []byte("chain")
	seen := map[string]bool{}
	d := h.First(m)
	for i := 0; i < 1000; i++ {
		k := string(d)
		if seen[k] {
			t.Fatalf("chain cycled at step %d", i)
		}
		seen[k] = true
		d = h.Next(d)
	}
}

func TestOpsCounting(t *testing.T) {
	h := New()
	h.ResetOps()
	h.Iterate([]byte("m"), 9) // First + 9 Next = 10 ops
	if got := h.Ops(); got != 10 {
		t.Errorf("Ops() = %d, want 10", got)
	}
	h.ResetOps()
	if h.Ops() != 0 {
		t.Error("ResetOps must zero the counter")
	}
}

func TestSigDigestBindsAllThree(t *testing.T) {
	h := New()
	g1, g2, g3 := h.Hash([]byte("1")), h.Hash([]byte("2")), h.Hash([]byte("3"))
	base := h.SigDigest(g1, g2, g3)
	if base.Equal(h.SigDigest(g3, g2, g1)) {
		t.Error("SigDigest must depend on order")
	}
	if base.Equal(h.SigDigest(g1, g1, g3)) {
		t.Error("SigDigest must depend on middle digest")
	}
}

func TestU64Encoding(t *testing.T) {
	if !bytes.Equal(U64(1), []byte{0, 0, 0, 0, 0, 0, 0, 1}) {
		t.Error("U64 must be big-endian")
	}
	if len(U64Pair(1, 2)) != 16 {
		t.Error("U64Pair must be 16 bytes")
	}
	if bytes.Equal(U64Pair(1, 2), U64Pair(2, 1)) {
		t.Error("U64Pair must distinguish order")
	}
}

func TestDifferentSizesDiffer(t *testing.T) {
	h16, h32 := NewSize(16), NewSize(32)
	m := []byte("m")
	a, b := h16.Hash(m), h32.Hash(m)
	if len(a) == len(b) {
		t.Fatal("sizes should differ")
	}
	if !a.Equal(Digest(b[:16])) {
		t.Error("truncation should be a prefix of the wider digest")
	}
}

func TestConcurrentHashing(t *testing.T) {
	// The hasher is shared across publisher goroutines; digests must be
	// deterministic and the ops counter race-free.
	h := New()
	const goroutines, per = 8, 200
	want := h.Hash([]byte("probe"))
	done := make(chan bool, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			ok := true
			for i := 0; i < per; i++ {
				if !h.Hash([]byte("probe")).Equal(want) {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < goroutines; g++ {
		if !<-done {
			t.Fatal("concurrent hashing produced a different digest")
		}
	}
	if h.Ops() < goroutines*per {
		t.Fatalf("ops counter lost updates: %d", h.Ops())
	}
}

func BenchmarkHashOp(b *testing.B) {
	h := New()
	m := U64Pair(12345, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.First(m)
	}
}

// sum is the kernel's digest of tag‖parts at full width, on a Batch of
// one.
func sum(tag byte, parts ...[]byte) (out [sha256.Size]byte) {
	b := NewSize(MaxSize).Batch()
	defer b.Done()
	copy(out[:], b.hash(nil, tag, parts...))
	return out
}

// TestSumEqualsOneShotSHA256: the primitive is SHA-256 over tag|msg
// whatever way the input is split into parts, across the edges that
// matter — 55/56 bytes (one padded block's limit, where the kernel pads
// into two), 119/120 (two padded blocks' limit, where a message passes
// through the blocks before its tail is padded) and the 64- and 128-byte
// block edges. Every total length 0..128 is hashed for every tag, as one
// part and as random splits.
func TestSumEqualsOneShotSHA256(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(tag byte, msg []byte, parts [][]byte) {
		t.Helper()
		if sum(tag, parts...) != sha256.Sum256(append([]byte{tag}, msg...)) {
			t.Fatalf("tag %d, %d bytes in %d parts: digest differs from SHA-256(tag|msg)", tag, len(msg), len(parts))
		}
	}
	for tag := byte(0); tag <= tagMisc; tag++ {
		for total := 0; total <= 2*sha256.BlockSize; total++ {
			msg := make([]byte, total)
			rng.Read(msg)
			check(tag, msg, [][]byte{msg})
			check(tag, msg, split(rng, msg))
		}
	}
	lengths := []int{0, 1, 53, 54, 55, 56, 57, 62, 63, 64, 65, 118, 119, 120, 127, 128, 529}
	for trial := 0; trial < 2000; trial++ {
		total := lengths[trial%len(lengths)]
		if trial >= 1000 {
			total = rng.Intn(260)
		}
		msg := make([]byte, total)
		rng.Read(msg)
		check(byte(rng.Intn(8)), msg, split(rng, msg))
	}
}

// split cuts msg into random consecutive parts, empty ones included.
func split(rng *rand.Rand, msg []byte) [][]byte {
	var parts [][]byte
	for rest := msg; ; {
		cut := rng.Intn(len(rest) + 1)
		parts = append(parts, rest[:cut])
		if rest = rest[cut:]; len(rest) == 0 {
			return parts
		}
	}
}

// TestMGF1MatchesStdlib: the one-kernel expansion equals the stdlib's
// SHA-256(seed‖counter) loop for every seed length up to maxSeed and for
// lengths that end inside, on and just past a 32-byte block.
func TestMGF1MatchesStdlib(t *testing.T) {
	seed := make([]byte, maxSeed)
	rand.New(rand.NewSource(9)).Read(seed)
	for s := 0; s <= maxSeed; s++ {
		for _, n := range []int{0, 1, 31, 32, 33, 136, 264, 520} {
			if got, want := MGF1([]byte("keep"), seed[:s], n), append([]byte("keep"), mgf1Ref(seed[:s], n)...); !bytes.Equal(got, want) {
				t.Fatalf("MGF1 of a %d-byte seed to %d bytes differs from the stdlib loop", s, n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MGF1 accepted a seed that leaves no room for its counter")
		}
	}()
	MGF1(nil, make([]byte, maxSeed+1), 32)
}

// mgf1Ref is MGF1-SHA256 straight from the stdlib: one sha256.Sum256 of
// seed‖counter per 32 bytes.
func mgf1Ref(seed []byte, n int) []byte {
	var out []byte
	for c := uint32(0); len(out) < n; c++ {
		sum := sha256.Sum256(binary.BigEndian.AppendUint32(append([]byte(nil), seed...), c))
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// TestChainMatchesNextLoop: a chain on one kernel, which rewrites only
// the digest bytes of its block between compressions, equals i separate
// Next calls at every width — and so does a chain started from a digest
// of a foreign width, whose first step is hashed at its own length.
func TestChainMatchesNextLoop(t *testing.T) {
	for _, size := range []int{8, 16, 32} {
		h := NewSize(size)
		m := U64Pair(42, 5)
		first := h.First(m)
		foreign := [][]byte{bytes.Repeat([]byte{7}, size+3), bytes.Repeat([]byte{9}, 60)}
		for _, i := range []uint64{1, 2, 7, 64} {
			b := h.Batch()
			want := first
			for range i {
				want = h.Next(want)
			}
			if got := b.Iterate([]byte("keep"), m, i); !bytes.Equal(got, append([]byte("keep"), want...)) {
				t.Errorf("size %d: Iterate(m, %d) differs from First and %d Next", size, i, i)
			}
			if got := b.IterateFrom(nil, first, i); !bytes.Equal(got, want) {
				t.Errorf("size %d: IterateFrom(d, %d) differs from %d Next", size, i, i)
			}
			for _, d := range foreign {
				want := Digest(d)
				for range i {
					want = h.Next(want)
				}
				if got := b.IterateFrom(nil, d, i); !bytes.Equal(got, want) {
					t.Errorf("size %d: IterateFrom(%d-byte digest, %d) differs from %d Next", size, len(d), i, i)
				}
			}
			b.Done()
		}
	}
}

// TestKernelConcurrent: Batches on many goroutines draw kernels from one
// pool; every chain they hash matches the serial result (run with -race).
func TestKernelConcurrent(t *testing.T) {
	h := New()
	const goroutines, keys = 8, 64
	serial := make([][]byte, keys)
	for k := range serial {
		serial[k] = h.IterateFrom(h.Iterate(U64(uint64(k)), uint64(k%17)), 5)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := h.Batch()
			defer b.Done()
			var buf [2 * MaxSize]byte
			for r := 0; r < 20; r++ {
				for k := range keys {
					k = (k + g) % keys
					d := b.Iterate(buf[:0], U64(uint64(k)), uint64(k%17))
					if got := b.IterateFrom(d, d, 5)[len(d):]; !bytes.Equal(got, serial[k]) {
						t.Errorf("goroutine %d key %d: chain differs from the serial one", g, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSum: the kernel agrees with the stdlib for any tag, message and
// split point, on a Batch of one and on one held kernel across a run of
// hashes of different lengths (the message, its tail, the message again:
// whatever the blocks held last must not leak into the next digest); and
// MGF1 expands any seed that fits (the message's first maxSeed bytes) to
// any length up to it (the split point) exactly as the stdlib loop does,
// standalone and on the held kernel. The seeds sit on the one- and
// two-block padding edges (55/56 and 119/120 bytes tagged) and beyond.
func FuzzSum(f *testing.F) {
	f.Add(tagIter, make([]byte, 16), 8)
	f.Add(tagMisc, make([]byte, 54), 0)
	f.Add(tagSig, make([]byte, 55), 55)
	f.Add(tagLeaf, make([]byte, 66), 30)
	f.Add(tagG, make([]byte, 118), 60)
	f.Add(tagNode, make([]byte, 119), 119)
	f.Add(tagC, make([]byte, 126), 1)
	f.Add(tagFirst, make([]byte, 127), 64)
	f.Add(tagFirst, make([]byte, 129), 64)
	f.Add(tagMisc, make([]byte, 300), 250)
	h := NewSize(MaxSize)
	f.Fuzz(func(t *testing.T, tag byte, msg []byte, cut int) {
		cut = int(uint(cut) % uint(len(msg)+1))
		want := sha256.Sum256(append([]byte{tag}, msg...))
		if sum(tag, msg[:cut], msg[cut:]) != want {
			t.Fatalf("sum(tag %d, %d+%d bytes) differs from SHA-256(tag|msg)", tag, cut, len(msg)-cut)
		}
		b := h.Batch()
		defer b.Done()
		var buf [3 * MaxSize]byte
		out := b.hash(buf[:0], tag, msg[:cut], msg[cut:])
		out = b.hash(out, tag, msg[cut:])
		out = b.hash(out, tag, msg)
		tail := sha256.Sum256(append([]byte{tag}, msg[cut:]...))
		if !bytes.Equal(out, slices.Concat(want[:], tail[:], want[:])) {
			t.Fatalf("held kernel over %d, %d and %d bytes (tag %d) differs from SHA-256(tag|msg)", len(msg), len(msg)-cut, len(msg), tag)
		}
		seed := msg[:min(len(msg), maxSeed)]
		if !bytes.Equal(MGF1(nil, seed, cut), mgf1Ref(seed, cut)) {
			t.Fatalf("MGF1 of a %d-byte seed to %d bytes differs from the stdlib loop", len(seed), cut)
		}
		if !bytes.Equal(b.MGF1(nil, seed, cut), mgf1Ref(seed, cut)) {
			t.Fatalf("Batch.MGF1 of a %d-byte seed to %d bytes differs from the stdlib loop", len(seed), cut)
		}
	})
}

// FuzzChain: a whole chain in one call, Chain(m, top), lays out exactly
// the digests Iterate(m, 0) followed by top one-step IterateFrom calls
// appends, at every width, and counts the same operations.
func FuzzChain(f *testing.F) {
	f.Add(U64Pair(42, 5), uint8(0), uint8(16))
	f.Add(U64Pair(7, 1), uint8(17), uint8(8))
	f.Add(make([]byte, 54), uint8(3), uint8(32))
	f.Add(make([]byte, 200), uint8(5), uint8(16))
	f.Fuzz(func(t *testing.T, m []byte, top, width uint8) {
		h := NewSize(int(width))
		b := h.Batch()
		want := b.Iterate([]byte("keep"), m, 0)
		for range top {
			want = b.IterateFrom(want, want[len(want)-h.Size():], 1)
		}
		b.Done()
		steps := h.Ops()
		h.ResetOps()
		got := b.Chain([]byte("keep"), m, uint64(top))
		b.Done()
		if !bytes.Equal(got, want) {
			t.Fatalf("Chain(%d-byte m, %d) at width %d differs from step-by-step IterateFrom", len(m), top, h.Size())
		}
		if h.Ops() != steps {
			t.Fatalf("Chain counted %d ops, the steps %d", h.Ops(), steps)
		}
	})
}

// TestBatchesOnOneHasher: Batches on many goroutines, each holding its
// own kernel across one-block, two-block and streamed messages, chains
// and MGF1 expansions, hash what one goroutine alone does; the Hasher's
// count loses nothing (run with -race).
func TestBatchesOnOneHasher(t *testing.T) {
	h := New()
	msgs := [][]byte{U64Pair(1, 2), make([]byte, 66), make([]byte, 200)}
	rand.New(rand.NewSource(3)).Read(msgs[2])
	burst := func(b *Batch, dst []byte) []byte {
		for _, m := range msgs {
			dst = b.Leaf(dst, m)
			dst = b.Chain(dst, m, 5)
			dst = b.MGF1(dst, dst[len(dst)-h.Size():], 40)
		}
		return dst
	}
	b := h.Batch()
	want := burst(&b, nil)
	b.Done()
	perBurst := h.Ops()
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := h.Batch()
			defer b.Done()
			var buf [512]byte
			for r := 0; r < rounds; r++ {
				if got := burst(&b, buf[:0]); !bytes.Equal(got, want) {
					t.Errorf("goroutine %d round %d: burst differs from the serial one", g, r)
					return
				}
				if r%7 == 0 {
					b.Done() // a fresh kernel for the next burst
				}
			}
		}()
	}
	wg.Wait()
	if got, want := h.Ops(), perBurst*(1+goroutines*rounds); got != want {
		t.Fatalf("Ops() = %d after concurrent Batches, want %d", got, want)
	}
}

// TestVetRefusesCopiedBatch: go vet's copylocks check reports a copied
// Batch, the one way two owners could share a held kernel — so `make
// vet` keeps it out of the tree.
func TestVetRefusesCopiedBatch(t *testing.T) {
	out, err := exec.Command("go", "vet", "./testdata/copiedbatch").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "copies lock value") {
		t.Fatalf("go vet on a copied Batch: %v\n%s", err, out)
	}
}

// BenchmarkChain is the chain step the verifier spends most of a row on:
// a 64-step IterateFrom of a 16-byte digest, reported per compression.
func BenchmarkChain(b *testing.B) {
	h := New()
	d := h.First(U64Pair(12345, 7))
	var buf [MaxSize]byte
	bt := h.Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.IterateFrom(buf[:0], d, 64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/compression")
	bt.Done()
}

// TestBatchMatchesHasher: the in-place kernel produces the Hasher's
// digests at every width, and appends rather than overwrites.
func TestBatchMatchesHasher(t *testing.T) {
	for _, size := range []int{8, 16, 32} {
		h := NewSize(size)
		b := h.Batch()
		m := U64Pair(99, 3)
		l, r := h.Hash([]byte("l")), h.Hash([]byte("r"))
		long := bytes.Repeat([]byte("x"), 600)
		prefix := []byte("keep")
		for name, pair := range map[string][2][]byte{
			"hash":         {b.Hash(prefix, l, long, r), h.Hash(l, long, r)},
			"leaf":         {b.Leaf(prefix, long), h.Leaf(long)},
			"node":         {b.Node(prefix, l, r), h.Node(l, r)},
			"g":            {b.GDigest(prefix, []byte{1}, l, r), h.GDigest([]byte{1}, l, r)},
			"sig":          {b.SigDigest(prefix, l, r, l), h.SigDigest(l, r, l)},
			"first":        {b.Iterate(prefix, m, 0), h.First(m)},
			"iterate":      {b.Iterate(prefix, m, 5), h.Iterate(m, 5)},
			"next":         {b.IterateFrom(prefix, l, 1), h.Next(l)},
			"iterate-from": {b.IterateFrom(prefix, l, 4), h.IterateFrom(l, 4)},
			"iterate-zero": {b.IterateFrom(prefix, l, 0), l},
		} {
			if !bytes.Equal(pair[0], append([]byte("keep"), pair[1]...)) {
				t.Errorf("size %d: Batch %s differs from Hasher", size, name)
			}
		}
		// Node may write over its own children (the in-place tree fold).
		buf := append(append([]byte(nil), l...), r...)
		if got := b.Node(buf[:0], buf[:size], buf[size:]); !bytes.Equal(got, h.Node(l, r)) {
			t.Errorf("size %d: Node over its own children differs", size)
		}
	}
}

// TestBatchAllocatesNothing: First, Next and the rest of the kernel —
// the verifier's g and signed digests among it, two-block messages, a
// whole chain and an MGF1 expansion — into a caller buffer leave no
// garbage. Allocation counts repeat exactly, so
// this is the regression gate timings cannot be on a shared box.
func TestBatchAllocatesNothing(t *testing.T) {
	h := New()
	m := U64Pair(12345, 7)
	long := make([]byte, 529)
	var buf [8 * MaxSize]byte
	allocs := testing.AllocsPerRun(100, func() {
		b := h.Batch()
		out := b.Iterate(buf[:0], m, 0)        // First
		out = b.IterateFrom(out, out[:16], 1)  // Next
		out = b.Iterate(out, U64Pair(1, 2), 3) // a digit chain
		out = b.Node(out[:0], out[:16], out[16:32])
		out = b.Leaf(out, long)
		out = b.GDigest(out[:0], m, out[:16])
		out = b.SigDigest(out, out[:16], out[:16], out[:16])
		out = b.Hash(out, long, m)
		out = b.Leaf(out[:0], long[:66])         // two blocks
		out = b.Chain(out[:0], U64Pair(3, 4), 7) // a whole digit chain
		b.MGF1(out[:0], long[:40], 136)
		b.Done()
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("kernel into a caller buffer: %v allocs/op, want 0", allocs)
	}
}

// TestOpsExactUnderBatching: batching the counter keeps totals exact —
// Iterate adds i+1, a Batch adds its count once at Done, and concurrent
// use loses nothing.
func TestOpsExactUnderBatching(t *testing.T) {
	h := New()
	b := h.Batch()
	var buf [MaxSize]byte
	b.Iterate(buf[:0], []byte("m"), 9) // 10
	b.IterateFrom(buf[:0], buf[:16], 4)
	b.Hash(buf[:0], []byte("x"))
	b.Const(NewSize(MaxSize).Hash([]byte("c")))
	b.Const(NewSize(MaxSize).Hash([]byte("c")))
	if h.Ops() != 0 {
		t.Fatalf("Ops() = %d before Done, want 0", h.Ops())
	}
	b.Done()
	b.Done() // idempotent: the count was handed over
	if got := h.Ops(); got != 17 {
		t.Fatalf("Ops() = %d, want 17", got)
	}
	h.ResetOps()
	const goroutines, per = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Iterate([]byte("m"), 2) // 3
				h.Hash([]byte("p"))       // 1
				b := h.Batch()
				var buf [MaxSize]byte
				b.Iterate(buf[:0], []byte("m"), 5) // 6
				b.Done()
			}
		}()
	}
	wg.Wait()
	if got, want := h.Ops(), uint64(goroutines*per*10); got != want {
		t.Fatalf("Ops() = %d after concurrent use, want exactly %d", got, want)
	}
}

// TestPrefixMatchesHash: each Sum of a Prefix is Hash over the shared
// part written so far followed by its suffix, at every width and across
// block boundaries; every Sum counts one operation and Write none, and a
// run of sums into a caller buffer allocates nothing.
func TestPrefixMatchesHash(t *testing.T) {
	parts := [][]byte{nil, []byte("a"), bytes.Repeat([]byte("b"), 54), bytes.Repeat([]byte("c"), 64), bytes.Repeat([]byte("d"), 600)}
	for _, size := range []int{8, 16, 32} {
		h := NewSize(size)
		pre := h.Prefix()
		var shared []byte
		for _, p := range parts {
			pre.Write(p)
			shared = append(shared, p...)
			for _, s := range parts {
				got := pre.Sum([]byte("keep"), s, p)
				if want := h.Hash(shared, s, p); !bytes.Equal(got, append([]byte("keep"), want...)) {
					t.Fatalf("size %d: Sum after %d shared bytes, suffix %d+%d bytes, differs from Hash", size, len(shared), len(s), len(p))
				}
			}
		}
		h.ResetOps()
		pre.Done()
		if got, want := h.Ops(), uint64(len(parts)*len(parts)); got != want {
			t.Fatalf("size %d: a Prefix counted %d ops, want one per Sum, %d", size, got, want)
		}
	}
	h := New()
	long := bytes.Repeat([]byte("x"), 529)
	var buf [4 * MaxSize]byte
	allocs := testing.AllocsPerRun(100, func() {
		pre := h.Prefix()
		pre.Write(long[:100])
		out := pre.Sum(buf[:0], long[100:], long[:3])
		pre.Write(long)
		pre.Sum(out, long[200:])
		pre.Done()
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a Prefix into a caller buffer: %v allocs/op, want 0", allocs)
	}
}
