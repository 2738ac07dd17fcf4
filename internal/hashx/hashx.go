// Package hashx provides the one-way hash substrate for the completeness
// verification scheme: a configurable-width collision-resistant hash, the
// iterated hash h^i used for the boundary chains of Pang et al. (SIGMOD
// 2005), domain-separated convenience helpers, and an operation counter so
// experiments can report costs in units of Chash (Table 1 of the paper).
//
// The paper requires the iterated hash to satisfy two properties:
//
//  1. h^i is undefined (computationally infeasible) for i < 0. We guarantee
//     h^{-1}(r) != r by making the digest length differ from the pre-image
//     length and by domain-separating the first application (tag hashFirst)
//     from subsequent ones (tag hashIter).
//  2. h is one-way, so intermediate digests do not leak the boundary key.
//
// SHA-256 provides both; digests are truncated to Size bytes (default 16,
// matching the paper's Mdigest = 128 bits so that byte counts reproduce
// formula (4)).
package hashx

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"
)

// DefaultSize is the default digest width in bytes. 16 bytes = 128 bits,
// the Mdigest value used throughout the paper's cost analysis.
const DefaultSize = 16

// MaxSize is the widest digest supported (full SHA-256 output).
const MaxSize = sha256.Size

// Domain-separation tags. Every hash application is prefixed by exactly one
// tag, so digests from different roles can never collide structurally.
const (
	tagFirst byte = 0x01 // first application of the iterated hash, h^0
	tagIter  byte = 0x02 // subsequent applications, h^{i+1} = h(h^i)
	tagLeaf  byte = 0x03 // Merkle tree leaf
	tagNode  byte = 0x04 // Merkle tree interior node
	tagG     byte = 0x05 // record digest g(r), formula (3)
	tagSig   byte = 0x06 // pre-signature digest, formula (1)
	tagMisc  byte = 0x07 // application-defined digests
	tagC     byte = 0x08 // chain digest C = h(up | down), record format 2
)

// Digest is a truncated SHA-256 digest. The slice is always exactly the
// Hasher's Size() bytes long.
type Digest []byte

// Clone returns an independent copy of d.
func (d Digest) Clone() Digest { return append(Digest(nil), d...) }

// Equal reports whether two digests are byte-wise identical.
func (d Digest) Equal(o Digest) bool { return bytes.Equal(d, o) }

// Hasher computes tagged, truncated SHA-256 digests and counts how many
// primitive hash operations it has performed. All methods are safe for
// concurrent use; the counter is atomic.
//
// The zero value is not usable; construct with New or NewSize.
type Hasher struct {
	size int
	ops  atomic.Uint64
}

// New returns a Hasher producing DefaultSize-byte digests.
func New() *Hasher { return NewSize(DefaultSize) }

// NewSize returns a Hasher producing size-byte digests. size is clamped to
// [8, MaxSize]: fewer than 8 bytes would be trivially forgeable, more than
// 32 exceeds SHA-256 output.
func NewSize(size int) *Hasher {
	if size < 8 {
		size = 8
	}
	if size > MaxSize {
		size = MaxSize
	}
	return &Hasher{size: size}
}

// Size returns the digest width in bytes.
func (h *Hasher) Size() int { return h.size }

// Ops returns the number of primitive hash operations performed so far.
// Experiments use this to report costs in units of Chash.
func (h *Hasher) Ops() uint64 { return h.ops.Load() }

// ResetOps zeroes the operation counter.
func (h *Hasher) ResetOps() { h.ops.Store(0) }

// MGF1 appends n bytes of the MGF1-SHA256 expansion of seed to dst:
// SHA-256(seed‖0) ‖ SHA-256(seed‖1) ‖ …, each counter 4 bytes big-endian,
// truncated to n, on a pooled kernel held for the call; Batch.MGF1 runs
// it on a Batch's held kernel. seed must leave room for the counter in
// one block (at most maxSeed bytes); sig's full-domain hash, the only
// caller, expands a tag and one digest. It is not a scheme hash and no
// Hasher counts it.
func MGF1(dst, seed []byte, n int) []byte {
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	return k.mgf1(dst, seed, n)
}

// maxSeed is the longest seed MGF1 expands: one block less its counter.
const maxSeed = oneBlock - 4

// oneBlock and twoBlocks are the longest messages one and two SHA-256
// blocks hold once padded: less the 0x80 pad byte and the 8-byte bit
// length.
const (
	oneBlock  = sha256.BlockSize - 9
	twoBlocks = 2*sha256.BlockSize - 9
)

// kernel is one reusable SHA-256 state and the two blocks it compresses.
// A message is laid out pre-padded — msg‖0x80‖0…‖bit length — in one
// block or two, so one Write of whole blocks runs the block function in
// place with no buffering, and after the final block the chaining value
// the state marshals *is* the digest: no padding writes, no copy of the
// state, no Sum. A longer message passes through the blocks two at a
// time and pads its tail the same way. Kernels are pooled; a Batch holds
// one from its first hash until Done (a per-call state would escape
// through the type assertion).
type kernel struct {
	st    state
	block [2 * sha256.BlockSize]byte
	buf   [marshaled]byte
}

// state is crypto/sha256's hash state with the marshaling the kernel
// reads it back through and a Prefix forks it by.
type state interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// crypto/sha256 marshals a SHA-256 state as magic, the eight chaining
// words big-endian, the buffered block and the length.
const (
	magic     = "sha\x03"
	marshaled = len(magic) + sha256.Size + sha256.BlockSize + 8
)

var kernels = sync.Pool{New: func() any { return &kernel{st: sha256.New().(state)} }}

// init refuses to start on a toolchain whose state the kernel cannot read
// (a state without AppendBinary or UnmarshalBinary fails its assertion,
// naming the method), so a changed layout fails loudly instead of
// mis-hashing. The probes hash one block and two ("abc" is tag 'a' and
// message "bc").
func init() {
	st, _ := sha256.New().(state).AppendBinary(nil)
	k := kernels.Get().(*kernel)
	defer kernels.Put(k)
	long := bytes.Repeat([]byte("abc"), 33)
	switch {
	case len(st) != marshaled || string(st[:len(magic)]) != magic:
		panic("hashx: crypto/sha256 marshaled state layout changed")
	case [sha256.Size]byte(k.sum('a', []byte("bc"))) != sha256.Sum256([]byte("abc")),
		[sha256.Size]byte(k.sum('a', long[1:])) != sha256.Sum256(long):
		panic("hashx: kernel digest differs from sha256.Sum256")
	}
}

// sum hashes tag‖parts and returns the full digest, which aliases the
// kernel until its next compression. The message fills the blocks, every
// full pair of them is compressed as it fills, and the tail is padded
// into one block or two.
func (k *kernel) sum(tag byte, parts ...[]byte) []byte {
	k.st.Reset()
	k.block[0] = tag
	at, n := 1, 1
	for _, p := range parts {
		n += len(p)
		for len(p) > 0 {
			c := copy(k.block[at:], p)
			if at, p = at+c, p[c:]; at == len(k.block) {
				k.st.Write(k.block[:])
				at = 0
			}
		}
	}
	if at > twoBlocks {
		// No room left for the padding: compress the first block and
		// pad the rest of the tail into two.
		k.st.Write(k.block[:sha256.BlockSize])
		at = copy(k.block[:], k.block[sha256.BlockSize:at])
	}
	return k.finish(k.pad(at, n))
}

// pad ends a message of n bytes, the last at of them laid out in the
// blocks, with its padding, and returns the length of the padded tail:
// one block or two.
func (k *kernel) pad(at, n int) int {
	end := sha256.BlockSize
	if at > oneBlock {
		end = len(k.block)
	}
	k.block[at] = 0x80
	clear(k.block[at+1 : end-8])
	binary.BigEndian.PutUint64(k.block[end-8:end], uint64(n)<<3)
	return end
}

// finish compresses the first end bytes of the blocks, whole blocks, and
// returns the full digest, which aliases the kernel until its next
// compression. A hash's Write and sha256's AppendBinary never return an
// error.
func (k *kernel) finish(end int) []byte {
	k.st.Write(k.block[:end])
	st, _ := k.st.AppendBinary(k.buf[:0])
	return st[len(magic) : len(magic)+sha256.Size]
}

// mgf1 is MGF1's expansion on k. Every block is one compression of the
// same laid-out block; only the counter bytes change between them.
func (k *kernel) mgf1(dst, seed []byte, n int) []byte {
	if len(seed) > maxSeed {
		panic("hashx: MGF1 seed longer than one block holds")
	}
	at := copy(k.block[:], seed)
	end := k.pad(at+4, at+4)
	for c := uint32(0); n > 0; c++ {
		binary.BigEndian.PutUint32(k.block[at:], c)
		k.st.Reset()
		d := k.finish(end)
		m := min(n, len(d))
		dst = append(dst, d[:m]...)
		n -= m
	}
	return dst
}

// chain runs i applications of Next beyond d, a digest of at most
// MaxSize bytes, and appends to dst the last digest — or, when all is
// set, every one of them in order. Only the digest bytes of the block change between
// compressions. d may alias the kernel: it is laid out before the first
// compression.
func (k *kernel) chain(dst, d []byte, i uint64, all bool) []byte {
	k.block[0] = tagIter
	at := 1 + copy(k.block[1:], d)
	end := k.pad(at, at)
	for ; i > 0; i-- {
		k.st.Reset()
		copy(k.block[1:at], k.finish(end))
		if all {
			dst = append(dst, k.block[1:at]...)
		}
	}
	if all {
		return dst
	}
	return append(dst, k.block[1:at]...)
}

// hash counts one operation and returns the digest in fresh storage, on
// a Batch of one.
func (h *Hasher) hash(tag byte, parts ...[]byte) Digest {
	b := h.Batch()
	defer b.Done()
	return b.hash(nil, tag, parts...)
}

// Hash computes a general-purpose digest over the concatenation of parts.
func (h *Hasher) Hash(parts ...[]byte) Digest { return h.hash(tagMisc, parts...) }

// Leaf computes a Merkle-tree leaf digest.
func (h *Hasher) Leaf(data []byte) Digest { return h.hash(tagLeaf, data) }

// Node computes a Merkle-tree interior-node digest from two children.
func (h *Hasher) Node(left, right Digest) Digest { return h.hash(tagNode, left, right) }

// GDigest computes the record digest g(r) from its components (formula (3)
// of the paper, with the concatenation hashed down to a fixed width).
func (h *Hasher) GDigest(parts ...[]byte) Digest { return h.hash(tagG, parts...) }

// CDigest computes a record's chain digest C from its two combined
// per-direction chain digests: the one chain digest g(r) folds and a VO
// entry ships (record format 2).
func (h *Hasher) CDigest(up, down Digest) Digest { return h.hash(tagC, up, down) }

// SigDigest computes the digest that is signed for a record: the hash of
// g(r_{i-1}) | g(r_i) | g(r_{i+1}) per formula (1).
func (h *Hasher) SigDigest(prev, cur, next Digest) Digest {
	return h.hash(tagSig, prev, cur, next)
}

// First computes h^0(m): the first application of the iterated hash.
// Domain separation (tagFirst vs tagIter) plus the width difference between
// pre-image and digest guarantee the chain cannot be run backwards into the
// pre-image space.
func (h *Hasher) First(m []byte) Digest { return h.hash(tagFirst, m) }

// Next computes one further iteration: h^{i+1}(m) = h(h^i(m)).
func (h *Hasher) Next(d Digest) Digest { return h.hash(tagIter, d) }

// Iterate computes h^i(m): First(m) followed by i applications of Next.
// i must be >= 0; the scheme's security rests on h^i being undefined for
// negative i, so a negative argument panics rather than silently wrapping.
func (h *Hasher) Iterate(m []byte, i uint64) Digest {
	b := h.Batch()
	defer b.Done()
	return b.Iterate(nil, m, i)
}

// IterateFrom applies Next i times to an existing chain digest. This is the
// user-side operation of the scheme: hash the publisher's intermediate
// digest (U - alpha) more times.
func (h *Hasher) IterateFrom(d Digest, i uint64) Digest {
	b := h.Batch()
	defer b.Done()
	return b.IterateFrom(nil, d, i)
}

// Batch is one goroutine's burst of hashing on behalf of a Hasher — the
// kernel the per-row verification and signing paths run on. It computes
// the same digests, appends them to caller storage (a stack array hashes
// garbage-free) and counts operations locally; Done adds the count to the
// Hasher in one atomic step, because one atomic add per hash on a Hasher
// shared by every client goroutine is a contended cache line that costs
// as much as the hash. It holds one pooled kernel from its first hash
// until Done, so a burst pays one pool round trip, not one per hash. A
// Batch must not be shared between goroutines, nor copied: a copy would
// hand its kernel to a second owner, and go vet's copylocks check
// refuses one.
type Batch struct {
	_ noCopy
	h *Hasher
	k *kernel
	n uint64
}

// noCopy makes go vet report a copied Batch; it holds no lock.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Batch starts a burst; pair it with Done.
func (h *Hasher) Batch() Batch { return Batch{h: h} }

// Done adds the burst's operation count to the Hasher's counter and
// returns the held kernel to the pool. The Batch may hash again after
// it, as a new burst.
func (b *Batch) Done() {
	b.h.ops.Add(b.n)
	b.n = 0
	if b.k != nil {
		kernels.Put(b.k)
		b.k = nil
	}
}

// kernel returns the Batch's kernel, taking one from the pool on the
// burst's first hash.
func (b *Batch) kernel() *kernel {
	if b.k == nil {
		b.k = kernels.Get().(*kernel)
	}
	return b.k
}

// Size returns the digest width in bytes.
func (b *Batch) Size() int { return b.h.size }

// Const returns the Batch-width form of a constant digest precomputed at
// MaxSize width (truncation makes it the prefix), counted as the one hash
// application it stands for so Ops keeps its meaning. The result is
// shared: callers must not write to it.
func (b *Batch) Const(wide Digest) Digest {
	b.n++
	return wide[:b.h.size:b.h.size]
}

func (b *Batch) hash(dst []byte, tag byte, parts ...[]byte) []byte {
	b.n++
	return append(dst, b.kernel().sum(tag, parts...)[:b.h.size]...)
}

// Hash appends Hasher.Hash(parts...) to dst.
func (b *Batch) Hash(dst []byte, parts ...[]byte) []byte { return b.hash(dst, tagMisc, parts...) }

// Leaf appends Hasher.Leaf(data) to dst.
func (b *Batch) Leaf(dst, data []byte) []byte { return b.hash(dst, tagLeaf, data) }

// Node appends Hasher.Node(left, right) to dst. dst may overlap the
// children: they are consumed before the digest is written.
func (b *Batch) Node(dst []byte, left, right Digest) []byte {
	return b.hash(dst, tagNode, left, right)
}

// GDigest appends Hasher.GDigest(parts...) to dst.
func (b *Batch) GDigest(dst []byte, parts ...[]byte) []byte { return b.hash(dst, tagG, parts...) }

// SigDigest appends Hasher.SigDigest(prev, cur, next) to dst.
func (b *Batch) SigDigest(dst []byte, prev, cur, next Digest) []byte {
	return b.hash(dst, tagSig, prev, cur, next)
}

// Iterate appends h^i(m) to dst: First(m) followed by i applications of
// Next.
func (b *Batch) Iterate(dst, m []byte, i uint64) []byte {
	b.n += 1 + i
	k := b.kernel()
	return k.chain(dst, k.sum(tagFirst, m)[:b.h.size], i, false)
}

// Chain appends the whole chain h^0(m), h^1(m), …, h^top(m) to dst, top+1
// digests laid end to end: what Iterate(m, 0) and top IterateFrom(…, 1)
// steps append, in one call.
func (b *Batch) Chain(dst, m []byte, top uint64) []byte {
	b.n += 1 + top
	k := b.kernel()
	dst = append(dst, k.sum(tagFirst, m)[:b.h.size]...)
	return k.chain(dst, dst[len(dst)-b.h.size:], top, true)
}

// IterateFrom appends the digest i applications of Next beyond d to dst.
func (b *Batch) IterateFrom(dst []byte, d Digest, i uint64) []byte {
	b.n += i
	if i == 0 {
		return append(dst, d...)
	}
	k := b.kernel()
	if len(d) != b.h.size {
		// A digest of another width (a malformed proof's) takes its
		// first step at its own length.
		d, i = k.sum(tagIter, d)[:b.h.size], i-1
	}
	return k.chain(dst, d, i, false)
}

// MGF1 appends the package-level MGF1(seed, n) to dst, on the Batch's
// kernel. Like MGF1 it counts no operation.
func (b *Batch) MGF1(dst, seed []byte, n int) []byte { return b.kernel().mgf1(dst, seed, n) }

// Prefix hashes a run of tagMisc messages that share a growing leading
// part: the part is absorbed once into a running state, and each Sum
// finishes a fork of that state with its own suffix. It serves digests
// over many concatenations of one prefix — Section 5.1's preferred
// representations i and i+1 agree on digits 0..i — without hashing the
// prefix again for each. Like a Batch it counts locally, one operation
// per Sum as Hash counts it, and Done adds the count to the Hasher; it
// also returns the pooled state. A Prefix must not be shared between
// goroutines or used after Done.
type Prefix struct {
	h  *Hasher
	ps *prefixState
}

// prefixState is a Prefix's running state, the fork Sum finishes, the
// buffers the fork and the digest pass through and the operation count,
// pooled so a run of sums allocates nothing.
type prefixState struct {
	run, fork state
	buf       [marshaled]byte
	out       [sha256.Size]byte
	n         uint64
}

var prefixes = sync.Pool{New: func() any {
	return &prefixState{run: sha256.New().(state), fork: sha256.New().(state)}
}}

// miscTag is tagMisc as the message byte a Prefix's state starts from.
var miscTag = []byte{tagMisc}

// Prefix starts a run of hashes whose shared part is empty.
func (h *Hasher) Prefix() Prefix {
	ps := prefixes.Get().(*prefixState)
	ps.run.Reset()
	ps.run.Write(miscTag)
	return Prefix{h: h, ps: ps}
}

// Write appends data to the shared part.
func (p Prefix) Write(data []byte) { p.ps.run.Write(data) }

// Sum appends to dst the digest Hash gives over the shared part followed
// by suffix.
func (p Prefix) Sum(dst []byte, suffix ...[]byte) []byte {
	p.ps.n++
	st, _ := p.ps.run.AppendBinary(p.ps.buf[:0])
	if err := p.ps.fork.UnmarshalBinary(st); err != nil {
		panic("hashx: a SHA-256 state does not restore its own marshaling: " + err.Error())
	}
	for _, s := range suffix {
		p.ps.fork.Write(s)
	}
	return append(dst, p.ps.fork.Sum(p.ps.out[:0])[:p.h.size]...)
}

// Done adds the run's operation count to the Hasher's counter and
// returns the state to the pool.
func (p Prefix) Done() {
	p.h.ops.Add(p.ps.n)
	p.ps.n = 0
	prefixes.Put(p.ps)
}

// U64 encodes v as 8 big-endian bytes; the canonical pre-image encoding for
// key values throughout the scheme.
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// U64Pair encodes two values, used for the (key, digit-index) pre-images
// r|j of the base-B optimization (Section 5.1).
func U64Pair(a, b uint64) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	return buf[:]
}
