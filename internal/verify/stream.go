package verify

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/sig"
)

// StreamVerifier consumes the chunks of a streamed result in order and
// verifies incrementally: per-entry reconstruction, key ordering, and the
// signature chain all advance as chunks arrive, with O(chunk) memory —
// the expected-digest product for the condensed signature accumulates in
// a single modular residue, never a digest list.
//
// Failure is fast: a malformed entry, an out-of-order key or a skipped
// sequence number rejects the stream the moment the offending chunk is
// consumed. The one check that must wait is the condensed signature
// (Section 5.2), the only signature a stream carries, which exists only
// in the footer — so the rows released before the footer are
// chain-consistent but not yet anchored to the owner's key, and a caller
// acting on them before Consume returns from the footer (or relying on
// Finish to catch truncation) trusts the publisher exactly that far.
//
// Verification failures surface the same named errors as VerifyResult,
// plus the stream-shape errors below.
type StreamVerifier struct {
	v    *Verifier
	q    engine.Query
	role accessctl.Role

	started bool // header consumed
	done    bool // footer consumed
	seq     uint64
	eff     engine.Query
	plan    plan

	// Per-entry scratch, overwritten by each entry: the by-leaf disclosed
	// pre-images and the buffer they are encoded into.
	open [][]byte
	enc  []byte

	// b hashes one Consume call's digests; its operation count reaches
	// the Hasher once per chunk.
	b hashx.Batch
	// gs is the ring entry g digests are written into: entry i takes slot
	// i mod 3, so the new entry's g never overwrites pending's or gPrev's
	// (entries i-1 and i-2), and the chain of digests allocates nothing.
	gs [3][hashx.MaxSize]byte

	entryIdx    int          // global entry index, for error messages
	gPrev       hashx.Digest // g of the entry before pending (gLeft initially)
	pending     pendingEntry // by value, overwritten in place: no per-entry allocation
	havePending bool
	lastKey     uint64 // key-order tracking across chunk boundaries
	haveKey     bool

	// held keeps the pending entry's row values once its chunk is
	// consumed: a transport may decode the next chunk into the
	// same memory. Two slots take turns, because the row held over from
	// the chunk before is released by the Consume that holds the next.
	// VerifyResult's chunks are slices of a Result it holds, so it sets
	// stable: nothing needs holding, and every row it returns keeps
	// aliasing the Result.
	held   [2]heldEntry
	heldAt int
	stable bool

	// DISTINCT: the disclosed values of the rows released for one key.
	// A key's entries arrive together, so this is all elision needs. Its
	// run can span many chunks, so group holds copies, cut from
	// groupVals and groupBytes, never a chunk's memory.
	groupKey   uint64
	group      [][]engine.DisclosedAttr
	groupVals  []engine.DisclosedAttr
	groupBytes []byte

	// agg accumulates the FDH product of every signed digest the chain
	// completes; the footer's condensed signature is checked against it.
	agg *sig.AggVerifier

	// hVerify records per-chunk verification cost when the parent
	// Verifier carries an obs registry; nil otherwise.
	hVerify *obs.Histogram

	rows []engine.Row // rows released by the current Consume call, reused by the next
	err  error        // sticky: first failure is terminal for the stream
}

// pendingEntry is the one-entry lookahead: entry i's signed digest binds
// g(i-1) | g(i) | g(i+1), so it can only be completed once its successor
// (or the right boundary) is known.
type pendingEntry struct {
	g      hashx.Digest
	row    engine.Row
	hasRow bool
}

// heldEntry is verifier-owned memory for one pending entry's row values.
type heldEntry struct {
	vals  []engine.DisclosedAttr
	bytes []byte
}

// Stream-shape failures. All of them mean "reject the stream".
var (
	ErrChunkSequence   = errors.New("verify: chunk out of sequence")
	ErrChunkShape      = errors.New("verify: chunk malformed")
	ErrStreamEnded     = errors.New("verify: chunk after footer")
	ErrStreamTruncated = errors.New("verify: stream truncated before footer")
)

// NewStreamVerifier starts verification of one streamed query result.
// q and role are the user's own query and rights, checked against the
// publisher's claimed rewrite exactly as in VerifyResult.
func (v *Verifier) NewStreamVerifier(q engine.Query, role accessctl.Role) *StreamVerifier {
	return &StreamVerifier{v: v, q: q, role: role, agg: v.Pub.NewAggVerifier(),
		hVerify: v.Obs.Hist(obs.StageVerify)}
}

// Done reports whether the footer has been consumed successfully.
func (sv *StreamVerifier) Done() bool { return sv.done }

// Finish must be called when the transport reports end-of-stream. It
// rejects streams that ended before the footer — the truncation attack a
// non-streaming verifier never has to think about.
func (sv *StreamVerifier) Finish() error {
	if sv.err != nil {
		return sv.err
	}
	if !sv.done {
		return ErrStreamTruncated
	}
	return nil
}

// Consume verifies one chunk and returns the result rows it releases.
// Rows are released once their position in the signature chain is fixed
// (one entry of lookahead), so the final rows of a stream arrive with the
// footer. Any error is terminal for the stream.
//
// The returned slice and the rows' values are valid until the next
// Consume: they alias c or the verifier's own memory, which the next
// Consume reuses. Nothing the verifier keeps aliases c once Consume
// returns, so the caller may decode the next chunk into c's memory.
// Copy what must outlive the next Consume.
func (sv *StreamVerifier) Consume(c *engine.Chunk) ([]engine.Row, error) {
	if sv.hVerify != nil {
		// Deferred-arg idiom: time.Now() is evaluated here, the record at
		// return — one observation per consumed chunk.
		defer sv.hVerify.ObserveSince(time.Now())
	}
	if err := sv.consume(c); err != nil {
		sv.err = err // latch: a rejected chunk cannot be retried or replaced
		return nil, err
	}
	return sv.rows, nil
}

func (sv *StreamVerifier) consume(c *engine.Chunk) error {
	if sv.err != nil {
		return sv.err
	}
	if sv.done {
		return ErrStreamEnded
	}
	if c.Type == engine.ChunkError {
		return fmt.Errorf("verify: publisher aborted stream: %s", c.Err)
	}
	if c.Seq != sv.seq {
		return fmt.Errorf("%w: got %d, want %d", ErrChunkSequence, c.Seq, sv.seq)
	}
	sv.seq++
	sv.rows = sv.rows[:0]
	sv.b = sv.v.H.Batch()
	defer sv.b.Done()
	switch c.Type {
	case engine.ChunkHeader:
		return sv.consumeHeader(c)
	case engine.ChunkEntries:
		return sv.consumeEntries(c)
	case engine.ChunkFooter:
		return sv.consumeFooter(c)
	default:
		return fmt.Errorf("%w: unknown chunk type %d", ErrChunkShape, c.Type)
	}
}

func (sv *StreamVerifier) consumeHeader(c *engine.Chunk) error {
	if sv.started {
		return fmt.Errorf("%w: duplicate header", ErrChunkShape)
	}
	if err := sv.v.Params.CheckFormat(); err != nil {
		return err
	}
	if err := sv.v.checkRewrite(sv.q, sv.role, c.Effective); err != nil {
		return err
	}
	if c.KeyLo != c.Effective.KeyLo || c.KeyHi != c.Effective.KeyHi {
		return fmt.Errorf("%w: VO range [%d,%d] vs effective [%d,%d]", ErrRewriteMismatch, c.KeyLo, c.KeyHi, c.Effective.KeyLo, c.Effective.KeyHi)
	}
	gLeft, err := core.VerifyBoundary(sv.v.H, sv.v.Params, c.Left, core.Up, c.KeyLo)
	if err != nil {
		return fmt.Errorf("%w: left: %v", ErrBoundary, err)
	}
	sv.started = true
	sv.eff = c.Effective
	sv.plan = sv.v.newPlan(sv.eff, sv.role)
	sv.open = make([][]byte, len(sv.v.Schema.Cols)+2) // row id, attributes, key
	sv.gPrev = gLeft
	return nil
}

func (sv *StreamVerifier) consumeEntries(c *engine.Chunk) error {
	if !sv.started {
		return fmt.Errorf("%w: entries before header", ErrChunkShape)
	}
	if len(c.Entries) == 0 {
		return fmt.Errorf("%w: empty entries chunk", ErrChunkShape)
	}
	if len(c.Entries) > engine.MaxChunkRows {
		// The O(chunk) memory bound must hold against a *malicious*
		// publisher too: a chunk packing the whole result would quietly
		// reintroduce materialize-then-ship on the client.
		return fmt.Errorf("%w: %d entries exceeds the %d-row chunk cap", ErrChunkShape, len(c.Entries), engine.MaxChunkRows)
	}
	lastKey, haveKey := sv.lastKey, sv.haveKey
	for i := range c.Entries {
		e := &c.Entries[i]
		g, err := sv.entryG(e)
		if err != nil {
			return fmt.Errorf("entry %d: %w", sv.entryIdx, err)
		}
		if e.Mode == engine.EntryResult || e.Mode == engine.EntryFilteredVisible {
			if e.Key < sv.eff.KeyLo || e.Key > sv.eff.KeyHi {
				return fmt.Errorf("%w: entry %d key %d", ErrKeyOutOfRange, sv.entryIdx, e.Key)
			}
			if haveKey && e.Key < lastKey {
				return fmt.Errorf("%w: entry %d", ErrKeyOrder, sv.entryIdx)
			}
			lastKey, haveKey = e.Key, true
		}
		release := e.Mode == engine.EntryResult && !(sv.eff.Distinct && sv.repeats(e))
		sv.advance(g, e, release)
		sv.entryIdx++
	}
	sv.lastKey, sv.haveKey = lastKey, haveKey
	sv.hold()
	return nil
}

// hold copies what the pending entry still needs of its chunk — its row
// values — into the held slot not backing a row this Consume released.
func (sv *StreamVerifier) hold() {
	if sv.stable {
		return
	}
	p := &sv.pending
	sv.heldAt ^= 1
	h := &sv.held[sv.heldAt]
	if p.hasRow && len(p.row.Values) > 0 {
		h.vals, h.bytes = appendAttrs(h.vals[:0], h.bytes[:0], p.row.Values)
		p.row.Values = h.vals[:len(h.vals):len(h.vals)]
	}
}

// appendAttrs appends copies of attrs to vals, their value bytes to b.
func appendAttrs(vals []engine.DisclosedAttr, b []byte, attrs []engine.DisclosedAttr) ([]engine.DisclosedAttr, []byte) {
	for _, d := range attrs {
		if d.Val.Bytes != nil {
			n := len(b)
			b = append(b, d.Val.Bytes...)
			d.Val.Bytes = b[n:len(b):len(b)]
		}
		vals = append(vals, d)
	}
	return vals, b
}

// repeats reports whether a result row repeats one already released for
// its key, which DISTINCT (Section 4.2) releases once. The publisher ships
// every duplicate in full, so the user sees what each one repeats.
func (sv *StreamVerifier) repeats(e *engine.VOEntry) bool {
	if e.Key != sv.groupKey {
		sv.groupKey, sv.group = e.Key, sv.group[:0]
		sv.groupVals, sv.groupBytes = sv.groupVals[:0], sv.groupBytes[:0]
	}
	if slices.ContainsFunc(sv.group, func(vals []engine.DisclosedAttr) bool {
		return slices.EqualFunc(vals, e.Disclosed, func(a, b engine.DisclosedAttr) bool { return a.Col == b.Col && a.Val.Equal(b.Val) })
	}) {
		return true
	}
	at := len(sv.groupVals)
	sv.groupVals, sv.groupBytes = appendAttrs(sv.groupVals, sv.groupBytes, e.Disclosed)
	sv.group = append(sv.group, sv.groupVals[at:len(sv.groupVals):len(sv.groupVals)])
	return false
}

// advance shifts the one-entry lookahead window: the newly reconstructed
// g completes the pending entry's signed digest, then becomes pending
// itself, with its row when release.
func (sv *StreamVerifier) advance(g hashx.Digest, e *engine.VOEntry, release bool) {
	if sv.havePending {
		sv.completePending(g)
		sv.gPrev = sv.pending.g
	}
	sv.pending = pendingEntry{g: g, hasRow: release}
	if release {
		sv.pending.row = engine.Row{Key: e.Key, Values: e.Disclosed}
	}
	sv.havePending = true
}

// completePending folds the pending entry's signed digest, given its
// successor digest, into the condensed-signature check and releases its
// row. The digest lives on the stack: the accumulator keeps only its FDH.
func (sv *StreamVerifier) completePending(gNext hashx.Digest) {
	p := &sv.pending
	var buf [hashx.MaxSize]byte
	sv.agg.AddOn(&sv.b, core.AppendSigDigest(&sv.b, buf[:0], sv.v.Params, sv.gPrev, p.g, gNext))
	if p.hasRow {
		sv.rows = append(sv.rows, p.row)
	}
}

func (sv *StreamVerifier) consumeFooter(c *engine.Chunk) error {
	if !sv.started {
		return fmt.Errorf("%w: footer before header", ErrChunkShape)
	}
	gRight, err := core.VerifyBoundary(sv.v.H, sv.v.Params, c.Right, core.Down, sv.eff.KeyHi)
	if err != nil {
		return fmt.Errorf("%w: right: %v", ErrBoundary, err)
	}

	if sv.entryIdx == 0 {
		// Empty range: the single digest binds pred and succ as adjacent.
		if c.PredPrevG != nil && len(c.PredPrevG) != sv.v.H.Size() {
			return fmt.Errorf("%w: PredPrevG width", ErrEntry)
		}
		var buf [hashx.MaxSize]byte
		sv.agg.AddOn(&sv.b, core.AppendSigDigest(&sv.b, buf[:0], sv.v.Params, c.PredPrevG, sv.gPrev, gRight))
	} else {
		// Complete the last entry against the right boundary.
		sv.completePending(gRight)
	}
	if c.AggSig == nil {
		return fmt.Errorf("%w: no signatures in VO", ErrSignature)
	}
	if !sv.agg.Verify(c.AggSig) {
		return fmt.Errorf("%w: aggregate", ErrSignature)
	}
	sv.done = true
	return nil
}
