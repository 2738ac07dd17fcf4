package engine

import (
	"errors"
	"fmt"
	"io"

	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/sig"
)

// This file defines the streaming shape of a result: instead of
// materializing a whole Result, the VO is emitted as a sequence of
// self-delimiting chunks with bounded memory per chunk. The chunk
// sequence mirrors the structure the completeness proof is built from:
//
//	header   — effective rewrite + left boundary proof
//	entries* — covered records with their chain digests: the first
//	           covering shard's first chunk ≤ min(ChunkRows,
//	           firstChunkRows), every other chunk ≤ ChunkRows
//	footer   — right boundary proof + condensed signature (+ the
//	           empty-range predecessor material)
//
// The signature chain spans chunk boundaries: entry i's signed digest
// binds g(i-1) | g(i) | g(i+1) regardless of which chunks carry them, so
// a verifier that maintains the running chain detects dropped, reordered
// or truncated chunks no later than the footer — and usually immediately,
// via the Seq numbers and key ordering.
//
// One producer builds every such stream: the fan-out engine (merge.go),
// ShardPartial runs merged by MergeShards. An unpartitioned relation is
// answered as its K = 1 merge — ExecuteStream is that stream and Execute
// its drain, so the materialized and streaming paths cannot diverge.

// ChunkType tags the chunks of a streamed result.
type ChunkType byte

// Chunk types.
const (
	// ChunkHeader opens a stream: relation, effective query, left boundary.
	ChunkHeader ChunkType = 1
	// ChunkEntries carries up to ChunkRows covered records.
	ChunkEntries ChunkType = 2
	// ChunkFooter closes a stream: right boundary, condensed signature,
	// empty-range predecessor material. No chunk may follow it.
	ChunkFooter ChunkType = 3
	// ChunkError aborts a stream mid-flight with a publisher-side error;
	// transport layers use it to carry failures in-band once the HTTP
	// status line is already committed.
	ChunkError ChunkType = 4
	// ChunkTiming is an advisory trailer a serving layer may append
	// AFTER the footer when (and only when) the client asked for it
	// (wire.StreamRequest.Timing): the request's trace ID and per-stage
	// latency breakdown. It carries no verified material — transports
	// surface it to the user without feeding it to the verifier, and the
	// verifier would reject it anyway (no chunk may follow the footer).
	ChunkTiming ChunkType = 5
)

// String implements fmt.Stringer.
func (t ChunkType) String() string {
	switch t {
	case ChunkHeader:
		return "header"
	case ChunkEntries:
		return "entries"
	case ChunkFooter:
		return "footer"
	case ChunkError:
		return "error"
	case ChunkTiming:
		return "timing"
	}
	return "?"
}

// Chunk is one self-delimiting piece of a streamed result. Which fields
// are meaningful depends on Type; everything else stays zero.
type Chunk struct {
	Type ChunkType
	// Seq numbers chunks from 0 (the header) with no gaps. It is framing
	// metadata, not a security boundary: a cheating publisher can renumber
	// freely, but then the signature chain fails at (or before) the
	// footer. Honest transports use it to fail fast on drops and reorders.
	Seq uint64
	// Shard tags the partition shard this chunk's content came from when
	// the relation is range-partitioned (internal/partition); 0 for
	// unpartitioned streams. Like Seq it is framing metadata: the
	// signature chain spans shard hand-offs exactly as it spans chunk
	// boundaries, so a lying tag is caught by the chain; honest transports
	// and verify.ShardStreamVerifier use it to fail fast with
	// shard-attributed errors.
	Shard int

	// Header fields.
	Relation string
	// Effective is the rewritten query actually executed.
	Effective Query
	// KeyLo, KeyHi is the range the boundary proofs are relative to
	// (always the effective range for an honest publisher; shipped
	// separately so the verifier can check they agree).
	KeyLo, KeyHi uint64
	// Left proves the record preceding the range has key < KeyLo.
	Left core.BoundaryProof

	// Entries fields.
	Entries []VOEntry

	// Footer fields.
	// Right proves the record following the range has key > KeyHi.
	Right core.BoundaryProof
	// AggSig is the condensed signature over every covered entry (or the
	// empty-range predecessor).
	AggSig sig.Signature
	// PredPrevG supports the empty-range check; see RangeVO.PredPrevG.
	PredPrevG hashx.Digest
	// ShardFeet is the per-shard continuity accounting of a fan-out
	// stream's footer: one entry per covering shard, in hand-off order,
	// with the entry count that shard contributed. Verifiers cross-check
	// it against the shard tags they observed so an interior shard whose
	// chunks went missing is attributed by name before (or in addition
	// to) the chain failure. An unpartitioned stream, the K = 1 merge,
	// carries the one line {0, n}; only a footer rebuilt from a
	// materialized Result (ChunkResult) has none.
	ShardFeet []ShardFoot

	// Error field.
	Err string

	// Timing trailer fields (ChunkTiming only; see internal/obs). Both
	// are advisory operational data, never covered by any signature —
	// byte-identity of the *verified* stream is unaffected because a
	// timing trailer is only emitted on explicit request, after the
	// footer.
	Trace  string
	Timing []obs.StageDur
}

// ShardFoot is one shard's line in a fan-out footer's continuity
// accounting: which shard, and how many entries it contributed.
type ShardFoot struct {
	Shard   int
	Entries uint64
}

// ResultStream yields the chunks of one query result in order. Next
// returns io.EOF after the footer. The engine's streams are merges
// (MergeShards, FanoutStream) and implement io.Closer to release their
// per-shard feeds; callers that may abandon a stream mid-drain should
// type-assert and defer Close (wire.WriteStream does). A K = 1 stream
// holds nothing beyond its relation snapshot, so Close is a no-op there.
type ResultStream interface {
	Next() (*Chunk, error)
}

// DefaultChunkRows is the entry budget per chunk when the caller passes
// zero: small enough to bound memory, large enough to amortize framing.
const DefaultChunkRows = 256

// MaxChunkRows caps caller-requested chunk sizes; a "chunk" spanning the
// whole result would silently reintroduce materialize-then-ship.
const MaxChunkRows = 4096

// StreamOpts tunes a streamed execution.
type StreamOpts struct {
	// ChunkRows bounds the entries per chunk; 0 means DefaultChunkRows,
	// values above MaxChunkRows are clamped.
	ChunkRows int
	// ReuseChunks lets the stream recycle an entries chunk and
	// everything it aliases across Next calls: the chunk struct, its
	// Entries array, and the arena holding every entry's disclosed
	// attributes, hidden leaves and combined digests. A chunk is valid
	// only until the next Next; only disclosed values' bytes, which are
	// the records' own immutable memory, outlive it. Without it each chunk gets its own arena, one allocation per
	// array however many rows it carries; the short opening chunk shares
	// one with the chunk after it. A recycling producer needs a
	// consumer that is done with a chunk when it pulls the next, so
	// Collect, which keeps every chunk's entries, must not drain one.
	// Set by drain-style consumers — the /stream and /shard/stream
	// handlers encode each chunk before pulling the next, and the
	// coordinator's /stream handler passes it on to its node feeds
	// (wire.Client.ShardStream) — and leave off when chunks are
	// retained. Each ShardPartial honours it; a parallel fan-out over
	// several slices (FanoutStream) ignores it — chunks crossing a
	// channel cannot be recycled safely. A K = 1 stream is never
	// parallel, so ExecuteStream always honours it.
	ReuseChunks bool
}

func (o StreamOpts) chunkRows() int {
	switch {
	case o.ChunkRows <= 0:
		return DefaultChunkRows
	case o.ChunkRows > MaxChunkRows:
		return MaxChunkRows
	}
	return o.ChunkRows
}

// firstChunkRows caps the stream's opening entries chunk. Formula (1)
// signs g(i-1) | g(i) | g(i+1), so a verifier releases a row only once it
// holds the row's successor, and the caller sees the first row only after
// the whole first chunk has been assembled, shipped, decoded and checked.
// A short opening chunk brings that row forward at the price of one frame
// per query. It must be at least 2: under the one-entry lookahead a
// 1-entry chunk releases nothing.
const firstChunkRows = 8

// chunkLen is the publisher's one chunk schedule: how many of the left
// entries of a run the next entries chunk carries, given the per-chunk
// budget and whether the chunk opens the stream (the first covering
// shard's first chunk).
func chunkLen(chunkRows, left int, opening bool) int {
	if opening {
		chunkRows = min(chunkRows, firstChunkRows)
	}
	return min(chunkRows, left)
}

// ExecuteStream runs a select-project query and returns the result as a
// chunk stream instead of a materialized Result: the K = 1 fan-out over
// the registered relation, the stream /stream ships for it, footer
// ShardFeet {0, n} included. Rewrite errors surface here; assembly
// errors surface from Next as the stream advances.
func (p *Publisher) ExecuteStream(roleName string, q Query, opts StreamOpts) (ResultStream, error) {
	sr, ok := p.Relation(q.Relation)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, q.Relation)
	}
	return p.ExecuteStreamOn(sr, roleName, q, opts)
}

// ExecuteStreamOn is ExecuteStream against an explicitly pinned relation
// snapshot, one that no Publisher registry holds: PlanQuery, then
// FanoutStream over the single slice covering the effective range. The
// snapshot must not be mutated while the stream is being drained.
func (p *Publisher) ExecuteStreamOn(sr *core.SignedRelation, roleName string, q Query, opts StreamOpts) (ResultStream, error) {
	role, eff, err := p.Plan(sr, roleName, q)
	if err != nil {
		return nil, err
	}
	return p.FanoutStream(role, eff, []ShardSlice{{SR: sr, Lo: eff.KeyLo, Hi: eff.KeyHi}}, nil, opts)
}

// Collect drains a stream into the materialized Result the non-streaming
// API returns. Execute is the K = 1 merge ExecuteStream returns plus
// Collect, so the two paths emit byte-identical VOs; the footer's
// ShardFeet and the chunks' Shard tags are framing, not VO, and are
// dropped. The Result keeps every chunk's entries, so the stream must
// not recycle them: never a ReuseChunks stream.
func Collect(st ResultStream) (*Result, error) {
	var res *Result
	sawFooter := false
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch c.Type {
		case ChunkHeader:
			if res != nil {
				return nil, errors.New("engine: duplicate header chunk")
			}
			res = &Result{Relation: c.Relation, Effective: c.Effective}
			res.VO.KeyLo, res.VO.KeyHi = c.KeyLo, c.KeyHi
			res.VO.Left = c.Left
		case ChunkEntries:
			if res == nil {
				return nil, errors.New("engine: entries before header chunk")
			}
			res.VO.Entries = append(res.VO.Entries, c.Entries...)
		case ChunkFooter:
			if res == nil {
				return nil, errors.New("engine: footer before header chunk")
			}
			res.VO.Right = c.Right
			res.VO.AggSig = c.AggSig
			res.VO.PredPrevG = c.PredPrevG
			sawFooter = true
		case ChunkError:
			return nil, fmt.Errorf("engine: stream error: %s", c.Err)
		case ChunkTiming:
			// Advisory trailer — not part of the result.
		default:
			return nil, fmt.Errorf("engine: unknown chunk type %d", c.Type)
		}
	}
	if res == nil || !sawFooter {
		return nil, errors.New("engine: stream ended before footer")
	}
	return res, nil
}

// ChunkResult slices a materialized Result back into the chunk sequence
// ExecuteStream would have produced for it (with the given per-chunk
// entry budget), less the footer's ShardFeet, which a Result does not
// keep. The budget is clamped as StreamOpts.ChunkRows is. The
// whole-result verifier runs on these chunks, and tamper tests use them
// to corrupt individual stream pieces.
func ChunkResult(res *Result, chunkRows int) []*Chunk {
	chunkRows = StreamOpts{ChunkRows: chunkRows}.chunkRows()
	vo := &res.VO
	var chunks []*Chunk
	chunks = append(chunks, &Chunk{
		Type:      ChunkHeader,
		Relation:  res.Relation,
		Effective: res.Effective,
		KeyLo:     vo.KeyLo,
		KeyHi:     vo.KeyHi,
		Left:      vo.Left,
	})
	for off := 0; off < len(vo.Entries); {
		end := off + chunkLen(chunkRows, len(vo.Entries)-off, off == 0)
		chunks = append(chunks, &Chunk{Type: ChunkEntries, Entries: vo.Entries[off:end]})
		off = end
	}
	chunks = append(chunks, &Chunk{
		Type:      ChunkFooter,
		Right:     vo.Right,
		AggSig:    vo.AggSig,
		PredPrevG: vo.PredPrevG,
	})
	for i, c := range chunks {
		c.Seq = uint64(i)
	}
	return chunks
}
