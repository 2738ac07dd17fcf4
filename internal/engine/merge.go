package engine

import (
	"fmt"
	"io"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/sig"
)

// This file is the one chunk producer: every VO the publisher emits is a
// single chunk stream that concatenates per-shard entry runs. A query
// whose effective range spans several partition shards merges one run
// per covering shard; an unpartitioned relation is the K = 1 case, one
// run over the whole relation (Execute, ExecuteStream). Because the
// shards of internal/partition are contiguous slices of one global
// signature chain, the merged stream is indistinguishable — to the
// chain-verification rules — from a K = 1 stream over the same range;
// the only additions are the per-chunk Shard tags and the footer's
// ShardFeet accounting (one line at K = 1), which give verifiers
// shard-attributed fail-fast errors. The engine has two halves, split
// where a distributed deployment crosses the wire:
//
//   - ShardPartial is the run producer: one shard's contribution to a
//     fan-out — its entry chunks, its partial condensed signature
//     (condensed-RSA aggregates multiply, so per-shard partials combine
//     in any order), and whichever boundary proofs its position in the
//     cover obliges it to supply. Shard nodes run it behind
//     /shard/stream; Publisher.FanoutStream (fanout.go) runs it over
//     slices held in this process, and Execute and ExecuteStream run it
//     over one whole relation.
//
//   - MergeShards is the merger: it concatenates per-shard feeds (in
//     hand-off order) into the canonical chunk sequence — one header,
//     the entry runs, one footer with the combined condensed signature
//     and per-shard continuity accounting. Whether a feed is a local
//     ShardPartial or a node sub-stream is invisible to it, which is
//     what keeps every serving path byte-identical and acceptable to
//     the unmodified stream verifiers.
//
// Nothing in the seam is trusted: a node that lies in its chunks,
// partial, or boundary proof produces a merged stream the user's
// verifier rejects. The seam's correctness obligations are only about
// the honest path staying byte-identical.

// ShardHead is what the merger needs from a feed before its first
// entries chunk: the shard index and, for the first covering shard, the
// left boundary proof of the whole effective range.
type ShardHead struct {
	Shard int
	Left  *core.BoundaryProof
}

// ShardFeedFoot summarizes a drained feed: how many entries it
// contributed, its partial condensed signature (nil when empty), the
// right boundary proof when the feed is
// the last covering shard, and the empty-range predecessor material when
// the feed is the first covering shard and covered no records.
type ShardFeedFoot struct {
	Entries uint64
	Partial sig.Signature
	Right   *core.BoundaryProof
	// PredSig and PredPrevG carry the Section 3.2 Case 2 material for a
	// globally empty range: the predecessor's signature and the g digest
	// of the record before it. NeedPrevG reports that g lives one shard
	// to the left (the predecessor is this slice's left context), in
	// which case the merger resolves it through its PrevG callback.
	PredSig   sig.Signature
	PredPrevG hashx.Digest
	NeedPrevG bool
}

// ShardFeed is one covering shard's contribution to a merged fan-out, in
// consumption order: Head once, Next until io.EOF, then Foot. Close
// releases the feed's resources at any point; the merger closes every
// feed when the stream errors or is abandoned.
//
// Implementations: ShardPartial (in-process) and internal/cluster's wire
// adapter over node sub-streams — indistinguishable to the merger, which
// is what keeps every serving path byte-identical.
type ShardFeed interface {
	Head() (ShardHead, error)
	Next() (*Chunk, error)
	Foot() (ShardFeedFoot, error)
	Close() error
}

// PrevG resolves the g digest of the record preceding the first covering
// shard's left context — needed in exactly one corner: a globally empty
// result whose predecessor is that context record. The distributed
// caller implements it as an edge fetch from the preceding shard's node.
type PrevG func() (hashx.Digest, error)

// ShardPartial produces one shard's partial fan-out: the entries chunks
// covering [lo, hi] on this slice, then a summary foot. It implements
// ShardFeed, so a local merge and a remote one (the wire adapter in
// internal/cluster) consume it identically.
//
// The caller supplies the already-pinned slice and the sub-range the
// shard covers; the query is planned here exactly as every other serving
// path plans it, and the sub-range must tile into the effective range
// ([lo, hi] inside it, anchored at its ends when first/last are set).
// The slice must carry a crypto index current for the publisher's key
// (core.AggIndexFor); one without is refused with core.ErrAggIndex.
func (p *Publisher) ShardPartial(sr *core.SignedRelation, roleName string, q Query, shard int, lo, hi uint64, first, last bool, opts StreamOpts) (*ShardPartial, error) {
	role, eff, err := p.Plan(sr, roleName, q)
	if err != nil {
		return nil, err
	}
	if lo > hi || lo < eff.KeyLo || hi > eff.KeyHi {
		return nil, fmt.Errorf("engine: sub-range [%d,%d] outside effective range [%d,%d]", lo, hi, eff.KeyLo, eff.KeyHi)
	}
	if first && lo != eff.KeyLo {
		return nil, fmt.Errorf("engine: first shard partial must start at %d, got %d", eff.KeyLo, lo)
	}
	if last && hi != eff.KeyHi {
		return nil, fmt.Errorf("engine: last shard partial must end at %d, got %d", eff.KeyHi, hi)
	}
	return p.newShardPartial(role, eff, ShardSlice{Shard: shard, SR: sr, Lo: lo, Hi: hi}, first, last, opts)
}

// newShardPartial builds the run producer for one slice of an already
// planned and tiled cover. The slice's crypto index makes its partial
// condensed signature one O(log n) tree lookup, so a K-way fan-out
// combines K lookups with K-1 multiplications; a slice without a current
// index is refused.
func (p *Publisher) newShardPartial(role accessctl.Role, eff Query, sl ShardSlice, first, last bool, opts StreamOpts) (*ShardPartial, error) {
	ix, err := sl.SR.AggIndexFor(p.pub)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", sl.Shard, err)
	}
	a, b := sl.SR.RangeIndices(sl.Lo, sl.Hi)
	schema := sl.SR.Schema
	sp := &ShardPartial{
		p: p, sr: sl.SR, role: role, eff: eff,
		shard: sl.Shard, lo: sl.Lo, hi: sl.Hi, first: first, last: last,
		chunkRows: opts.chunkRows(), a: a, b: b, pos: a, idx: ix,
		projCols:   projectCols(schema, eff.Project),
		filterCols: filterCols(schema, eff.Filters),
		visCol:     schema.ColIndex(role.VisibilityCol),
		reuse:      opts.ReuseChunks,
		hAgg:       p.Obs.Hist(obs.StageAggIndex),
	}
	// Leaves 0..n less the opened ones, per mode this query can ship; a
	// Case 2 entry opens one and hides the key leaf too.
	leaves := len(schema.Cols) + 1
	sp.opened, sp.hidden = len(sp.projCols), leaves-len(sp.projCols)
	if len(eff.Filters) > 0 {
		sp.opened, sp.hidden = max(sp.opened, len(sp.filterCols)), max(sp.hidden, leaves-len(sp.filterCols))
	}
	if sp.visCol >= 0 {
		sp.opened, sp.hidden = max(sp.opened, 1), max(sp.hidden, leaves)
	}
	return sp, nil
}

// ShardPartial is the run producer of a fan-out; see
// Publisher.ShardPartial.
type ShardPartial struct {
	p    *Publisher
	sr   *core.SignedRelation
	role accessctl.Role
	eff  Query

	shard       int
	lo, hi      uint64
	first, last bool

	chunkRows int
	a, b, pos int
	idx       *core.AggIndex

	// The columns each entry mode discloses, planned once per partial:
	// the projection (results), the filter columns (Section 4.4 Case 1)
	// and the role's visibility column (Case 2; -1 when the schema lacks
	// it) — and the most values an entry opens and leaves it hides, which
	// size the arena.
	projCols, filterCols []int
	visCol               int
	opened, hidden       int

	// arena holds the chunks' entry lists and digests, and entries the
	// entries themselves. Under reuse both and the chunk struct are
	// recycled by the next Next; otherwise a chunk keeps what it cut from
	// them, and the next one takes what room is left or fresh arrays.
	arena    entryArena
	entries  []VOEntry
	reuse    bool
	chunkBuf Chunk

	// hAgg records the foot's product-tree lookup (nil without a registry).
	hAgg *obs.Histogram

	err error
}

// Head returns the shard index and, for the first covering shard, the
// left boundary proof of the effective range.
func (sp *ShardPartial) Head() (ShardHead, error) {
	head := ShardHead{Shard: sp.shard}
	if sp.first {
		left, err := sp.sr.ProveBoundary(sp.p.h, sp.a-1, core.Up, sp.lo)
		if err != nil {
			return head, fmt.Errorf("engine: left boundary: %w", err)
		}
		head.Left = &left
	}
	return head, nil
}

// Next returns the next entries chunk, io.EOF when the covered interval
// is exhausted.
func (sp *ShardPartial) Next() (*Chunk, error) {
	if sp.err != nil {
		return nil, sp.err
	}
	if sp.pos >= sp.b {
		return nil, io.EOF
	}
	left := sp.b - sp.pos
	n := chunkLen(sp.chunkRows, left, sp.first && sp.pos == sp.a)
	// room is the entries the arrays are sized for when they are short of
	// n. A short opening chunk must cost no array of its own: recycled
	// arrays are sized for a full chunk from the start, and fresh ones
	// for the opening chunk and the one after it.
	room := n
	if sp.reuse {
		room = min(sp.chunkRows, left)
		sp.arena.reset()
		sp.entries = sp.entries[:0]
	} else if n < min(sp.chunkRows, left) {
		room = n + min(sp.chunkRows, left-n)
	}
	if cap(sp.entries)-len(sp.entries) < n {
		sp.entries = make([]VOEntry, 0, room)
	}
	sp.arena.reserve(room*sp.opened, room*sp.hidden, room*(sp.hidden+2)*sp.p.h.Size())
	b := sp.p.h.Batch()
	defer b.Done()
	at := len(sp.entries)
	for i := sp.pos; i < sp.pos+n; i++ {
		entry, err := sp.buildEntry(&b, sp.sr.Recs[i])
		if err != nil {
			sp.err = err
			return nil, err
		}
		sp.entries = append(sp.entries, entry)
	}
	// The partial's own chunk struct carries a recycled chunk, and
	// otherwise its first chunk, which nothing overwrites.
	c := &sp.chunkBuf
	if !sp.reuse && sp.pos != sp.a {
		c = new(Chunk)
	}
	*c = Chunk{Type: ChunkEntries, Shard: sp.shard, Entries: sp.entries[at:len(sp.entries):len(sp.entries)]}
	sp.pos += n
	return c, nil
}

// buildEntry classifies one covered record and assembles its VO entry in
// the partial's arena. Every mode ships a copy of the record's chain
// digest C; the key leaf travels only when the key stays hidden (Case 2).
func (sp *ShardPartial) buildEntry(b *hashx.Batch, rec *core.SignedRecord) (VOEntry, error) {
	schema := sp.sr.Schema
	t := rec.Tuple
	e := VOEntry{Mode: EntryResult, Key: t.Key}
	var one [1]int
	cols := sp.projCols
	switch {
	case !sp.role.RecordVisible(schema, t):
		// Section 4.4 Case 2: open only the visibility-column leaf.
		if sp.visCol < 0 {
			return VOEntry{}, fmt.Errorf("engine: role %q visibility column %q missing in %q", sp.role.Name, sp.role.VisibilityCol, schema.Name)
		}
		e = VOEntry{Mode: EntryFilteredHidden}
		one[0] = sp.visCol
		cols = one[:]
	case !sp.eff.passes(schema, t):
		// Section 4.4 Case 1: disclose the filter columns so the user can
		// confirm the record fails the condition; everything else travels
		// as digests.
		e.Mode, cols = EntryFilteredVisible, sp.filterCols
	}
	// Under DISTINCT a duplicate ships as a result too: the user releases
	// each distinct row once, and can see that what it skips repeats one.
	e.Disclosed, e.HiddenLeaves = sp.arena.disclose(b, t, cols, e.Mode == EntryFilteredHidden)
	e.Combined = sp.arena.copy(rec.Combined)
	return e, nil
}

// Foot summarizes the drained partial: the partial condensed signature
// is one lookup in the slice's index. It must not be called before Next
// has returned io.EOF.
func (sp *ShardPartial) Foot() (ShardFeedFoot, error) {
	if sp.err != nil {
		return ShardFeedFoot{}, sp.err
	}
	if sp.pos < sp.b {
		return ShardFeedFoot{}, fmt.Errorf("engine: shard partial foot before drain")
	}
	foot := ShardFeedFoot{Entries: uint64(sp.b - sp.a)}
	if sp.b > sp.a {
		t0 := time.Now()
		partial, err := sp.idx.RangeAggregate(sp.a, sp.b)
		sp.hAgg.ObserveSince(t0)
		if err != nil {
			return ShardFeedFoot{}, fmt.Errorf("engine: aggregation: %w", err)
		}
		foot.Partial = partial
	}
	if sp.last {
		right, err := sp.sr.ProveBoundary(sp.p.h, sp.b, core.Down, sp.hi)
		if err != nil {
			return ShardFeedFoot{}, fmt.Errorf("engine: right boundary: %w", err)
		}
		foot.Right = &right
	}
	if sp.first && sp.a == sp.b {
		// Locally empty first shard: ship the predecessor material the
		// merger needs if the range turns out globally empty (it can only
		// be globally empty if every covering shard is — interior shards
		// never are). A predecessor at index 0 that is the global left
		// delimiter needs no PredPrevG: the verifier substitutes the
		// virtual end digest.
		predIdx := sp.a - 1
		foot.PredSig = sig.Signature(sp.sr.Recs[predIdx].Sig)
		if predIdx > 0 {
			foot.PredPrevG = sp.sr.Recs[predIdx-1].G.Clone()
		}
		foot.NeedPrevG = sp.NeedPrevG()
	}
	return foot, nil
}

// NeedPrevG reports, from the covered interval alone, what Foot's
// NeedPrevG will say: the partial is the first covering shard, it covers
// no record, and its predecessor is the slice's left context record, so
// the g digest before that predecessor lives on the preceding shard. A
// node announces it in its sub-stream hello, before any entry.
func (sp *ShardPartial) NeedPrevG() bool {
	return sp.first && sp.a == sp.b && sp.a == 1 && sp.sr.Recs[0].Kind != core.KindDelimLeft
}

// Close implements ShardFeed; a partial holds no resources beyond its
// pinned slice, which the garbage collector releases with the value.
func (sp *ShardPartial) Close() error { return nil }

// MergeShards assembles the canonical fan-out chunk stream from one feed
// per covering shard, in hand-off order, and multiplies the feeds'
// partial condensed signatures into the footer's. The first feed must
// supply the left boundary proof, the last the right one; prevG may be
// nil when the caller can prove the empty-range corner cannot need it (a
// cover starting at shard 0). The merged stream is accepted by the
// unmodified stream verifiers.
//
// aggregate must be true: the condensed signature is the only one a VO
// carries, and false is refused with ErrSignatureMode. The parameter
// stays only for existing callers and goes with their next edit.
//
// The returned stream implements io.Closer; abandoning callers should
// close it to release the feeds (a fully drained stream needs no Close).
func MergeShards(pub *sig.PublicKey, aggregate bool, eff Query, feeds []ShardFeed, prevG PrevG) (ResultStream, error) {
	if !aggregate {
		return nil, ErrSignatureMode
	}
	if len(feeds) == 0 {
		return nil, fmt.Errorf("engine: merge over zero shard feeds")
	}
	return &mergeStream{
		eff: eff, feeds: feeds, prevG: prevG,
		agg:  pub.NewAggregator(),
		feet: make([]ShardFoot, len(feeds)),
	}, nil
}

// streamStage is a merged stream's position in the canonical chunk
// order.
type streamStage byte

const (
	stageHeader streamStage = iota
	stageEntries
	stageFooter
	stageDone
)

// mergeStream concatenates shard feeds into the canonical chunk order.
type mergeStream struct {
	eff   Query
	feeds []ShardFeed
	prevG PrevG

	agg  *sig.Aggregator
	feet []ShardFoot

	cur       int
	curHead   ShardHead
	headDone  bool
	firstFoot ShardFeedFoot
	lastFoot  ShardFeedFoot
	seq       uint64

	stage streamStage
	err   error
}

// Next returns the next merged chunk, io.EOF after the footer, or the
// first feed error (sticky).
func (st *mergeStream) Next() (*Chunk, error) {
	if st.err != nil {
		return nil, st.err
	}
	c, err := st.next()
	if err != nil {
		st.err = err
		st.Close()
		return nil, err
	}
	c.Seq = st.seq
	st.seq++
	return c, nil
}

func (st *mergeStream) next() (*Chunk, error) {
	switch st.stage {
	case stageHeader:
		head, err := st.feeds[0].Head()
		if err != nil {
			return nil, err
		}
		if head.Left == nil {
			return nil, fmt.Errorf("engine: merge: first feed supplied no left boundary proof")
		}
		st.curHead, st.headDone = head, true
		st.feet[0] = ShardFoot{Shard: head.Shard}
		st.stage = stageEntries
		return &Chunk{
			Type:      ChunkHeader,
			Shard:     head.Shard,
			Relation:  st.eff.Relation,
			Effective: st.eff,
			KeyLo:     st.eff.KeyLo,
			KeyHi:     st.eff.KeyHi,
			Left:      *head.Left,
		}, nil

	case stageEntries:
		for st.cur < len(st.feeds) {
			if !st.headDone {
				head, err := st.feeds[st.cur].Head()
				if err != nil {
					return nil, err
				}
				st.curHead, st.headDone = head, true
				st.feet[st.cur] = ShardFoot{Shard: head.Shard}
			}
			c, err := st.feeds[st.cur].Next()
			if err == io.EOF {
				foot, err := st.feeds[st.cur].Foot()
				if err != nil {
					return nil, err
				}
				if foot.Partial != nil {
					if err := st.agg.Add(foot.Partial); err != nil {
						return nil, fmt.Errorf("engine: combining shard aggregate: %w", err)
					}
				}
				if st.cur == 0 {
					st.firstFoot = foot
				}
				if st.cur == len(st.feeds)-1 {
					st.lastFoot = foot
				}
				st.cur++
				st.headDone = false
				continue
			}
			if err != nil {
				return nil, err
			}
			if c.Type != ChunkEntries {
				return nil, fmt.Errorf("engine: merge: feed produced %v chunk", c.Type)
			}
			if c.Shard != st.curHead.Shard {
				return nil, fmt.Errorf("engine: merge: feed for shard %d produced chunk tagged %d", st.curHead.Shard, c.Shard)
			}
			st.feet[st.cur].Entries += uint64(len(c.Entries))
			return c, nil
		}
		st.stage = stageFooter
		return st.next()

	case stageFooter:
		return st.footer()

	default:
		return nil, io.EOF
	}
}

// footer assembles the merged footer from the first and last feeds'
// summaries: the right boundary proof, the empty-range predecessor
// material when nothing was covered, the combined condensed signature,
// and the per-shard continuity accounting.
func (st *mergeStream) footer() (*Chunk, error) {
	if st.lastFoot.Right == nil {
		return nil, fmt.Errorf("engine: merge: last feed supplied no right boundary proof")
	}
	c := &Chunk{Type: ChunkFooter, Shard: st.feet[len(st.feet)-1].Shard, Right: *st.lastFoot.Right}
	var total uint64
	for _, f := range st.feet {
		total += f.Entries
	}
	if total == 0 {
		if st.firstFoot.PredSig == nil {
			return nil, fmt.Errorf("engine: merge: empty range without predecessor material")
		}
		if err := st.agg.Add(st.firstFoot.PredSig); err != nil {
			return nil, fmt.Errorf("engine: aggregation: %w", err)
		}
		switch {
		case st.firstFoot.NeedPrevG:
			if st.prevG == nil {
				return nil, fmt.Errorf("engine: merge needs the preceding shard for an empty range")
			}
			g, err := st.prevG()
			if err != nil {
				return nil, fmt.Errorf("engine: merge: resolving predecessor digest: %w", err)
			}
			c.PredPrevG = g
		default:
			c.PredPrevG = st.firstFoot.PredPrevG
		}
	}
	agg, err := st.agg.Sum()
	if err != nil {
		return nil, fmt.Errorf("engine: aggregation: %w", err)
	}
	c.AggSig = agg
	c.ShardFeet = append([]ShardFoot(nil), st.feet...)
	st.stage = stageDone
	return c, nil
}

// Close releases every feed. Safe to call at any time, more than once.
func (st *mergeStream) Close() error {
	for _, f := range st.feeds {
		f.Close()
	}
	return nil
}
