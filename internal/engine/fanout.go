package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
)

// This file is the in-process entry to the fan-out engine (merge.go): it
// turns slices held in this process into local ShardPartial feeds and
// hands them to the one merger, so a single-process server, a
// coordinator over remote nodes and Execute/ExecuteStream (the K = 1
// cover) run the same code on the same bytes.

// ShardSlice couples one pinned shard slice with the sub-range of the
// effective query it covers. Slices must be passed in shard (key) order
// and the sub-ranges must tile the effective range exactly — the
// serving layer derives them with partition.Spec.Decompose.
type ShardSlice struct {
	// Shard is the partition index, stamped on every chunk produced from
	// this slice.
	Shard int
	// SR is the shard's pinned epoch slice: owned records at positions
	// [1, len-2], context records at 0 and len-1.
	SR *core.SignedRelation
	// Lo, Hi is the part of the effective range this shard covers.
	Lo, Hi uint64
}

// PrevPin lazily supplies the slice preceding the first covering shard.
// A fan-out stream needs it in exactly one corner: a globally empty
// result whose predecessor record is the first slice's left context —
// proving pred and succ adjacent then requires g of the record *before*
// the predecessor, which only the previous shard's slice holds. Pinning
// lazily keeps the common case's cache/epoch footprint at exactly the
// covering shards.
type PrevPin func() (*core.SignedRelation, bool)

// FanoutStream answers an already-rewritten query as one verifiable
// chunk stream drawn from the covering shard slices: MergeShards over
// one local ShardPartial per slice. The caller has resolved the role,
// computed the effective query, and pinned hand-off-consistent epoch
// slices (internal/server does all three). Every slice must carry a
// crypto index current for the publisher's key; a cover with a slice
// that does not is refused with core.ErrAggIndex before any feed starts.
//
// A cover of several shards is produced in parallel — each partial runs
// ahead of the merger behind a small bounded buffer — whenever there is
// more than one CPU. Parallel production ignores StreamOpts.ReuseChunks;
// chunks that cross a channel cannot be recycled.
//
// The returned stream implements io.Closer; callers that may abandon a
// stream mid-drain (transport failures) should defer Close to release
// the producers. A fully drained stream needs no Close.
func (p *Publisher) FanoutStream(role accessctl.Role, eff Query, slices []ShardSlice, prev PrevPin, opts StreamOpts) (ResultStream, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("engine: fan-out over zero shards")
	}
	if slices[0].Lo != eff.KeyLo || slices[len(slices)-1].Hi != eff.KeyHi {
		return nil, fmt.Errorf("engine: shard sub-ranges [%d,%d] do not tile effective range [%d,%d]",
			slices[0].Lo, slices[len(slices)-1].Hi, eff.KeyLo, eff.KeyHi)
	}
	for i := 1; i < len(slices); i++ {
		if slices[i].Lo != slices[i-1].Hi+1 {
			return nil, fmt.Errorf("engine: shard sub-ranges not contiguous at shard %d", slices[i].Shard)
		}
	}
	parallel := len(slices) > 1 && runtime.GOMAXPROCS(0) > 1
	if parallel {
		opts.ReuseChunks = false
	}
	feeds := make([]ShardFeed, len(slices))
	for i, sl := range slices {
		sp, err := p.newShardPartial(role, eff, sl, i == 0, i == len(slices)-1, opts)
		if err != nil {
			return nil, err
		}
		feeds[i] = sp
	}
	if parallel {
		for i, sp := range feeds {
			feeds[i] = prefetch(sp)
		}
	}
	var prevG PrevG
	if prev != nil {
		prevG = func() (hashx.Digest, error) {
			sl, ok := prev()
			if !ok || len(sl.Recs) < 3 {
				return nil, fmt.Errorf("engine: fan-out needs the preceding shard for an empty range")
			}
			return sl.Recs[len(sl.Recs)-3].G.Clone(), nil
		}
	}
	return MergeShards(p.pub, true, eff, feeds, prevG)
}

// prefetchBuffer throttles each producer: enough to keep it busy while
// the merger ships the previous chunk, small enough that a stalled
// consumer bounds memory at O(shards · chunk).
const prefetchBuffer = 2

var errFeedClosed = errors.New("engine: shard feed closed")

// prefetchFeed runs a feed's Next/Foot on a producer goroutine ahead of
// its consumer — the cross-shard parallelism of a local fan-out: every
// covering shard assembles its run while the merger is still draining an
// earlier one. The producer stops at the feed's end, at its first error,
// or when Close cancels it.
type prefetchFeed struct {
	head    ShardHead
	headErr error

	ch     chan *Chunk
	done   chan struct{}
	closed bool // consumer side only, like every ShardFeed method

	// foot and err are written by the producer before it closes ch and
	// read by the consumer only after it has seen ch closed.
	foot ShardFeedFoot
	err  error
}

// prefetch takes src's head on the calling goroutine (the merger asks
// for it first anyway) and starts the producer. src must not be used by
// the caller afterwards.
func prefetch(src ShardFeed) *prefetchFeed {
	f := &prefetchFeed{ch: make(chan *Chunk, prefetchBuffer), done: make(chan struct{})}
	f.head, f.headErr = src.Head()
	go f.run(src)
	return f
}

func (f *prefetchFeed) run(src ShardFeed) {
	defer close(f.ch)
	for {
		c, err := src.Next()
		if err == io.EOF {
			f.foot, f.err = src.Foot()
			return
		}
		if err != nil {
			f.err = err
			return
		}
		select {
		case f.ch <- c:
		case <-f.done:
			return
		}
	}
}

func (f *prefetchFeed) Head() (ShardHead, error) { return f.head, f.headErr }

func (f *prefetchFeed) Next() (*Chunk, error) {
	if f.closed {
		return nil, errFeedClosed
	}
	if c, ok := <-f.ch; ok {
		return c, nil
	}
	if f.err != nil {
		return nil, f.err
	}
	return nil, io.EOF
}

// Foot must not be called before Next has returned io.EOF (the
// ShardFeed contract; the merger keeps it).
func (f *prefetchFeed) Foot() (ShardFeedFoot, error) { return f.foot, f.err }

// Close cancels the producer, discards what it had buffered and returns
// once it has exited. Safe to call at any point of the drain, any number
// of times.
func (f *prefetchFeed) Close() error {
	if !f.closed {
		f.closed = true
		close(f.done)
	}
	for range f.ch {
	}
	return nil
}
