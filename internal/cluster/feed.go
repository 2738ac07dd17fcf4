package cluster

import (
	"io"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// nodeFeed adapts one node sub-stream to the engine's ShardFeed seam —
// the hello maps to the head, the wire foot to the feed foot — and is
// the only ShardFeed the coordinator's merge ever sees: the edge cache
// stores merged streams at the HTTP edge, so every feed is live. The
// adapter adds nothing to the merge semantics — those live in
// engine.MergeShards, which is what keeps the remote fan-out
// byte-identical to the local one. What it adds is:
//
//   - The coordinator's per-node observation point: every wait on the
//     node accumulates into the node-labeled substream histogram, and
//     the node's advisory foot timing lands on the request span.
//   - Mid-stream replica failover. The hello's slice digest pins the
//     content this feed committed to. When the live sub-stream dies
//     mid-merge, every untried sibling replica is offered the same
//     request; one whose hello carries the identical digest holds
//     byte-identical slice content, so its chunk sequence (same query,
//     same chunking) is byte-identical too — the already-delivered
//     prefix is skipped and the merge continues as if nothing happened.
//     The merged stream the client verifies — and the edge-cache fill
//     teed from it — never observes the failover.
//   - A sibling at a different digest is NOT resumable: a delta landed
//     between the pin and the death, and old content epochs exist only
//     on the node that pinned them. The feed then surfaces the original
//     error and the client-side retry re-pins at the fresh epoch — an
//     honest failure, never a spliced stream (see DESIGN.md,
//     "Replication").
type nodeFeed struct {
	c  *Coordinator
	ns *wire.NodeStream

	// url labels the node serving ns; hWait is its coordinator-side wait
	// histogram (obs.Labeled(StageSubStream, "node", url)); span, when
	// the request is traced, receives the node's own foot breakdown.
	url    string
	span   *obs.Span
	hWait  *obs.Histogram
	waitNS int64

	// req re-opens the sub-stream on a sibling, recycling its chunks as
	// the original did when reuse; hello (its Digest above all) pins what
	// the original replica promised; tried accumulates every node offered
	// this sub-range (seeded by openFeed's candidate loop).
	req   wire.ShardStreamRequest
	reuse bool
	hello wire.NodeHello
	tried map[string]bool

	delivered int
	closed    bool
}

// attach points the feed at a freshly opened sub-stream on url and moves
// the node's in-flight gauge with it.
func (f *nodeFeed) attach(ns *wire.NodeStream, url string) {
	f.ns, f.url = ns, url
	f.hWait = f.c.obs.Hist(obs.Labeled(obs.StageSubStream, "node", url))
	if nh := f.c.health[url]; nh != nil {
		nh.inflight.Add(1)
	}
}

// detach closes the current sub-stream and releases its node's gauge.
func (f *nodeFeed) detach() error {
	if nh := f.c.health[f.url]; nh != nil {
		nh.inflight.Add(-1)
	}
	return f.ns.Close()
}

func (f *nodeFeed) Head() (engine.ShardHead, error) {
	return engine.ShardHead{Shard: f.req.Shard, Left: f.hello.Left}, nil
}

func (f *nodeFeed) Next() (*engine.Chunk, error) {
	for {
		t0 := time.Now()
		ch, err := f.ns.Next()
		f.waitNS += int64(time.Since(t0))
		if err == nil {
			f.delivered++
			return ch, nil
		}
		if err == io.EOF || !f.failover() {
			return nil, err
		}
	}
}

// failover re-pins the live sub-stream onto a digest-identical sibling,
// skipping the already-delivered chunk prefix. Returns false when no
// sibling can resume byte-exactly (none left, or none at the pinned
// digest) — the caller then surfaces the original error.
func (f *nodeFeed) failover() bool {
	t0 := time.Now()
	if len(f.hello.Digest) == 0 {
		return false // node predates digest-carrying hellos; nothing pins content
	}
	for {
		url, err := f.c.pickReplica(f.req.Shard, f.tried)
		if err != nil {
			return false
		}
		f.tried[url] = true
		cl := f.c.clients[url]
		if cl == nil {
			continue
		}
		req := f.req
		req.RoutingEpoch = f.c.repoch.Load()
		ns, err := cl.ShardStream(req, f.reuse)
		if err != nil {
			continue
		}
		if !ns.Hello().Digest.Equal(f.hello.Digest) {
			ns.Close() // different content version — not byte-resumable
			continue
		}
		skipped := true
		for i := 0; i < f.delivered; i++ {
			if _, serr := ns.Next(); serr != nil {
				skipped = false
				break
			}
		}
		if !skipped {
			ns.Close()
			continue
		}
		f.detach()
		f.attach(ns, url)
		f.c.failovers.Add(1)
		f.c.obs.Hist(obs.StageFailover).ObserveSince(t0)
		f.span.Add(obs.StageFailover, time.Since(t0))
		return true
	}
}

func (f *nodeFeed) Foot() (engine.ShardFeedFoot, error) {
	t0 := time.Now()
	foot, err := f.ns.Foot()
	f.waitNS += int64(time.Since(t0))
	// One observation per sub-stream: the total time this feed spent
	// waiting on its node(s), attributed to the last one by label.
	f.hWait.Observe(time.Duration(f.waitNS))
	if err != nil {
		return engine.ShardFeedFoot{}, err
	}
	// The node's advisory self-report (assembly vs total on its side)
	// joins the trace labeled with the node, so a slow-log entry shows
	// where inside the node the time went, not just that the wait was
	// long.
	for _, sd := range foot.Timing {
		f.span.AddNS(obs.Labeled(sd.Stage, "node", f.url), sd.NS)
	}
	return engine.ShardFeedFoot{
		Entries:   foot.Entries,
		Partial:   foot.Partial,
		Right:     foot.Right,
		PredSig:   foot.PredSig,
		PredPrevG: foot.PredPrevG,
		NeedPrevG: foot.NeedPrevG,
	}, nil
}

func (f *nodeFeed) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.detach()
}
