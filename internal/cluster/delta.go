package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// ApplyDelta routes an owner update batch across the shard nodes with
// the same all-or-nothing contract the in-process partitioned server
// gives, held across processes by a two-phase protocol:
//
//  1. prepare — each affected node stages its shards' sub-batches:
//     apply on clones, stitch co-hosted mirrors, validate everything
//     locally checkable. Nothing publishes.
//  2. mirror fixes — for every seam whose sides stage on different
//     nodes, the coordinator pushes the owning side's staged edge
//     record to the neighbour, which validates the adjacent signature
//     against it and stages the fix.
//  3. seam checks — the coordinator re-proves every affected seam from
//     staged edge material (partition.CheckSeam): the digest compare
//     plus both hand-off signatures, exactly the validations the nodes
//     deferred.
//  4. commit — each node publishes its staged slices.
//
// A delta with no cross-node mirror fix costs two round trips: prepare
// and commit, each sent to every node at once and joined. The edge
// material of the ops shards' neighbours rides the prepare wave: a
// neighbour replica on a preparing node is named in its prepare request
// and comes back in the reply, read under the same lock as the staging;
// a replica on a node that gets no ops is probed (/shard/edges) while the
// others prepare. After prepare a probe goes out only for a seam the
// prepare itself created — the far side of a shard a preparing node
// stitched. The mirror fixes and phase 3 both read those edges, so each
// replica's are fetched once per delta. The mirror pushes stay serial: a
// node holds one staged transaction per relation and a token-0 mirror
// push opens it, so two staging calls in flight to one node would
// discard each other's staging — staging concurrency is across nodes,
// never within one. A durable node plans its commit (digests and WAL
// record) while the coordinator runs phases 2 and 3, so its commit is
// the WAL append.
//
// Replication makes the write path write-all: each shard's sub-batch
// goes to every non-quarantined replica, and the staged edge material
// must agree across a shard's replicas before anything commits —
// identical copies staging identical ops stage identical edges, so any
// disagreement means the copies had already diverged and committing
// would fork them (ErrReplicaDiverged). A replica that is unreachable
// fails the delta: availability under node death is the read path's
// property (failover); the write path prefers refusal over divergence —
// drop or re-prove the dead replica to restore writes (see
// docs/OPERATIONS.md).
//
// Any failure before commit aborts every staged transaction and leaves
// all published epochs untouched. The commit fan-out itself is not
// atomic across nodes — the same per-shard non-atomicity the in-process
// publish has — and readers absorb it the same way, by re-pinning on an
// observed hand-off mismatch. Content epochs move only after every
// commit has answered, so no cache fill taken while a replica still
// serves the pre-delta slice is filed under a post-delta key. A
// coordinator crash mid-protocol leaves only staged state, which the
// next prepare discards.
func (c *Coordinator) ApplyDelta(d delta.Delta) (uint64, error) {
	if d.Relation != c.spec.Relation {
		return 0, fmt.Errorf("%w: %q", engine.ErrUnknownRelation, d.Relation)
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	sp := obs.StartSpan("")
	defer func() {
		c.obs.Hist(obs.StageDeltaApply).Observe(sp.Elapsed())
		c.obs.Slow.Finish(sp, "delta", fmt.Sprintf("relation=%s ops=%d", d.Relation, len(d.Ops)))
	}()

	epoch, err := c.applyDelta(d, sp)
	if err != nil {
		c.errors.Add(1)
		return 0, err
	}
	c.deltasApplied.Add(1)
	return epoch, nil
}

// applyDelta runs the four phases, recording each one's time in its
// stage histogram and on sp, so a slow-log delta entry names its phase.
func (c *Coordinator) applyDelta(d delta.Delta, sp *obs.Span) (uint64, error) {
	k := c.spec.K()
	observe := func(stage string, t0 time.Time) {
		el := time.Since(t0)
		c.obs.Hist(stage).Observe(el)
		sp.Add(stage, el)
	}
	shardOps, err := delta.Route(c.spec, d)
	if err != nil {
		return 0, fmt.Errorf("cluster: delta rejected: %w", err)
	}

	// Fan each shard's sub-batch to every writable replica. opsShards
	// marks shards carrying ops (as opposed to neighbours staged only by
	// co-hosted stitching or mirror fixes) — the set whose cross-replica
	// agreement is checkable already at prepare.
	opsShards := map[int]bool{}
	nodeOps := map[string][]delta.Op{}
	for _, shard := range slices.Sorted(maps.Keys(shardOps)) {
		opsShards[shard] = true
		urls, err := c.writeReplicas(shard)
		if err != nil {
			return 0, err
		}
		for _, url := range urls {
			nodeOps[url] = append(nodeOps[url], shardOps[shard]...)
		}
	}

	// The edges of every replica of a shard beside an ops shard (and not
	// one itself) ride the prepare wave: a replica on a preparing node is
	// named in that node's request and its edges come back in the reply,
	// read under the lock the staging held; every other is probed, all at
	// once, while the nodes prepare. Probes are read-only, so several may
	// go to one node, and none goes to a preparing node, whose probe would
	// only queue behind its staging.
	type probe struct {
		shard int
		url   string
	}
	var early []probe
	named := map[string][]int{} // url → neighbour shards its prepare reply carries
	beside := map[int]bool{}
	for _, shard := range slices.Sorted(maps.Keys(shardOps)) {
		for _, nb := range []int{shard - 1, shard + 1} {
			if nb < 0 || nb >= k || opsShards[nb] || beside[nb] {
				continue
			}
			beside[nb] = true
			urls, err := c.writeReplicas(nb)
			if err != nil {
				return 0, fmt.Errorf("cluster: delta rejected: %w", err)
			}
			for _, url := range urls {
				if _, prepares := nodeOps[url]; prepares {
					named[url] = append(named[url], nb)
				} else {
					early = append(early, probe{nb, url})
				}
			}
		}
	}

	// Phase 1: prepare on every affected node. stagedOn[shard][url] is
	// the staged edge material per replica; a shard's replicas must
	// converge on identical material before commit. published[shard][url]
	// is the published edge material of a replica that staged nothing.
	tPhase := time.Now()
	tokens := map[string]uint64{}
	stagedOn := map[int]map[string]partition.Edges{}
	published := map[int]map[string]partition.Edges{}
	put := func(m map[int]map[string]partition.Edges, shard int, url string, e partition.Edges) {
		if m[shard] == nil {
			m[shard] = map[string]partition.Edges{}
		}
		m[shard][url] = e
	}
	record := func(shard int, url string, e partition.Edges) { put(stagedOn, shard, url, e) }
	// canon returns one replica's staged edges for a shard. The records a
	// caller reads from it (owned records, for mirror pushes and seam
	// checks) are replica-independent: stitching and mirror fixes touch
	// only context records, and the cross-replica agreement checks make
	// any drift an abort rather than a silent choice.
	canon := func(shard int) (partition.Edges, bool) {
		m := stagedOn[shard]
		if len(m) == 0 {
			return partition.Edges{}, false
		}
		urls := slices.Sorted(maps.Keys(m))
		return m[urls[0]], true
	}
	abort := func() {
		for url, tok := range tokens {
			if cl, err := c.client(url); err == nil {
				cl.NodeTx(wire.TxRequest{Relation: d.Relation, Token: tok, Commit: false})
			}
		}
	}
	// fold files one probe's published edges; a failed probe refuses the
	// delta by shard and node.
	fold := func(p probe, r wire.EdgeResponse, err error) error {
		if err != nil {
			return fmt.Errorf("cluster: delta rejected: edges of shard %d on %s: %w", p.shard, p.url, err)
		}
		put(published, p.shard, p.url, r.Edges)
		return nil
	}
	// Every node prepares at once, in one fan-out with the early probes;
	// the replies fold in URL order, so the agreement checks and their
	// error text are a serial loop's. Any failure aborts every token that
	// came back, including those of nodes later in URL order that
	// prepared concurrently.
	type reply struct {
		prep  wire.NodeDeltaResponse
		edges wire.EdgeResponse
	}
	prepURLs := slices.Sorted(maps.Keys(nodeOps))
	n := len(prepURLs)
	urls := slices.Clone(prepURLs)
	for _, p := range early {
		urls = append(urls, p.url)
	}
	replies, errs := fanOut(c, urls, func(cl *wire.Client, i int) (r reply, err error) {
		if i >= n {
			r.edges, err = cl.ShardEdges(wire.ShardRef{Relation: d.Relation, Shard: early[i-n].shard})
			return r, err
		}
		r.prep, err = cl.NodeDeltaPrepare(wire.NodeDeltaRequest{
			Delta: delta.Delta{Relation: d.Relation, Ops: nodeOps[urls[i]]}, Neighbours: named[urls[i]],
		})
		return r, err
	})
	for i, url := range prepURLs {
		if errs[i] == nil {
			tokens[url] = replies[i].prep.Token
		}
	}
	for i, url := range prepURLs {
		if errs[i] != nil {
			abort()
			return 0, fmt.Errorf("cluster: prepare on %s: %w", url, errs[i])
		}
		for _, m := range replies[i].prep.Modified {
			if opsShards[m.Shard] {
				// Identical copies staging identical sub-batches must stage
				// identical owned records. Context records are exempt until
				// the mirror-fix phase: a replica co-hosting the neighbouring
				// ops-shard stitches its context during prepare, a sibling
				// that does not converges in phase 2 — the full six-record
				// agreement is re-checked there.
				for prior, e := range stagedOn[m.Shard] {
					if !ownedEdgesEqual(e, m.Edges) {
						abort()
						return 0, fmt.Errorf("%w: shard %d staged differently on %s and %s",
							ErrReplicaDiverged, m.Shard, prior, url)
					}
				}
			}
			record(m.Shard, url, m.Edges)
		}
		// A named neighbour the node stitched is in Modified already.
		for _, nb := range replies[i].prep.Neighbours {
			if _, staged := stagedOn[nb.Shard][url]; !staged && slices.Contains(named[url], nb.Shard) {
				put(published, nb.Shard, url, nb.Edges)
			}
		}
	}
	for i, p := range early {
		if err := fold(p, replies[n+i].edges, errs[n+i]); err != nil {
			abort()
			return 0, err
		}
	}

	observe(obs.StageDeltaPrepare, tPhase)

	// Phase 2: cross-node mirror fixes. A staged shard's edge records
	// must be mirrored by every replica of its neighbours; replicas
	// stitched during prepare (co-hosted on a preparing node) are already
	// accurate, the rest get a pushed fix — which opens a fresh staging
	// transaction on nodes not yet in the delta (token 0).
	tPhase = time.Now()
	modified := slices.Sorted(maps.Keys(stagedOn))
	neighbours := map[int][]string{} // shard → its write replicas
	for _, i := range modified {
		for _, nb := range []int{i - 1, i + 1} {
			if nb < 0 || nb >= k || neighbours[nb] != nil {
				continue
			}
			urls, err := c.writeReplicas(nb)
			if err != nil {
				abort()
				return 0, fmt.Errorf("cluster: delta rejected: %w", err)
			}
			neighbours[nb] = urls
		}
	}
	// A neighbour replica that staged nothing and whose edges the prepare
	// wave did not bring is probed now, all at once: only the far side of
	// a shard a preparing node stitched, a seam the prepare itself
	// created. The mirror fixes and the seam checks below read the staged
	// and published edges alike.
	var late []probe
	for _, nb := range slices.Sorted(maps.Keys(neighbours)) {
		for _, url := range neighbours[nb] {
			_, staged := stagedOn[nb][url]
			if _, known := published[nb][url]; !staged && !known {
				late = append(late, probe{nb, url})
			}
		}
	}
	var lateURLs []string
	for _, p := range late {
		lateURLs = append(lateURLs, p.url)
	}
	edges, errs := fanOut(c, lateURLs, func(cl *wire.Client, i int) (wire.EdgeResponse, error) {
		return cl.ShardEdges(wire.ShardRef{Relation: d.Relation, Shard: late[i].shard})
	})
	for i, p := range late {
		if err := fold(p, edges[i], errs[i]); err != nil {
			abort()
			return 0, err
		}
	}
	// currentEdgesOn is a replica's edge material as the delta left it so
	// far: staged if it staged, published otherwise.
	currentEdgesOn := func(shard int, url string) partition.Edges {
		if e, ok := stagedOn[shard][url]; ok {
			return e
		}
		return published[shard][url]
	}
	pushMirror := func(neighbour int, url string, left bool, want core.SignedRecord) error {
		edges := currentEdgesOn(neighbour, url)
		cur := edges.Head[0]
		if !left {
			cur = edges.Tail[2]
		}
		if partition.SameRecord(&cur, &want) {
			return nil // mirror already accurate (or co-hosted stitch fixed it)
		}
		cl, err := c.client(url)
		if err != nil {
			return err
		}
		resp, err := cl.NodeMirror(wire.MirrorRequest{
			Token: tokens[url], Relation: d.Relation, Shard: neighbour, Left: left, Rec: want,
		})
		if err != nil {
			return fmt.Errorf("mirror fix for shard %d on %s: %w", neighbour, url, err)
		}
		tokens[url] = resp.Token
		record(neighbour, url, resp.Edges)
		return nil
	}
	// Mirror pushes open or extend a node's staging, so they go one at a
	// time (fanOut's one-call-per-node rule).
	pushMirrors := func(neighbour int, left bool, want core.SignedRecord) error {
		for _, url := range neighbours[neighbour] {
			if err := pushMirror(neighbour, url, left, want); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range modified {
		e, _ := canon(i)
		if i > 0 {
			// Left neighbour's right context must mirror shard i's first
			// owned record — on every replica of the neighbour.
			if err := pushMirrors(i-1, false, e.Head[1]); err != nil {
				abort()
				return 0, fmt.Errorf("cluster: delta rejected: %w", err)
			}
		}
		if i < k-1 {
			// Right neighbour's left context must mirror shard i's last
			// owned record — on every replica of the neighbour.
			if err := pushMirrors(i+1, true, e.Tail[1]); err != nil {
				abort()
				return 0, fmt.Errorf("cluster: delta rejected: %w", err)
			}
		}
	}

	// With the mirror fixes in, every staged shard's replicas must hold
	// identical edge material — the write-all agreement that keeps R
	// copies one logical slice.
	for _, shard := range slices.Sorted(maps.Keys(stagedOn)) {
		m := stagedOn[shard]
		urls := slices.Sorted(maps.Keys(m))
		for _, url := range urls[1:] {
			if !edgesEqual(m[urls[0]], m[url]) {
				abort()
				return 0, fmt.Errorf("%w: shard %d staged differently on %s and %s after mirror fixes",
					ErrReplicaDiverged, shard, urls[0], url)
			}
		}
	}

	observe(obs.StageDeltaMirror, tPhase)

	// Phase 3: seam checks over staged edge material — the validations
	// the nodes deferred, plus the digest compare, for every seam
	// adjacent to anything staged.
	tPhase = time.Now()
	// A shard no replica staged is read from its probed published edges:
	// every replica of it already mirrored the staged side (no fix was
	// pushed), and the lowest URL's copy is the one checked, as canon
	// picks among staged copies.
	currentEdges := func(shard int) partition.Edges {
		if e, ok := canon(shard); ok {
			return e
		}
		m := published[shard]
		return m[slices.Min(slices.Collect(maps.Keys(m)))]
	}
	seams := map[int]bool{} // seam x joins shards x and x+1
	for _, i := range modified {
		if i > 0 {
			seams[i-1] = true
		}
		if i < k-1 {
			seams[i] = true
		}
	}
	for _, x := range slices.Sorted(maps.Keys(seams)) {
		if err := partition.CheckSeam(c.h, c.pub, c.params, currentEdges(x), currentEdges(x+1)); err != nil {
			abort()
			return 0, fmt.Errorf("cluster: delta rejected: seam %d-%d: %w", x, x+1, err)
		}
	}

	observe(obs.StageDeltaSeam, tPhase)

	// Phase 4: commit everywhere, at once. Failures here are partial by
	// nature; report them with the nodes that did commit so the operator
	// can reconcile (the staged-versus-published divergence is visible in
	// /shard/digest). Each staged shard's content epoch is bumped once,
	// after the join, committed or not: the bump retires cached bytes, and
	// bumping before the last replica commits would let a fill read off a
	// not-yet-committed replica land under the post-delta key.
	tPhase = time.Now()
	defer observe(obs.StageDeltaCommit, tPhase)
	// Durably bracket the commit fan-out: if the coordinator dies inside
	// it, the next incarnation finds the open staged record in its log
	// and knows any divergence it inventories is an in-flight commit —
	// some nodes durably committed, some did not — rather than guessing
	// from digests alone. A coordinator that cannot log the bracket
	// aborts rather than committing with amnesia; a partial-commit
	// failure below deliberately leaves the record open.
	if c.clog != nil {
		if err := c.clog.LogStagedBegin(d.Relation, tokens); err != nil {
			abort()
			return 0, fmt.Errorf("cluster: delta rejected: staged-token log append: %w", err)
		}
	}
	commitURLs := slices.Sorted(maps.Keys(tokens))
	acks, errs := fanOut(c, commitURLs, func(cl *wire.Client, i int) (wire.OKResponse, error) {
		return cl.NodeTx(wire.TxRequest{Relation: d.Relation, Token: tokens[commitURLs[i]], Commit: true})
	})
	c.bumpShards(slices.Sorted(maps.Keys(stagedOn))...)
	var epoch uint64
	var committed []string
	for i, url := range commitURLs {
		if errs[i] == nil {
			committed = append(committed, url)
			epoch = max(epoch, acks[i].Epoch)
		}
	}
	for i, url := range commitURLs {
		if errs[i] != nil {
			return 0, fmt.Errorf("cluster: commit on %s failed after %d of %d nodes committed (%v): %w",
				url, len(committed), len(tokens), committed, errs[i])
		}
	}
	if c.clog != nil {
		if err := c.clog.LogStagedEnd(d.Relation, true); err != nil {
			c.persistFailures.Add(1)
		}
	}
	return epoch, nil
}

// fanOut makes one node RPC per entry of urls at once and returns the
// replies and errors in urls' order once all have answered — the join
// both all-node phases of a delta, its neighbour edge probes and Place's
// per-node installs share; a delta's early probes ride the prepare
// fan-out. call gets the entry's index, so a caller can
// address each call by more than its node (the probes go out per
// (shard, url) pair). A node may appear more than once only for
// read-only calls: the staging calls (prepare, mirror fixes, commit) go
// one per node, because a node holds one staged transaction per
// relation and two calls in flight would discard each other's staging.
// Every goroutine has exited when fanOut returns.
func fanOut[T any](c *Coordinator, urls []string, call func(cl *wire.Client, i int) (T, error)) ([]T, []error) {
	out, errs := make([]T, len(urls)), make([]error, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := c.client(url)
			if err == nil {
				out[i], err = call(cl, i)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return out, errs
}
