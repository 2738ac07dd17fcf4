package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/core"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// Cluster errors. Each is an operator-facing condition; see
// docs/OPERATIONS.md for remediations.
var (
	// ErrDistinct refuses DISTINCT queries at the coordinator. Duplicate
	// elision is the verifier's since record format 1, so nothing in a
	// fan-out stands in the way; the cluster's caching and merge paths
	// have simply never been held to DISTINCT, so it stays refused until
	// they are (ROADMAP). Route DISTINCT queries at a single-process
	// publisher of the same publication.
	ErrDistinct = errors.New("cluster: DISTINCT queries are not served across shard nodes")
	// ErrUnknownNode names a node URL outside the coordinator's
	// configured set.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNoRoute reports a shard with no assigned node — the routing
	// table is incomplete (failed placement or recovery).
	ErrNoRoute = errors.New("cluster: shard has no assigned node")
	// ErrRoutingStale reports a routing-epoch mismatch that retrying did
	// not clear: a node keeps refusing a shard the current routing table
	// assigns to it. The table and the node disagree about placement —
	// usually an out-of-band removal or a half-finished migration.
	ErrRoutingStale = errors.New("cluster: routing epoch stale: node refuses an assigned shard")
	// ErrClusterPin reports a cross-node epoch set whose hand-offs would
	// not settle while pinning — sustained boundary churn; retry the
	// query.
	ErrClusterPin = errors.New("cluster: shard hand-offs unstable while pinning cross-node epoch set")
	// ErrSpecMismatch reports nodes hosting slices of different
	// partition layouts (spec versions) for one relation.
	ErrSpecMismatch = errors.New("cluster: nodes disagree on the partition spec")
	// ErrPrevGUnannounced refuses a merged stream whose first sub-stream's
	// foot needs the preceding shard's edge material (an empty range whose
	// predecessor is the slice's left context) that its hello did not
	// announce, so none was pinned with the cover. Only a node that lies
	// in its hello gets here; the stream ends before its footer.
	ErrPrevGUnannounced = errors.New("cluster: first sub-stream needs predecessor material its hello did not announce")
)

// Config parameterizes a Coordinator. Everything here arrives over the
// owner's authenticated channel (wire.ClientParams) except the node set,
// which is deployment configuration.
type Config struct {
	Hasher *hashx.Hasher
	Pub    *sig.PublicKey
	Params core.Params
	Schema relation.Schema
	Policy accessctl.Policy
	// Spec is the authenticated partition layout the coordinator owns.
	Spec partition.Spec
	// Nodes are the shard-node base URLs.
	Nodes []string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// ChunkRows bounds entries per chunk on node sub-streams when the
	// client request does not choose; 0 = engine.DefaultChunkRows.
	ChunkRows int
	// Cache is the optional edge-cache tier client (internal/cache): the
	// HTTP /stream handler serves merged streams from it and fills them
	// into it; in-process QueryStream callers never see it. Nil disables
	// the tier entirely.
	Cache *cache.Client
	// Obs receives the coordinator's stage histograms and slow-query log;
	// nil builds a fresh registry.
	Obs *obs.Registry
	// SlowThreshold overrides the slow-query retention threshold when
	// non-zero (negative disables retention).
	SlowThreshold time.Duration
	// Replicas is the replication factor R: Place installs every shard's
	// slice on R distinct nodes and queries pick the least-loaded live
	// replica. 0 or 1 keeps single-copy placement (the pre-replication
	// behavior); values beyond len(Nodes) are clamped.
	Replicas int
	// LeaseTTL is how long one acknowledged heartbeat keeps a node live
	// for routing; 0 = DefaultLeaseTTL. Expiry demotes a node — it is
	// skipped while live siblings exist — but never deletes it.
	LeaseTTL time.Duration
	// Clock overrides lease time (deterministic expiry tests); nil =
	// time.Now.
	Clock func() time.Time
	// Advertise identifies this coordinator in lease grants (its URL in
	// deployments, any tag in tests). Nodes let a different coordinator
	// name take over a lease regardless of sequence numbers.
	Advertise string
	// Log is the coordinator's durable log (internal/store): every
	// routing-table swing is recorded at its epoch, and two-phase delta
	// commits bracket their commit fan-out with staged-token records —
	// what lets Recover resolve ambiguous crash windows by reading its
	// own log instead of guessing. Nil keeps the coordinator
	// memory-only (the pre-durability behaviour).
	Log *store.CoordLog
}

// DefaultLeaseTTL is the lease duration when Config.LeaseTTL is zero.
const DefaultLeaseTTL = 15 * time.Second

// Coordinator owns the routing table of one partitioned publication and
// serves the user-facing API over remote shard nodes. All exported
// methods may be called concurrently.
type Coordinator struct {
	h         *hashx.Hasher
	pub       *sig.PublicKey
	params    core.Params
	schema    relation.Schema
	policy    accessctl.Policy
	spec      partition.Spec
	chunkRows int

	nodes   []string
	clients map[string]*wire.Client

	// mu guards the routing table; repoch counts its versions. Queries
	// read the table lock-free of ctl; migrations swing it atomically.
	// route[shard] is the shard's replica set; index 0 is the primary
	// (the compatibility face of Routing() and the write path's seam
	// canon), the rest are siblings queries fail over to.
	mu     sync.RWMutex
	route  [][]string
	repoch atomic.Uint64

	// Replication: per-node lease/health state (see replica.go), the
	// replication factor, and the heartbeat identity.
	replicas  int
	leaseTTL  time.Duration
	clock     func() time.Time
	advertise string
	health    map[string]*nodeHealth
	hbSeq     atomic.Uint64

	// ctl serializes control-plane writes: distributed deltas and
	// migration cutovers. Queries never take it.
	ctl sync.Mutex

	// cache is the optional edge-cache tier; epochs holds one content
	// epoch per shard, bumped on every commit/cutover that can change the
	// shard's served bytes, and the bump generation that counts the bumps.
	// A cache key binds the epochs of the shards its stream covers, which
	// is what makes invalidation exact: once a covering shard is bumped
	// the old entries are unaskable by key, before any sweep lands. bumpMu
	// serializes bumps; readers load one vector, never a mix of two.
	cache  *cache.Client
	epochs atomic.Pointer[epochVector]
	bumpMu sync.Mutex
	// incarnation is this coordinator's random nonce, bound into every
	// cache key: content epochs restart at zero with each coordinator, so
	// a successor re-issues its predecessor's epoch numbers, and only the
	// nonce keeps a stale entry a missed sweep left behind unaskable.
	incarnation uint64

	// clog is the durable coordinator log (nil = memory-only);
	// persistFailures counts best-effort appends that failed.
	clog            *store.CoordLog
	persistFailures atomic.Uint64

	queries, streams, fanouts, errors atomic.Uint64
	handoffRetries, routingRetries    atomic.Uint64
	deltasApplied, migrations         atomic.Uint64
	failovers, demotions, promotions  atomic.Uint64
	quarantines, leaseRenewals        atomic.Uint64

	// obs holds the coordinator's stage histograms and slow log; the hot
	// pin/merge paths cache their histogram pointers.
	obs  *obs.Registry
	hPin *obs.Histogram // pin_feeds
}

// New builds a coordinator. The routing table starts empty; fill it with
// Place (fresh deployment) or Recover (adopt what nodes already host).
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.Hasher == nil {
		cfg.Hasher = hashx.New()
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(cfg.Nodes) {
		replicas = len(cfg.Nodes)
	}
	leaseTTL := cfg.LeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	var nonce [8]byte
	_, _ = rand.Read(nonce[:]) // never fails: crypto/rand crashes the process instead
	c := &Coordinator{
		h:         cfg.Hasher,
		pub:       cfg.Pub,
		params:    cfg.Params,
		schema:    cfg.Schema,
		policy:    cfg.Policy,
		spec:      cfg.Spec,
		chunkRows: cfg.ChunkRows,
		nodes:     append([]string(nil), cfg.Nodes...),
		clients:   make(map[string]*wire.Client, len(cfg.Nodes)),
		route:     make([][]string, cfg.Spec.K()),
		replicas:  replicas,
		leaseTTL:  leaseTTL,
		clock:     cfg.Clock,
		advertise: cfg.Advertise,
		health:    make(map[string]*nodeHealth, len(cfg.Nodes)),
		cache:     cfg.Cache,
		clog:      cfg.Log,

		incarnation: binary.LittleEndian.Uint64(nonce[:]),
	}
	c.epochs.Store(&epochVector{shards: make([]uint64, cfg.Spec.K())})
	if c.advertise == "" {
		c.advertise = "coordinator"
	}
	for _, url := range c.nodes {
		c.clients[url] = &wire.Client{BaseURL: url, HTTP: cfg.HTTP}
		c.health[url] = &nodeHealth{}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.SlowThreshold != 0 {
		reg.Slow.SetThreshold(cfg.SlowThreshold)
	}
	c.obs = reg
	c.hPin = reg.Hist(obs.StagePinFeeds)
	processVar.Add(c)
	return c, nil
}

// Obs returns the coordinator's observability registry.
func (c *Coordinator) Obs() *obs.Registry { return c.obs }

// Close unregisters the coordinator from the process expvar aggregate and
// waits for the cache sweeps its bumps queued.
func (c *Coordinator) Close() {
	processVar.Remove(c)
	if c.cache != nil {
		c.cache.Wait()
	}
}

// Spec returns the authenticated partition layout.
func (c *Coordinator) Spec() partition.Spec { return c.spec }

// RoutingEpoch returns the routing table's version counter.
func (c *Coordinator) RoutingEpoch() uint64 { return c.repoch.Load() }

// Routing snapshots the routing table as one node URL per shard — the
// primary of each replica set, which is what single-copy deployments
// always had. ReplicaSets exposes the full sets.
func (c *Coordinator) Routing() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.route))
	for i, set := range c.route {
		if len(set) > 0 {
			out[i] = set[0]
		}
	}
	return out
}

// ReplicaSets snapshots every shard's replica set; index 0 of each set
// is the primary.
func (c *Coordinator) ReplicaSets() [][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][]string, len(c.route))
	for i, set := range c.route {
		out[i] = append([]string(nil), set...)
	}
	return out
}

// client resolves a node URL to its wire client.
func (c *Coordinator) client(url string) (*wire.Client, error) {
	cl := c.clients[url]
	if cl == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, url)
	}
	return cl, nil
}

// routeFor resolves a shard to its primary node — the control-plane
// anchor (migration source, seam canon). The read path goes through
// pickReplica instead.
func (c *Coordinator) routeFor(shard int) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if shard < 0 || shard >= len(c.route) {
		return "", fmt.Errorf("%w: shard %d of %d", ErrNoRoute, shard, len(c.route))
	}
	if len(c.route[shard]) == 0 || c.route[shard][0] == "" {
		return "", fmt.Errorf("%w: shard %d", ErrNoRoute, shard)
	}
	return c.route[shard][0], nil
}

// epochVector is one version of the content epochs: gen counts the bumps
// that made it, shards holds each shard's epoch. A published vector is
// never written.
type epochVector struct {
	gen    uint64
	shards []uint64
}

// contentEpochs snapshots the per-shard content epoch vector.
func (c *Coordinator) contentEpochs() []uint64 {
	return slices.Clone(c.epochs.Load().shards)
}

// bumpShards advances the named shards' content epochs and the bump
// generation in one new vector, then queues the cache sweeps: each
// shard's group (the streams that shard alone covers) drops entries
// older than its fresh epoch, and the relation's multi-shard group,
// whose entries are filed at the generation their key was read at, drops
// entries older than the fresh generation (coarser than the keys, which
// bind only their own cover). The bump is the correctness mechanism —
// old keys become unaskable the moment the vector moves, and keys bind
// this coordinator's incarnation, so no successor's epoch reaches them
// either; a sweep only reclaims the bytes, so the caller does not wait
// for it, and since it drops only what is older than the epochs it
// carries, a sweep that lands after a later bump's fills leaves them.
func (c *Coordinator) bumpShards(shards ...int) {
	if len(shards) == 0 {
		return
	}
	c.bumpMu.Lock()
	old := c.epochs.Load()
	v := &epochVector{gen: old.gen + 1, shards: slices.Clone(old.shards)}
	for _, s := range shards {
		v.shards[s]++
	}
	c.epochs.Store(v)
	c.bumpMu.Unlock()
	if c.cache == nil {
		return
	}
	groups := make([]wire.CacheGroup, 0, len(shards)+1)
	for _, s := range shards {
		groups = append(groups, wire.CacheGroup{Relation: c.spec.Relation, Shard: s, Keep: v.shards[s]})
	}
	c.cache.Invalidate(append(groups, wire.CacheGroup{Relation: c.spec.Relation, Shard: cache.StreamShard, Keep: v.gen})...)
}

// bumpAllShards is bumpShards over the whole key space — placement and
// recovery rewrite the routing table wholesale, so every shard's cached
// bytes are suspect.
func (c *Coordinator) bumpAllShards() {
	all := make([]int, c.spec.K())
	for i := range all {
		all[i] = i
	}
	c.bumpShards(all...)
}

// cacheStreamKey names the merged stream of one planned request. It
// binds the content epochs of the covering shards only, which is exact:
// everything the stream carries comes from those shards, except the
// empty-range predecessor digest g(pred-1) read off shard first-1's tail
// — and a delta that moves that digest must re-sign shard first-1's last
// record, whose mirror is shard first's left context, so applyDelta
// stages (and bumps) shard first as well. A single-shard cover is filed
// in its shard's invalidation group at that epoch; a wider one in the
// relation-wide StreamShard group at the bump generation of the vector
// its epochs came from.
func (c *Coordinator) cacheStreamKey(roleName string, q engine.Query, sub []partition.SubRange, chunkRows int) cache.Key {
	k := cache.Key{
		Relation:    c.spec.Relation,
		Incarnation: c.incarnation,
		SpecVersion: c.spec.Version,
		Shard:       cache.StreamShard,
		Role:        roleName,
		Query:       q,
		ChunkRows:   chunkRows,
	}
	if chunkRows == 0 {
		k.ChunkRows = c.chunkRows
	}
	v := c.epochs.Load()
	if len(sub) == 1 {
		k.Shard = sub[0].Shard
		k.Epoch = v.shards[k.Shard]
		return k
	}
	k.Epoch = v.gen
	k.Epochs = make([]uint64, len(sub))
	for i, sr := range sub {
		k.Epochs[i] = v.shards[sr.Shard]
	}
	return k
}

// Place distributes a validated partition set across the nodes
// round-robin and installs every slice on R distinct nodes (replica r of
// shard i lands on node (i+r) mod N) — the fresh-deployment path. The
// set must match the coordinator's spec. With Replicas 1 the layout is
// exactly the pre-replication placement.
//
// Nodes install concurrently (fanOut), and each node takes its slices in
// (shard, replica) order and stops at its first refusal, so a node still
// sees one install at a time while the transfers, validations and WAL
// syncs of different nodes overlap. The refusal reported is the one a
// serial loop would have met first: the lowest failing (shard, replica).
// The routing table is set only after every install succeeded.
func (c *Coordinator) Place(set *partition.Set) error {
	if !set.Spec.Same(c.spec) {
		return fmt.Errorf("%w: placing v%d over coordinator v%d", ErrSpecMismatch, set.Spec.Version, c.spec.Version)
	}
	if len(set.Slices) != c.spec.K() {
		return fmt.Errorf("%w: %d slices for %d shards", partition.ErrSetInvalid, len(set.Slices), c.spec.K())
	}
	assign := make([][]string, c.spec.K())
	slots := make(map[string][]int, len(c.nodes)) // per node, slot i*R+r ascending
	for i := range set.Slices {
		for r := 0; r < c.replicas; r++ {
			url := c.nodes[(i+r)%len(c.nodes)]
			assign[i] = append(assign[i], url)
			slots[url] = append(slots[url], i*c.replicas+r)
		}
	}
	urls := slices.Collect(maps.Keys(slots)) // each node once: one install at a time
	failAt, errs := fanOut(c, urls, func(cl *wire.Client, i int) (int, error) {
		for _, at := range slots[urls[i]] {
			if err := c.installSlice(cl, at/c.replicas, set.Slices[at/c.replicas]); err != nil {
				return at, err
			}
		}
		return 0, nil
	})
	first := -1
	for n, err := range errs {
		if err != nil && (first < 0 || failAt[n] < failAt[first]) {
			first = n
		}
	}
	if first >= 0 {
		at := failAt[first]
		return fmt.Errorf("cluster: installing shard %d replica %d on %s: %w", at/c.replicas, at%c.replicas, urls[first], errs[first])
	}
	c.mu.Lock()
	c.route = assign
	c.mu.Unlock()
	c.repoch.Add(1)
	c.persistRouting()
	c.bumpAllShards()
	return nil
}

// persistRouting logs the current routing table at its epoch to the
// durable coordinator log. Best-effort: queries route from memory, so
// a failed append costs recovery determinism on the next cold start,
// never serving correctness — it is counted and surfaced in Stats.
func (c *Coordinator) persistRouting() {
	if c.clog == nil {
		return
	}
	route := c.ReplicaSets()
	if err := c.clog.LogRouting(c.repoch.Load(), route); err != nil {
		c.persistFailures.Add(1)
	}
}

// installSlice streams one local slice to a node's install endpoint.
func (c *Coordinator) installSlice(cl *wire.Client, shard int, sl *core.SignedRelation) error {
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		man := wire.ShardManifest{Spec: c.spec, Shard: shard}
		pw.CloseWithError(wire.WriteShardTransfer(pw, c.h, man, sl))
	}()
	_, err := cl.ShardInstall(pr)
	pr.Close() // a writer the node stopped reading fails its next write
	<-wrote
	return err
}

// plan counts one query, resolves the role, validates and rewrites the
// query, and decomposes it over the spec.
func (c *Coordinator) plan(roleName string, q engine.Query) (engine.Query, []partition.SubRange, error) {
	c.queries.Add(1)
	c.streams.Add(1)
	refuse := func(err error) (engine.Query, []partition.SubRange, error) {
		c.errors.Add(1)
		return engine.Query{}, nil, err
	}
	if q.Relation != c.spec.Relation {
		return refuse(fmt.Errorf("%w: %q", engine.ErrUnknownRelation, q.Relation))
	}
	_, eff, err := engine.PlanQuery(c.policy, c.params, c.schema, roleName, q)
	if err != nil {
		return refuse(err)
	}
	if eff.Distinct {
		return refuse(ErrDistinct)
	}
	sub := c.spec.Decompose(eff.KeyLo, eff.KeyHi)
	if len(sub) > 1 {
		c.fanouts.Add(1)
	}
	return eff, sub, nil
}

// QueryStream answers one query as a verifiable chunk stream merged from
// per-node shard sub-streams. The stream is byte-identical to what a
// single process serving the same slices would emit, so the unmodified
// client verifiers accept it unchanged. It always reads origin: the edge
// cache sits in front of the HTTP /stream handler, where the bytes are.
func (c *Coordinator) QueryStream(roleName string, q engine.Query, chunkRows int) (engine.ResultStream, error) {
	eff, sub, err := c.plan(roleName, q)
	if err != nil {
		return nil, err
	}
	return c.mergeStream(roleName, q, eff, sub, engine.StreamOpts{ChunkRows: chunkRows}, nil)
}

// mergeStream pins one live feed per covering shard of a planned query
// and merges them. opts.ReuseChunks carries to the node feeds, whose
// chunks the merged stream passes on: the caller promises to be done
// with each chunk when it pulls the next. It carries an optional request
// span: the span's trace ID propagates to every shard node (one trace
// stitches the whole fan-out) and the per-node sub-stream breakdowns
// land on the span as they arrive. A nil span serves untraced with zero
// overhead beyond the histogram observations.
func (c *Coordinator) mergeStream(roleName string, q, eff engine.Query, sub []partition.SubRange, opts engine.StreamOpts, span *obs.Span) (engine.ResultStream, error) {
	chunkRows := opts.ChunkRows
	if chunkRows == 0 {
		chunkRows = c.chunkRows
	}
	tPin := time.Now()
	feeds, prevG, err := c.pinFeeds(roleName, q, sub, chunkRows, opts.ReuseChunks, span)
	c.hPin.ObserveSince(tPin)
	span.Add(obs.StagePinFeeds, time.Since(tPin))
	if err != nil {
		c.errors.Add(1)
		return nil, err
	}
	st, err := engine.MergeShards(c.pub, true, eff, feeds, prevG)
	if err != nil {
		c.errors.Add(1)
		closeFeeds(feeds)
		return nil, err
	}
	return st, nil
}

// pinRetries bounds the cross-node pin loop. Each retry opens fresh
// sub-streams, so the bound is small.
const pinRetries = 8

// pinFeeds opens one live sub-stream per covering shard and checks every
// adjacent hand-off by digest compare. A mismatch (boundary delta or
// migration mid-cutover) closes everything and re-pins; a node's
// not-hosting refusal re-reads the routing table (a migration may have
// swung mid-query) and retries. When the first feed's hello announces
// that an empty range would need the preceding shard's g digest
// (NodeHello.NeedPrevG, only ever on a cover past shard 0), that shard's
// edge material is pinned with the set (and hand-off-checked against the
// first feed), so the empty-range predecessor digest is epoch-consistent
// with the cover — the cut an in-process read gets by pinning under the
// hosting table's lock, which no cross-process read can take. Any other
// cover needs no probe; its PrevG refuses by name (ErrPrevGUnannounced)
// if the foot asks after all. Every feed is a node's: the edge cache
// never enters the merge.
func (c *Coordinator) pinFeeds(roleName string, q engine.Query, sub []partition.SubRange, chunkRows int, reuse bool, span *obs.Span) ([]engine.ShardFeed, engine.PrevG, error) {
	var trace string
	if span != nil {
		trace = span.Trace
	}
	var lastErr error
	for attempt := 0; attempt < pinRetries; attempt++ {
		repoch := c.repoch.Load()
		feeds := make([]engine.ShardFeed, 0, len(sub))
		// pinned keeps each feed's hello and serving node, so a failed
		// seam check can be attributed to a lying replica.
		pinned := make([]*nodeFeed, 0, len(sub))
		ok := true
		// staleRouting classifies a not-hosting refusal: transparent
		// retry when the table moved under us, hard error otherwise.
		staleRouting := func(shard int, url string, err error) error {
			c.routingRetries.Add(1)
			if c.repoch.Load() == repoch {
				return fmt.Errorf("%w: shard %d at %s (routing epoch %d): %v",
					ErrRoutingStale, shard, url, repoch, err)
			}
			lastErr = err
			ok = false
			return nil
		}
		for i, sr := range sub {
			nf, err := c.openFeed(wire.ShardStreamRequest{
				Role: roleName, Query: q, Shard: sr.Shard,
				Lo: sr.Lo, Hi: sr.Hi,
				First: i == 0, Last: i == len(sub)-1,
				ChunkRows: chunkRows, RoutingEpoch: repoch,
				Trace: trace,
			}, reuse, span)
			if err != nil {
				closeFeeds(feeds)
				if wire.IsNotHosting(err) {
					// Every usable replica refused the shard: the table
					// and the replica set disagree about placement.
					if herr := staleRouting(sr.Shard, "(all replicas)", err); herr != nil {
						return nil, nil, herr
					}
					break
				}
				return nil, nil, err
			}
			feeds = append(feeds, nf)
			pinned = append(pinned, nf)
			if i == 0 {
				continue
			}
			tSeam := time.Now()
			seamOK := pinned[i-1].hello.Edges.HandoffOK(nf.hello.Edges)
			c.obs.Hist(obs.StageSeamCheck).ObserveSince(tSeam)
			if !seamOK {
				// A boundary change is mid-cutover somewhere between these
				// two nodes' pins — or a replica lying about its seam
				// material. Attribute first (a Byzantine replica caught
				// here is quarantined, so the re-pin lands on a sibling),
				// then re-pin the whole set.
				c.handoffRetries.Add(1)
				lastErr = fmt.Errorf("hand-off between shards %d and %d disagrees", sub[i-1].Shard, sr.Shard)
				ok = false
				c.investigateSeam(pinned[i-1])
				c.investigateSeam(nf)
				break
			}
		}
		prevG := unannounced
		if ok && sub[0].Shard > 0 && pinned[0].hello.NeedPrevG {
			// Pin the preceding shard's seam material with the cover: the
			// empty-range corner needs g(pred-1) from it, and a lazy fetch
			// at footer time could observe a later epoch than the pinned
			// first slice.
			prev := sub[0].Shard - 1
			resp, url, err := c.probeEdges(prev)
			switch {
			case err != nil && wire.IsNotHosting(err):
				if herr := staleRouting(prev, url, err); herr != nil {
					closeFeeds(feeds)
					return nil, nil, herr
				}
			case err != nil:
				closeFeeds(feeds)
				return nil, nil, fmt.Errorf("cluster: shard %d at %s: %w", prev, url, err)
			case !resp.Edges.HandoffOK(pinned[0].hello.Edges):
				c.handoffRetries.Add(1)
				lastErr = fmt.Errorf("hand-off between shards %d and %d disagrees", prev, sub[0].Shard)
				ok = false
				c.investigateSeam(pinned[0])
			default:
				g := resp.Edges.Tail[0].G
				prevG = func() (hashx.Digest, error) { return g, nil }
			}
		}
		if ok {
			return feeds, prevG, nil
		}
		closeFeeds(feeds)
		runtime.Gosched()
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrClusterPin, lastErr)
}

// openFeed opens one shard sub-stream on the best usable replica. A
// candidate that dies at the transport level (or hangs past the client
// budget) before delivering its hello is skipped for the next sibling —
// the pre-hello failover path; a candidate that answers not-hosting is
// likewise skipped, and only when every candidate refused does the
// not-hosting surface (the caller's stale-routing classification). The
// returned feed fails over mid-stream by itself: its hello's digest pins
// the slice content, so a later death can be resumed byte-exactly on any
// sibling holding the identical slice. reuse is the sub-streams'
// wire.Client.ShardStream flag.
func (c *Coordinator) openFeed(req wire.ShardStreamRequest, reuse bool, span *obs.Span) (*nodeFeed, error) {
	tried := make(map[string]bool)
	allRefused := true
	var lastErr error
	failedOver := false
	for {
		url, perr := c.pickReplica(req.Shard, tried)
		if perr != nil {
			if lastErr == nil {
				return nil, perr
			}
			if allRefused {
				return nil, lastErr
			}
			return nil, fmt.Errorf("cluster: shard %d: every replica failed: %w", req.Shard, lastErr)
		}
		tried[url] = true
		cl := c.clients[url]
		if cl == nil {
			continue
		}
		t0 := time.Now()
		ns, err := cl.ShardStream(req, reuse)
		if err != nil {
			if wire.IsNotHosting(err) {
				lastErr = err
				continue
			}
			allRefused = false
			failedOver = true
			lastErr = fmt.Errorf("cluster: shard %d at %s: %w", req.Shard, url, err)
			continue
		}
		if failedOver {
			c.failovers.Add(1)
			c.obs.Hist(obs.StageFailover).ObserveSince(t0)
			span.Add(obs.StageFailover, time.Since(t0))
		}
		nf := &nodeFeed{c: c, span: span, req: req, reuse: reuse, hello: ns.Hello(), tried: tried}
		nf.attach(ns, url)
		return nf, nil
	}
}

// probeEdges reads a shard's edge material from the first replica that
// answers — the control-plane analogue of openFeed's candidate loop.
func (c *Coordinator) probeEdges(shard int) (wire.EdgeResponse, string, error) {
	tried := make(map[string]bool)
	var lastErr error
	var lastURL string
	for {
		url, perr := c.pickReplica(shard, tried)
		if perr != nil {
			if lastErr != nil {
				return wire.EdgeResponse{}, lastURL, lastErr
			}
			return wire.EdgeResponse{}, "", perr
		}
		tried[url] = true
		cl := c.clients[url]
		if cl == nil {
			continue
		}
		resp, err := cl.ShardEdges(wire.ShardRef{Relation: c.spec.Relation, Shard: shard})
		if err != nil {
			lastErr, lastURL = err, url
			continue
		}
		return resp, url, nil
	}
}

// unannounced is the PrevG of a cover whose first hello announced no
// need of the preceding shard's edge material.
var unannounced engine.PrevG = func() (hashx.Digest, error) { return nil, ErrPrevGUnannounced }

func closeFeeds(feeds []engine.ShardFeed) {
	for _, f := range feeds {
		f.Close()
	}
}

// NodeStat is one node's lease/health view in Stats and /statsz.
type NodeStat struct {
	URL string
	// State is live, expired or quarantined (see replica.go).
	State string
	// LeaseRenewals counts acknowledged heartbeats; LeaseEpoch is the
	// routing epoch the node last echoed; LeaseExpiry is the current
	// grant's deadline (zero until a first grant).
	LeaseRenewals uint64
	LeaseEpoch    uint64
	LeaseExpiry   time.Time
	// Hosted is the node's self-reported hosted-shard count at the last
	// heartbeat; Inflight is the coordinator-side open sub-stream gauge.
	Hosted   int
	Inflight int64
	// LastErr is the last heartbeat failure, cleared on renewal.
	LastErr string `json:",omitempty"`
	// QuarantineReason records why the node was drained, when it is.
	QuarantineReason string `json:",omitempty"`
}

// NodeStats snapshots every node's lease/health view.
func (c *Coordinator) NodeStats() []NodeStat {
	out := make([]NodeStat, 0, len(c.nodes))
	for _, url := range c.nodes {
		nh := c.health[url]
		if nh == nil {
			continue
		}
		nh.mu.Lock()
		ns := NodeStat{
			URL:              url,
			State:            c.stateLocked(nh),
			LeaseRenewals:    nh.renewals,
			LeaseEpoch:       nh.leaseEpoch,
			Hosted:           nh.hosted,
			Inflight:         nh.inflight.Load(),
			LastErr:          nh.lastErr,
			QuarantineReason: nh.reason,
		}
		if nh.granted {
			ns.LeaseExpiry = nh.expiry
		}
		nh.mu.Unlock()
		out = append(out, ns)
	}
	return out
}

// Stats is the coordinator's /statsz snapshot.
type Stats struct {
	Queries, Streams, Fanouts, Errors uint64
	// HandoffRetries counts cross-node epoch-set re-pins; RoutingRetries
	// counts pins retried after a node's stale-routing refusal.
	HandoffRetries, RoutingRetries uint64
	DeltasApplied, Migrations      uint64
	// Failovers counts sub-streams re-pinned to a sibling replica (both
	// pre-hello skips of dead candidates and mid-stream digest-pinned
	// re-opens). Demotions/Promotions count lease-expiry transitions;
	// Quarantines counts nodes drained on Byzantine evidence;
	// LeaseRenewals counts acknowledged heartbeats.
	Failovers, Demotions, Promotions uint64
	Quarantines, LeaseRenewals       uint64
	RoutingEpoch                     uint64
	SpecVersion                      uint64
	// Routing maps shard index to its primary node URL (the single-copy
	// compatibility view); ReplicaSets carries the full sets when R > 1.
	Routing []string
	// Replicas is the configured replication factor.
	Replicas    int
	ReplicaSets [][]string
	// Nodes is the per-node lease/health view.
	Nodes []NodeStat
	// Cache carries the edge-cache tier counters when the tier is
	// configured.
	Cache *cache.ClientStats
	// Log carries the durable coordinator-log counters when persistence
	// is configured; PersistFailures counts best-effort appends that
	// failed (recovery determinism degraded, serving unaffected).
	Log             *store.CoordStats `json:",omitempty"`
	PersistFailures uint64            `json:",omitempty"`
	// ContentEpochs is the per-shard content epoch vector cache keys bind.
	ContentEpochs []uint64
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	var cs *cache.ClientStats
	if c.cache != nil {
		snap := c.cache.Stats()
		cs = &snap
	}
	var ls *store.CoordStats
	if c.clog != nil {
		snap := c.clog.Stats()
		ls = &snap
	}
	return Stats{
		Cache:           cs,
		Log:             ls,
		PersistFailures: c.persistFailures.Load(),
		ContentEpochs:   c.contentEpochs(),
		Queries:         c.queries.Load(),
		Streams:         c.streams.Load(),
		Fanouts:         c.fanouts.Load(),
		Errors:          c.errors.Load(),
		HandoffRetries:  c.handoffRetries.Load(),
		RoutingRetries:  c.routingRetries.Load(),
		DeltasApplied:   c.deltasApplied.Load(),
		Migrations:      c.migrations.Load(),
		Failovers:       c.failovers.Load(),
		Demotions:       c.demotions.Load(),
		Promotions:      c.promotions.Load(),
		Quarantines:     c.quarantines.Load(),
		LeaseRenewals:   c.leaseRenewals.Load(),
		RoutingEpoch:    c.repoch.Load(),
		SpecVersion:     c.spec.Version,
		Routing:         c.Routing(),
		Replicas:        c.replicas,
		ReplicaSets:     c.ReplicaSets(),
		Nodes:           c.NodeStats(),
	}
}

// processVar is the vcqr_coordinator expvar: the counters of every live
// Coordinator of the process, summed.
var processVar = obs.Aggregate[*Coordinator]{Name: "vcqr_coordinator", Fold: func(live []*Coordinator) any {
	var agg Stats
	for _, co := range live {
		st := co.Stats()
		obs.SumCounters(counters, &agg, &st)
	}
	return agg
}}
