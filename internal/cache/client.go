package cache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// Named failures a reader can assert on. Both are recoverable by
// construction: the caller treats the entry as a miss and serves from
// origin.
var (
	// ErrSumMismatch: the peer returned bytes whose digest does not
	// match the digest stored at fill time — corruption or lazy
	// tampering caught before the bytes are looked at.
	ErrSumMismatch = errors.New("cache: entry bytes do not match their stored digest")
	// ErrEntryMalformed: the bytes pass the digest compare but are not
	// framed as one complete result stream — a peer stores both bytes and
	// digest, so it can mint a consistent pair.
	ErrEntryMalformed = errors.New("cache: entry is not framed as one complete result stream")
)

// StreamShard is the Key.Shard value grouping merged streams that cover
// more than one shard: such an entry depends on every covering shard, so
// it lives in a single per-relation group, filed at the issuer's bump
// generation, that any epoch bump sweeps.
const StreamShard = -1

// Key identifies one cached merged stream. A stream covered by a single
// shard carries that shard and its content epoch, and is filed in the
// shard's invalidation group; a stream covering several (Shard ==
// StreamShard) carries the covering shards' epochs in cover order, so a
// bump of any of them changes the key. Content epochs count from zero in
// every coordinator, so the key also carries the issuing coordinator's
// incarnation: a restarted coordinator never asks for what its
// predecessor filed under the same epoch numbers. Everything else that
// shapes the bytes is in the key too: spec version, role, the full query
// as asked (which, with the spec, fixes the cover) and the chunking.
type Key struct {
	Relation    string
	Incarnation uint64
	SpecVersion uint64
	Shard       int
	// Epoch files the entry in its invalidation group: a single shard's
	// content epoch, or, for a multi-shard cover, the issuer's bump
	// generation its Epochs were read at — which sweeps compare against
	// and the key string leaves out, since Epochs already fix the bytes.
	Epoch     uint64
	Epochs    []uint64 // multi-shard covers: content epoch per covering shard
	Role      string
	Query     engine.Query
	ChunkRows int
}

// String renders the canonical key: the query's identity plus the
// placement coordinates.
func (k Key) String() string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(k.Relation)
	b.WriteByte(0)
	b.WriteString("i")
	b.WriteString(strconv.FormatUint(k.Incarnation, 16))
	b.WriteByte(0)
	b.WriteString("v")
	b.WriteString(strconv.FormatUint(k.SpecVersion, 10))
	b.WriteByte(0)
	b.WriteString("s")
	b.WriteString(strconv.Itoa(k.Shard))
	b.WriteByte(0)
	b.WriteString("e")
	if k.Shard == StreamShard {
		for i, e := range k.Epochs {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(strconv.FormatUint(e, 10))
		}
	} else {
		b.WriteString(strconv.FormatUint(k.Epoch, 10))
	}
	b.WriteByte(0)
	b.WriteString(k.Role)
	b.WriteByte(0)
	b.WriteString("c")
	b.WriteString(strconv.Itoa(k.ChunkRows))
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(k.Query.KeyLo, 10))
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(k.Query.KeyHi, 10))
	if k.Query.Distinct {
		b.WriteString("|d")
	}
	for _, c := range k.Query.Project {
		b.WriteString("|p:")
		b.WriteString(c)
	}
	for _, f := range k.Query.Filters {
		b.WriteString("|f:")
		b.WriteString(f.Col)
		b.WriteString(f.Op.String())
		b.Write(f.Val.Encode())
	}
	return b.String()
}

// Config parameterizes a Client.
type Config struct {
	// Peers are the cache peers' base URLs; keys spread over them by
	// consistent hashing. Empty peers means the client is nil-like:
	// every lookup misses without a fill.
	Peers []string
	// HTTP overrides the transport (tests). Whichever client carries peer
	// traffic, every exchange on it is bounded by PeerTimeout — never by
	// http.DefaultClient's missing timeout, which would let one hung peer
	// wedge the query path that treats every peer failure as a miss.
	HTTP *http.Client
	// PeerTimeout bounds every peer exchange — GET, PUT, sweep and stats
	// scrape alike: the lower of it and HTTP.Timeout when HTTP sets one.
	// It also bounds how long a lookup collapsed onto another's peer GET
	// waits for that GET. A peer slower than this is slower than origin,
	// so failing toward origin is strictly better than waiting. 0 picks
	// DefaultPeerTimeout.
	PeerTimeout time.Duration
	// Obs records cache_get / cache_fill timings when set.
	Obs *obs.Registry
	// MinAccesses overrides the admission threshold — how many times a
	// key must be seen before a fill is pushed to a peer. 0 picks the
	// default (2: admit on the second sighting); 1 admits everything.
	MinAccesses uint32
	// MaxEntryBytes caps a single entry; larger fills are discarded. 0
	// picks DefaultBudget/16.
	MaxEntryBytes int
}

type ringSlot struct {
	hash uint32
	peer int
}

// Client is the coordinator-side cache tier: consistent-hash placement
// over the configured peers, digest-checked reads, a near store keeping
// the entries those reads validated, a singleflight table holding at
// most one peer exchange per key in flight, and frequency-gated
// admission. All methods are safe for concurrent use.
type Client struct {
	peers []*wire.Client
	ring  []ringSlot
	h     *hashx.Hasher
	// near holds copies of peer hits that passed check, answering their
	// next lookups without a peer round trip. It is never swept: keys
	// bind the covering shards' content epochs and the incarnation, so a
	// stale entry is never asked for again and the LRU reclaims it.
	near *Store

	minAccesses uint32
	maxEntry    int
	freq        *accessStats
	hGet, hFill *obs.Histogram

	mu      sync.Mutex
	flights map[string]*flight

	hits, misses, collapsed         atomic.Uint64
	fills, fillDrops                atomic.Uint64
	fallthroughs, peerErrs          atomic.Uint64
	invalidations, admissionsDenied atomic.Uint64

	// smu guards pending (one per peer); idle signals a sweeper that
	// stopped.
	smu     sync.Mutex
	pending []pending
	idle    sync.Cond
}

// nearBudget is the near store's fixed byte budget: the most the
// coordinator pins of validated peer entries. Enough for the hot head of
// a Zipf key set of short streams; a colder or larger entry just reads
// its peer again.
const nearBudget = 4 << 20

// ringVnodes is how many ring slots each peer claims; enough that a
// two-peer tier splits keys close to evenly.
const ringVnodes = 64

// DefaultPeerTimeout is the dial-to-drain budget for one cache-peer
// exchange when Config.PeerTimeout is unset. The tier is an
// optimization: a peer that cannot answer inside it reads as a miss and
// the query serves from origin.
const DefaultPeerTimeout = 2 * time.Second

// NewClient builds a cache-tier client over the given peers.
func NewClient(cfg Config) *Client {
	c := &Client{
		h:           hashx.New(),
		near:        NewStore(nearBudget),
		minAccesses: cfg.MinAccesses,
		maxEntry:    cfg.MaxEntryBytes,
		freq:        newAccessStats(trackedKeys),
		flights:     make(map[string]*flight),
		hGet:        cfg.Obs.Hist(obs.StageCacheGet),
		hFill:       cfg.Obs.Hist(obs.StageCacheFill),
	}
	if c.minAccesses == 0 {
		c.minAccesses = defaultMinAccesses
	}
	if c.maxEntry <= 0 {
		c.maxEntry = defaultMaxEntry
	}
	c.idle.L = &c.smu
	to := cfg.PeerTimeout
	if to <= 0 {
		to = DefaultPeerTimeout
	}
	// One client for every exchange, bounded by the lower timeout.
	var hc http.Client
	if cfg.HTTP != nil {
		hc = *cfg.HTTP
	}
	if hc.Timeout <= 0 || hc.Timeout > to {
		hc.Timeout = to
	}
	for i, url := range cfg.Peers {
		c.peers = append(c.peers, &wire.Client{BaseURL: strings.TrimRight(url, "/"), HTTP: &hc})
		c.pending = append(c.pending, pending{groups: map[groupID]uint64{}, keys: map[string]struct{}{}})
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s#%d", url, v)
			c.ring = append(c.ring, ringSlot{hash: h.Sum32(), peer: i})
		}
	}
	sort.Slice(c.ring, func(a, b int) bool { return c.ring[a].hash < c.ring[b].hash })
	return c
}

// peerIndex maps a key string onto the ring: the index of its peer, or
// -1 with no peers configured.
func (c *Client) peerIndex(ks string) int {
	if len(c.ring) == 0 {
		return -1
	}
	h := fnv.New32a()
	h.Write([]byte(ks))
	hv := h.Sum32()
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= hv })
	if i == len(c.ring) {
		i = 0
	}
	return c.ring[i].peer
}

// peerFor maps a key string onto its peer's client (nil with no peers).
func (c *Client) peerFor(ks string) *wire.Client {
	if i := c.peerIndex(ks); i >= 0 {
		return c.peers[i]
	}
	return nil
}

// flight is one key's peer exchange and, when the peer missed, the
// leader's fill from origin; every collapsed waiter blocks on done. At
// done, bytes is the outcome: a validated peer hit (hit set), the
// committed fill, or nil — serve from origin without filling. A flight
// is filed before its peer GET is sent and leaves Client.flights when
// the GET settles it, when an unpushed fill commits or aborts, or when a
// pushed fill's PUT returns — so the entry is resolvable on the peer
// before a lookup can send the key's next GET.
type flight struct {
	done  chan struct{}
	bytes []byte
	hit   bool
	// waiters counts collapsed lookups; a fill with waiters is pushed
	// to the peer even below the admission threshold — concurrency is
	// itself evidence of heat.
	waiters atomic.Int32
}

// settle publishes a flight's outcome to its waiters and takes it out
// of the table.
func (c *Client) settle(ks string, fl *flight, b []byte, hit bool) {
	fl.bytes, fl.hit = b, hit
	c.unfile(ks)
	close(fl.done)
}

// unfile takes ks's flight out of the table; the key's next lookup
// sends a GET of its own.
func (c *Client) unfile(ks string) {
	c.mu.Lock()
	delete(c.flights, ks)
	c.mu.Unlock()
}

// Fill is the leader's handle on a miss: the caller tees the origin
// bytes through Write and settles with exactly one Commit (full, clean
// drain) or Abort (anything else). Both are idempotent; an unsettled
// Fill that is garbage-collected strands its waiters until their
// timeout, so settle it.
type Fill struct {
	c     *Client
	key   Key
	ks    string
	admit bool
	fl    *flight

	mu      sync.Mutex
	buf     bytes.Buffer
	over    bool
	settled bool
}

// Write buffers origin bytes (io.Writer, so a Fill can be a tee target).
// Oversized fills flip to discard mode and die at Commit.
func (f *Fill) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.settled {
		return len(p), nil
	}
	if !f.over && f.buf.Len()+len(p) > f.c.maxEntry {
		f.over = true
		f.buf.Reset()
	}
	if !f.over {
		f.buf.Write(p)
	}
	return len(p), nil
}

// Commit publishes the buffered bytes to collapsed waiters and, when the
// key is admitted (or anyone waited), pushes the entry to its peer
// asynchronously.
func (f *Fill) Commit() {
	f.mu.Lock()
	if f.settled {
		f.mu.Unlock()
		return
	}
	f.settled = true
	over := f.over
	b := f.buf.Bytes()
	f.mu.Unlock()

	c := f.c
	if over || len(b) == 0 {
		c.fillDrops.Add(1)
		c.settle(f.ks, f.fl, nil, false)
		return
	}
	if !f.admit && f.fl.waiters.Load() == 0 {
		c.admissionsDenied.Add(1)
		c.settle(f.ks, f.fl, b, false)
		return
	}
	// A pushed fill's flight keeps answering lookups from these bytes
	// until its PUT returns, so no lookup asks the peer for the entry
	// before the peer can have it.
	f.fl.bytes = b
	close(f.fl.done)
	c.fills.Add(1)
	go func() {
		t0 := time.Now()
		_, err := c.peerFor(f.ks).CacheOp(&wire.CacheFrame{Put: &wire.CachePut{
			Key:      f.ks,
			Relation: f.key.Relation,
			Shard:    f.key.Shard,
			Epoch:    f.key.Epoch,
			Sum:      c.h.Hash(b),
			Bytes:    b,
		}})
		c.hFill.ObserveSince(t0)
		if err != nil {
			c.peerErrs.Add(1)
		}
		c.unfile(f.ks)
	}()
}

// Abort releases waiters empty-handed and drops the buffer.
func (f *Fill) Abort() {
	f.mu.Lock()
	if f.settled {
		f.mu.Unlock()
		return
	}
	f.settled = true
	f.buf.Reset()
	f.mu.Unlock()
	f.c.fillDrops.Add(1)
	f.c.settle(f.ks, f.fl, nil, false)
}

// Lookup consults the tier for one merged stream. Exactly one of the
// returns is non-nil, or both are nil: validated chunk-frame bytes ready
// to write to the client verbatim (a hit); the Fill to tee the freshly
// merged stream through (a leader miss); or neither — serve from origin
// without filling, because the peer is unreachable or the fill this
// lookup collapsed onto aborted. An entry that fails validation is a
// fall-through: dropped from its peer asynchronously and read as a miss.
// A peer hit that validates is kept in the near store, which answers the
// key's next lookups without sending anything to a peer.
//
// At most one peer exchange per key is in flight: the first lookup files
// the key's flight before it sends the GET, and a lookup that finds the
// flight waits for its outcome instead of asking the peer.
func (c *Client) Lookup(k Key) ([]byte, *Fill) {
	if len(c.peers) == 0 {
		return nil, nil
	}
	ks := k.String()
	admit := c.freq.touch(ks) >= c.minAccesses
	c.mu.Lock()
	// Under mu, so a lookup sees either the near entry or the flight that
	// put it there, never the gap between them.
	if b, _, ok := c.near.Get(ks); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return b, nil
	}
	fl, ok := c.flights[ks]
	if ok {
		fl.waiters.Add(1)
	} else {
		fl = &flight{done: make(chan struct{})}
		c.flights[ks] = fl
	}
	c.mu.Unlock()
	if ok {
		return c.await(fl), nil
	}

	t0 := time.Now()
	rp, err := c.peerFor(ks).CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	c.hGet.ObserveSince(t0)
	switch {
	case err != nil:
		c.peerErrs.Add(1)
		c.settle(ks, fl, nil, false)
		return nil, nil
	case rp.Hit && c.check(ks, rp.Bytes, rp.Sum) == nil:
		c.hits.Add(1)
		// A copy sized to the entry, so the budget counts what is pinned;
		// near before the flight leaves, so no lookup finds neither.
		b := bytes.Clone(rp.Bytes)
		c.near.Put(ks, k.Relation, k.Shard, k.Epoch, rp.Sum, b)
		c.settle(ks, fl, b, true)
		return b, nil
	}
	c.misses.Add(1)
	return nil, &Fill{c: c, key: k, ks: ks, admit: admit, fl: fl}
}

// await collapses a lookup, already counted among the flight's waiters,
// onto a flight: it returns the leader's validated peer hit (counted a
// hit), its committed fill (a miss), or nil (a miss; serve from origin)
// when the exchange failed, the fill aborted or timed out, or the fill
// is not a complete stream. The leader's GET is bounded by the peer
// timeout, its fill by waitTimeout.
func (c *Client) await(fl *flight) []byte {
	c.collapsed.Add(1)
	select {
	case <-fl.done:
	case <-time.After(waitTimeout):
		c.misses.Add(1)
		return nil
	}
	if fl.hit {
		c.hits.Add(1)
		return fl.bytes
	}
	c.misses.Add(1)
	if !completeStream(fl.bytes) {
		return nil
	}
	return fl.bytes
}

// completeStream reports whether b is framed as exactly one clean result
// stream — what the coordinator tees into a fill: a header frame,
// entries frames, a footer frame, tiling b. An error or timing frame, a
// second header, a missing footer and trailing bytes all fail.
func completeStream(b []byte) bool {
	want := engine.ChunkHeader
	for {
		typ, rest, ok := wire.SplitChunkFrame(b)
		switch {
		case !ok:
			return false
		case typ == engine.ChunkFooter && want == engine.ChunkEntries:
			return len(rest) == 0
		case typ != want:
			return false
		}
		b, want = rest, engine.ChunkEntries
	}
}

// check runs the untrusted-peer defenses on returned bytes: digest
// compare first, then the frame walk. Any failure drops the suspect
// entry from its peer and reads as a miss.
func (c *Client) check(ks string, b []byte, sum hashx.Digest) error {
	var err error
	switch {
	case !c.h.Hash(b).Equal(sum):
		err = ErrSumMismatch
	case !completeStream(b):
		err = ErrEntryMalformed
	default:
		return nil
	}
	c.fallthroughs.Add(1)
	c.DropAsync(ks)
	return err
}

// Invalidate queues epoch-scoped group sweeps for every peer (entries
// can live anywhere once the peer set changes, and a broadcast of a
// group sweep is cheap) and returns without waiting for any of them;
// Wait waits. A sweep is hygiene, not correctness — keys bind the epochs
// that make a stale entry unaskable — so it leaves on the peer's sender
// (sweeper) instead of its caller's path.
func (c *Client) Invalidate(groups ...wire.CacheGroup) {
	if len(groups) == 0 {
		return
	}
	c.invalidations.Add(uint64(len(groups)))
	for i := range c.peers {
		c.queue(i, func(p *pending) {
			for _, g := range groups {
				id := groupID{g.Relation, g.Shard}
				p.groups[id] = max(p.groups[id], g.Keep)
			}
		})
	}
}

// DropAsync queues the drop of one entry, by key string, on its peer.
func (c *Client) DropAsync(ks string) {
	i := c.peerIndex(ks)
	if i < 0 {
		return
	}
	c.queue(i, func(p *pending) { p.keys[ks] = struct{}{} })
}

// pending is one peer's invalidations not yet handed to a push: per
// group the highest keep asked for (a sweep keeping epoch e also drops
// everything older than any lower keep), and the keys to drop. busy is
// set while the peer's sweeper runs.
type pending struct {
	groups map[groupID]uint64
	keys   map[string]struct{}
	busy   bool
}

// queue adds to peer i's pending invalidations and starts its sweeper
// unless one is running; at most one push per peer is in flight, and no
// sweeper runs while nothing is pending.
func (c *Client) queue(i int, add func(*pending)) {
	c.smu.Lock()
	p := &c.pending[i]
	add(p)
	start := !p.busy
	p.busy = true
	c.smu.Unlock()
	if start {
		go c.sweeper(i)
	}
}

// sweeper pushes peer i's pending invalidations, one batched frame at a
// time, until none are left. Invalidations queued during a push coalesce
// into the next. Each push is bounded by the peer timeout; a failed one
// is counted and not retried, since what it would have dropped is
// unaskable already and the LRU reclaims it.
func (c *Client) sweeper(i int) {
	for {
		c.smu.Lock()
		p := &c.pending[i]
		if len(p.groups) == 0 && len(p.keys) == 0 {
			p.busy = false
			c.idle.Broadcast()
			c.smu.Unlock()
			return
		}
		sw := &wire.CacheSweep{}
		for id, keep := range p.groups {
			sw.Groups = append(sw.Groups, wire.CacheGroup{Relation: id.relation, Shard: id.shard, Keep: keep})
		}
		for ks := range p.keys {
			sw.Keys = append(sw.Keys, ks)
		}
		clear(p.groups)
		clear(p.keys)
		c.smu.Unlock()
		if _, err := c.peers[i].CacheOp(&wire.CacheFrame{Sweep: sw}); err != nil {
			c.peerErrs.Add(1)
		}
	}
}

// Wait blocks until no invalidation is pending or being pushed to any
// peer: every Invalidate and DropAsync that returned before the call has
// reached its peers or failed. A hung peer holds it for at most one peer
// timeout per push.
func (c *Client) Wait() {
	c.smu.Lock()
	defer c.smu.Unlock()
	for slices.ContainsFunc(c.pending, func(p pending) bool { return p.busy }) {
		c.idle.Wait()
	}
}

// PeerStats scrapes every peer's counter snapshot (nil entry on scrape
// failure), URL-keyed in peer order.
func (c *Client) PeerStats() map[string]*wire.CacheStats {
	out := make(map[string]*wire.CacheStats, len(c.peers))
	for _, peer := range c.peers {
		rp, err := peer.CacheOp(&wire.CacheFrame{Stats: true})
		if err != nil || rp.Stats == nil {
			c.peerErrs.Add(1)
			out[peer.BaseURL] = nil
			continue
		}
		out[peer.BaseURL] = rp.Stats
	}
	return out
}

// Peers returns the configured peer base URLs.
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.BaseURL
	}
	return out
}

// ClientStats is the coordinator-side counter snapshot.
type ClientStats struct {
	Hits, Misses     uint64 // validated hits / misses (incl. fall-throughs)
	NearHits         uint64 // hits answered from the near store (a subset of Hits)
	Collapsed        uint64 // lookups that waited on another lookup's peer GET or fill
	Fills            uint64 // entries pushed to peers
	FillDrops        uint64 // fills discarded (aborted, oversized, empty)
	Fallthroughs     uint64 // entries rejected by digest or structure checks
	PeerErrors       uint64 // cache-protocol I/O failures
	Invalidations    uint64 // epoch-scoped group sweeps queued (per group, before coalescing)
	AdmissionsDenied uint64 // fills skipped by the admission gate
	Flights          int    // gauge: keys with a peer GET or fill in flight, or a fill's PUT unreturned
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	flights := len(c.flights)
	c.mu.Unlock()
	return ClientStats{
		Flights:          flights,
		Hits:             c.hits.Load(),
		NearHits:         c.near.Stats().Hits,
		Misses:           c.misses.Load(),
		Collapsed:        c.collapsed.Load(),
		Fills:            c.fills.Load(),
		FillDrops:        c.fillDrops.Load(),
		Fallthroughs:     c.fallthroughs.Load(),
		PeerErrors:       c.peerErrs.Load(),
		Invalidations:    c.invalidations.Load(),
		AdmissionsDenied: c.admissionsDenied.Load(),
	}
}
