package cache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
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
// it lives in a single per-relation group that any epoch bump clears.
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
	Epoch       uint64
	Epochs      []uint64 // multi-shard covers: content epoch per covering shard
	Role        string
	Query       engine.Query
	ChunkRows   int
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
	// HTTP overrides the transport (tests). When nil, peer traffic runs
	// on a private client bounded by PeerTimeout — never on
	// http.DefaultClient, whose missing timeout would let one hung peer
	// wedge the query path that treats every peer failure as a miss.
	HTTP *http.Client
	// PeerTimeout bounds every peer exchange on the default transport
	// (ignored when HTTP is set — the caller owns its budgets then). A
	// peer slower than this is slower than origin, so failing toward
	// origin is strictly better than waiting. 0 picks
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
// over the configured peers, digest-checked reads, a singleflight table
// collapsing concurrent misses per key, and frequency-gated admission.
// All methods are safe for concurrent use.
type Client struct {
	peers []*wire.Client
	ring  []ringSlot
	h     *hashx.Hasher

	minAccesses uint32
	maxEntry    int
	freq        *accessStats
	hGet, hFill *obs.Histogram

	mu      sync.Mutex
	flights map[string]*flight
	// probing counts, per key, the lookups between sending their peer GET
	// and checking flights for its result: a fill that settles meanwhile
	// stays in flights until they have looked (see Fill.Commit).
	probing map[string]int

	hits, misses, collapsed         atomic.Uint64
	fills, fillDrops                atomic.Uint64
	fallthroughs, peerErrs          atomic.Uint64
	invalidations, admissionsDenied atomic.Uint64
}

// ringVnodes is how many ring slots each peer claims; enough that a
// two-peer tier splits keys close to evenly.
const ringVnodes = 64

// DefaultPeerTimeout is the dial-to-drain budget for one cache-peer
// exchange when Config.HTTP is nil. The tier is an optimization: a peer
// that cannot answer inside it reads as a miss and the query serves
// from origin.
const DefaultPeerTimeout = 2 * time.Second

// NewClient builds a cache-tier client over the given peers.
func NewClient(cfg Config) *Client {
	c := &Client{
		h:           hashx.New(),
		minAccesses: cfg.MinAccesses,
		maxEntry:    cfg.MaxEntryBytes,
		freq:        newAccessStats(trackedKeys),
		flights:     make(map[string]*flight),
		probing:     make(map[string]int),
		hGet:        cfg.Obs.Hist(obs.StageCacheGet),
		hFill:       cfg.Obs.Hist(obs.StageCacheFill),
	}
	if c.minAccesses == 0 {
		c.minAccesses = defaultMinAccesses
	}
	if c.maxEntry <= 0 {
		c.maxEntry = defaultMaxEntry
	}
	hc := cfg.HTTP
	if hc == nil {
		to := cfg.PeerTimeout
		if to <= 0 {
			to = DefaultPeerTimeout
		}
		hc = &http.Client{Timeout: to}
	}
	for i, url := range cfg.Peers {
		c.peers = append(c.peers, &wire.Client{BaseURL: strings.TrimRight(url, "/"), HTTP: hc})
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s#%d", url, v)
			c.ring = append(c.ring, ringSlot{hash: h.Sum32(), peer: i})
		}
	}
	sort.Slice(c.ring, func(a, b int) bool { return c.ring[a].hash < c.ring[b].hash })
	return c
}

// peerFor maps a key string onto the ring.
func (c *Client) peerFor(ks string) *wire.Client {
	if len(c.ring) == 0 {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(ks))
	hv := h.Sum32()
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= hv })
	if i == len(c.ring) {
		i = 0
	}
	return c.peers[c.ring[i].peer]
}

// flight is one fill: the leader streams from origin while every
// collapsed waiter blocks on done. A nil bytes at done means the fill
// aborted. A committed flight stays in Client.flights, answering lookups
// from its bytes, until the entry is resolvable on the peer instead.
type flight struct {
	done  chan struct{}
	bytes []byte
	sum   hashx.Digest
	// putting (guarded by Client.mu) is set while the peer PUT of a
	// committed flight has not been acknowledged or failed.
	putting bool
	// waiters counts collapsed lookups; a fill with waiters is pushed
	// to the peer even below the admission threshold — concurrency is
	// itself evidence of heat.
	waiters atomic.Int32
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
		c.mu.Lock()
		delete(c.flights, f.ks)
		c.mu.Unlock()
		c.fillDrops.Add(1)
		close(f.fl.done)
		return
	}
	sum := c.h.Hash(b)
	peer := c.peerFor(f.ks)
	// The flight leaves the table only once a lookup that finds no flight
	// can rely on its own peer GET: a lookup whose GET missed before this
	// commit may check flights after it, and must find these bytes rather
	// than become a second leader. So the flight stays while the PUT is
	// unacknowledged and while any lookup of this key is mid-probe (new
	// lookups wait on the flight without probing, so that count drains).
	c.mu.Lock()
	push := f.admit || f.fl.waiters.Load() > 0
	f.fl.bytes, f.fl.sum, f.fl.putting = b, sum, push
	c.retire(f.ks, f.fl)
	c.mu.Unlock()
	close(f.fl.done)
	if !push {
		c.admissionsDenied.Add(1)
		return
	}
	c.fills.Add(1)
	go func() {
		t0 := time.Now()
		_, err := peer.CacheOp(&wire.CacheFrame{Put: &wire.CachePut{
			Key:      f.ks,
			Relation: f.key.Relation,
			Shard:    f.key.Shard,
			Epoch:    f.key.Epoch,
			Sum:      sum,
			Bytes:    b,
		}})
		c.hFill.ObserveSince(t0)
		if err != nil {
			c.peerErrs.Add(1)
		}
		c.mu.Lock()
		f.fl.putting = false
		c.retire(f.ks, f.fl)
		c.mu.Unlock()
	}()
}

// retire removes a committed flight from the table once nothing needs it
// there: its PUT has finished and no lookup of the key is mid-probe.
// Callers hold c.mu.
func (c *Client) retire(ks string, fl *flight) {
	if fl.bytes != nil && !fl.putting && c.probing[ks] == 0 && c.flights[ks] == fl {
		delete(c.flights, ks)
	}
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
	c := f.c
	c.mu.Lock()
	delete(c.flights, f.ks)
	c.mu.Unlock()
	c.fillDrops.Add(1)
	close(f.fl.done)
}

// Lookup consults the tier for one merged stream. Exactly one of the
// returns is non-nil, or both are nil: validated chunk-frame bytes ready
// to write to the client verbatim (a hit); the Fill to tee the freshly
// merged stream through (a leader miss); or neither — serve from origin
// without filling, because the peer is unreachable or the fill this
// lookup collapsed onto aborted. An entry that fails validation is a
// fall-through: dropped from its peer asynchronously and read as a miss.
func (c *Client) Lookup(k Key) ([]byte, *Fill) {
	ks := k.String()
	admit := c.freq.touch(ks) >= c.minAccesses
	peer := c.peerFor(ks)
	if peer == nil {
		return nil, nil
	}
	c.mu.Lock()
	fl, ok := c.flights[ks]
	if ok {
		fl.waiters.Add(1)
	} else {
		c.probing[ks]++
	}
	c.mu.Unlock()
	if ok {
		c.misses.Add(1)
		return c.await(fl), nil
	}
	t0 := time.Now()
	rp, err := peer.CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	c.hGet.ObserveSince(t0)
	hit := false
	if err != nil {
		c.peerErrs.Add(1)
	} else if rp.Hit {
		hit = c.check(ks, rp.Bytes, rp.Sum) == nil
	}

	c.mu.Lock()
	if c.probing[ks]--; c.probing[ks] == 0 {
		delete(c.probing, ks)
	}
	miss := err == nil && !hit
	fl, ok = c.flights[ks]
	if ok {
		if miss {
			fl.waiters.Add(1)
		}
		c.retire(ks, fl) // this lookup may be the last one it was kept for
	} else if miss {
		fl = &flight{done: make(chan struct{})}
		c.flights[ks] = fl
	}
	c.mu.Unlock()
	switch {
	case err != nil:
		return nil, nil
	case hit:
		c.hits.Add(1)
		return rp.Bytes, nil
	}
	c.misses.Add(1)
	if ok {
		return c.await(fl), nil
	}
	return nil, &Fill{c: c, key: k, ks: ks, admit: admit, fl: fl}
}

// await collapses a lookup, already counted among the flight's waiters,
// onto a flight: it returns the flight's bytes, or nil (serve from
// origin) when the fill aborted, timed out or is not a complete stream.
func (c *Client) await(fl *flight) []byte {
	c.collapsed.Add(1)
	select {
	case <-fl.done:
	case <-time.After(waitTimeout):
		return nil
	}
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

// Probe fetches and validates one entry, surfacing the named error a
// Lookup would swallow into a fall-through; a clean miss is (nil, nil).
// Test and tooling seam; no admission tracking, no singleflight.
func (c *Client) Probe(k Key) ([]byte, error) {
	ks := k.String()
	peer := c.peerFor(ks)
	if peer == nil {
		return nil, errors.New("cache: no peers configured")
	}
	rp, err := peer.CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	if err != nil || !rp.Hit {
		return nil, err
	}
	if err := c.check(ks, rp.Bytes, rp.Sum); err != nil {
		return nil, err
	}
	return rp.Bytes, nil
}

// Invalidate pushes one epoch-scoped group invalidation to every peer
// (entries can live anywhere once the peer set changes, and a broadcast
// of a group drop is cheap). keep == 0 drops the whole group.
func (c *Client) Invalidate(relation string, shard int, keep uint64) {
	c.invalidations.Add(1)
	for _, peer := range c.peers {
		if _, err := peer.CacheOp(&wire.CacheFrame{Invalidate: &wire.CacheInvalidate{
			Relation: relation, Shard: shard, Keep: keep,
		}}); err != nil {
			c.peerErrs.Add(1)
		}
	}
}

// DropAsync removes one entry by key string on its peer, off the hot
// path.
func (c *Client) DropAsync(ks string) {
	peer := c.peerFor(ks)
	if peer == nil {
		return
	}
	go func() {
		if _, err := peer.CacheOp(&wire.CacheFrame{Invalidate: &wire.CacheInvalidate{Key: ks}}); err != nil {
			c.peerErrs.Add(1)
		}
	}()
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
	Collapsed        uint64 // misses that waited on another lookup's fill
	Fills            uint64 // entries pushed to peers
	FillDrops        uint64 // fills discarded (aborted, oversized, empty)
	Fallthroughs     uint64 // entries rejected by digest or structure checks
	PeerErrors       uint64 // cache-protocol I/O failures
	Invalidations    uint64 // epoch-scoped group invalidations pushed
	AdmissionsDenied uint64 // fills skipped by the admission gate
	Flights          int    // gauge: fills in progress, or committed and still answering lookups
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	flights := len(c.flights)
	c.mu.Unlock()
	return ClientStats{
		Flights:          flights,
		Hits:             c.hits.Load(),
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
