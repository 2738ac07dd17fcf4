package cache_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcqr/internal/cache"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// streamBytes builds a structurally valid entry: header + one entries
// chunk + footer, framed exactly as the coordinator's fill tees a merged
// stream.
func streamBytes(t testing.TB, shard int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, typ := range []engine.ChunkType{engine.ChunkHeader, engine.ChunkEntries, engine.ChunkFooter} {
		if err := wire.WriteChunkFrame(&buf, &engine.Chunk{Type: typ, Seq: uint64(i), Shard: shard}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// splitFrames cuts a frame sequence at its length prefixes.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 4 {
		n := 4 + int(binary.BigEndian.Uint32(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// env is one cache peer process plus a client over it.
type env struct {
	srv *cache.Server
	cl  *cache.Client
}

func newEnv(t *testing.T, cfg cache.Config) *env {
	t.Helper()
	srv := cache.NewServer(0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cfg.Peers = []string{ts.URL}
	if cfg.MinAccesses == 0 {
		cfg.MinAccesses = 1
	}
	return &env{srv: srv, cl: cache.NewClient(cfg)}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func subKey(epoch uint64) cache.Key {
	return cache.Key{
		Relation: "Uniform", SpecVersion: 1, Shard: 2, Epoch: epoch,
		Role: "all", Query: engine.Query{Relation: "Uniform"}, ChunkRows: 8,
	}
}

// TestStoreLRUBudget pins the byte-budgeted LRU semantics: promotion on
// Get, tail eviction under pressure, whole-budget refusal, same-key
// replacement.
func TestStoreLRUBudget(t *testing.T) {
	b := make([]byte, 100)
	key := func(i int) string { return "key-" + string(rune('a'+i)) }
	cost := int64(len(b)+len(key(0))) + 256 // entryOverhead
	st := cache.NewStore(3 * cost)
	sum := hashx.New().Hash(b)
	for i := 0; i < 3; i++ {
		if !st.Put(key(i), "Uniform", 0, 1, sum, b) {
			t.Fatalf("put %d refused", i)
		}
	}
	if got := st.Stats(); got.Entries != 3 || got.Bytes != 3*cost {
		t.Fatalf("after 3 puts: %+v (cost=%d)", got, cost)
	}
	// Promote key 0; the next insert must evict key 1, the LRU tail.
	if _, _, ok := st.Get(key(0)); !ok {
		t.Fatal("resident entry missed")
	}
	st.Put(key(3), "Uniform", 0, 1, sum, b)
	if _, _, ok := st.Get(key(1)); ok {
		t.Fatal("LRU tail survived an over-budget insert")
	}
	for _, i := range []int{0, 2, 3} {
		if _, _, ok := st.Get(key(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if got := st.Stats(); got.Evictions != 1 || got.Entries != 3 {
		t.Fatalf("eviction accounting off: %+v", got)
	}
	// An entry bigger than the whole budget is refused outright.
	if st.Put("huge", "Uniform", 0, 1, sum, make([]byte, 3*cost)) {
		t.Fatal("whole-budget entry accepted")
	}
	// Same-key replacement swaps bytes without growing the table.
	b2 := []byte("replacement")
	st.Put(key(0), "Uniform", 0, 2, hashx.New().Hash(b2), b2)
	got, _, ok := st.Get(key(0))
	if !ok || !bytes.Equal(got, b2) {
		t.Fatal("replacement not visible")
	}
	if st.Stats().Entries != 3 {
		t.Fatalf("replacement grew the table: %+v", st.Stats())
	}
}

// TestStoreInvalidate pins the wire.CacheGroup contract on the
// store: key-exact drop, keep-epoch group sweep, whole-group drop.
func TestStoreInvalidate(t *testing.T) {
	st := cache.NewStore(0)
	sum := hashx.New().Hash([]byte("x"))
	put := func(key string, shard int, epoch uint64) {
		if !st.Put(key, "Uniform", shard, epoch, sum, []byte("x")) {
			t.Fatalf("put %s refused", key)
		}
	}
	put("s1-old-a", 1, 1)
	put("s1-old-b", 1, 1)
	put("s1-new", 1, 2)
	put("s2", 2, 1)
	put("stream", cache.StreamShard, 0)

	if n := st.Invalidate("Uniform", 1, 2, ""); n != 2 {
		t.Fatalf("keep-epoch sweep dropped %d, want 2", n)
	}
	if _, _, ok := st.Get("s1-new"); !ok {
		t.Fatal("fresh-epoch entry swept")
	}
	if n := st.Invalidate("", 0, 0, "s2"); n != 1 {
		t.Fatalf("key-exact drop dropped %d, want 1", n)
	}
	if n := st.Invalidate("Uniform", cache.StreamShard, 0, ""); n != 1 {
		t.Fatalf("whole-group drop dropped %d, want 1", n)
	}
	if got := st.Stats(); got.Entries != 1 || got.Invalidations != 4 {
		t.Fatalf("after invalidations: %+v", got)
	}
}

// TestStoreSweepKeepsNewer: a group sweep drops only entries older than
// its keep, so one that lands after a newer fill leaves the fill.
func TestStoreSweepKeepsNewer(t *testing.T) {
	st := cache.NewStore(0)
	sum := hashx.New().Hash([]byte("x"))
	for e := uint64(1); e <= 4; e++ {
		st.Put(fmt.Sprint("e", e), "Uniform", 1, e, sum, []byte("x"))
	}
	if n := st.Invalidate("Uniform", 1, 3, ""); n != 2 {
		t.Fatalf("sweep keeping 3 dropped %d, want the 2 older entries", n)
	}
	if n := st.Invalidate("Uniform", 1, 2, ""); n != 0 {
		t.Fatalf("a late sweep keeping 2 dropped %d entries filed at 3 and 4", n)
	}
	if keys := st.Keys(); len(keys) != 2 {
		t.Fatalf("resident after the sweeps: %q, want e3 and e4", keys)
	}
}

// TestKeyStringSchema: every field that shapes the bytes must move the
// key, and multi-shard keys bind their covering shards' epoch vector.
func TestKeyStringSchema(t *testing.T) {
	base := subKey(3)
	variants := []cache.Key{subKey(4)}
	v := base
	v.SpecVersion = 2
	variants = append(variants, v)
	v = base
	v.Shard = 1
	variants = append(variants, v)
	v = base
	v.Role = "public"
	variants = append(variants, v)
	v = base
	v.ChunkRows = 16
	variants = append(variants, v)
	v = base
	v.Query = engine.Query{Relation: "Uniform", KeyLo: 5}
	variants = append(variants, v)
	seen := map[string]bool{base.String(): true}
	for i, kv := range variants {
		ks := kv.String()
		if seen[ks] {
			t.Fatalf("variant %d collides: %q", i, ks)
		}
		seen[ks] = true
	}
	sk := cache.Key{Relation: "Uniform", Shard: cache.StreamShard, Epochs: []uint64{1, 2, 3}}
	sk2 := sk
	sk2.Epochs = []uint64{1, 2, 4}
	if sk.String() == sk2.String() {
		t.Fatal("stream key ignores the epoch vector")
	}
	if !strings.Contains(sk.String(), "1.2.3") {
		t.Fatalf("stream key missing epoch vector: %q", sk.String())
	}
}

// TestClientFillAndHit drives the leader miss → tee → async put → hit
// round trip against a live peer, for a single-shard key and for a
// multi-shard (StreamShard) one: both are the same kind of entry.
func TestClientFillAndHit(t *testing.T) {
	e := newEnv(t, cache.Config{})
	sk := cache.Key{Relation: "Uniform", Shard: cache.StreamShard, Epochs: []uint64{3, 3}, Role: "all", ChunkRows: 8}
	for i, k := range []cache.Key{subKey(3), sk} {
		b, fill := e.cl.Lookup(k)
		if b != nil || fill == nil {
			t.Fatalf("key %d: cold lookup: bytes=%v fill=%v", i, b, fill)
		}
		raw := streamBytes(t, i)
		if _, err := fill.Write(raw); err != nil {
			t.Fatal(err)
		}
		fill.Commit()
		// Landed and acknowledged: until then the committed fill itself
		// answers lookups, which count as collapsed misses.
		waitFor(t, "async fill to land", func() bool {
			return e.srv.Store().Stats().Entries == i+1 && e.cl.Stats().Flights == 0
		})

		b, fill = e.cl.Lookup(k)
		if fill != nil {
			t.Fatalf("key %d: warm lookup returned a fill", i)
		}
		if !bytes.Equal(b, raw) {
			t.Fatalf("key %d: warm hit is not the filled bytes: %q", i, b)
		}
	}
	if st := e.cl.Stats(); st.Hits != 2 || st.Misses != 2 || st.Fills != 2 {
		t.Fatalf("client counters off: %+v", st)
	}
}

// TestClientNamedErrors pins the untrusted-peer defenses by name: a
// digest mismatch is ErrSumMismatch, bytes that pass the digest but are
// not framed as one complete result stream are ErrEntryMalformed, and
// both read as misses on the serving path.
func TestClientNamedErrors(t *testing.T) {
	e := newEnv(t, cache.Config{})
	h := hashx.New()
	valid := streamBytes(t, 2)

	// Corrupted bytes under a stale digest.
	k1 := subKey(10)
	e.srv.Store().Put(k1.String(), "Uniform", 2, 10, h.Hash([]byte("other")), valid)
	if _, err := e.cl.Probe(k1); !errors.Is(err, cache.ErrSumMismatch) {
		t.Fatalf("tampered entry probed as %v, want ErrSumMismatch", err)
	}

	// Everything below is consistent with its digest — a peer can always
	// hash what it forges, so the frame walk is the second line.
	frames := splitFrames(valid)
	frame := func(c *engine.Chunk) []byte {
		var buf bytes.Buffer
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	errFrame := frame(&engine.Chunk{Type: engine.ChunkError, Err: "boom"})
	timing := frame(&engine.Chunk{Type: engine.ChunkTiming, Trace: "t"})
	// A stream cached before record format 2 tagged its chunks 0x60 +
	// type, 0x10 below today's tags.
	format1 := bytes.Clone(valid)
	for at := 0; at+4 < len(format1); at += 4 + int(binary.BigEndian.Uint32(format1[at:])) {
		format1[at+4] -= 0x10
	}
	for i, tc := range []struct {
		name string
		bad  []byte
	}{
		{"garbage", []byte("not a result stream")},
		{"does not open with a header", bytes.Join(frames[1:], nil)},
		{"trailing bytes after the footer", append(append([]byte{}, valid...), 0xde, 0xad)},
		{"cut before its footer", bytes.Join(frames[:2], nil)},
		{"in-band error frame", bytes.Join([][]byte{frames[0], frames[1], errFrame, frames[2]}, nil)},
		{"ends in an error frame", bytes.Join([][]byte{frames[0], frames[1], errFrame}, nil)},
		{"timing trailer", bytes.Join([][]byte{valid, timing}, nil)},
		{"second header", bytes.Join([][]byte{frames[0], frames[0], frames[2]}, nil)},
		{"empty frame", bytes.Join([][]byte{frames[0], {0, 0, 0, 0}, frames[2]}, nil)},
		{"empty entry", nil},
		{"record format 1 stream", format1},
	} {
		k := subKey(uint64(11 + i))
		e.srv.Store().Put(k.String(), "Uniform", 2, k.Epoch, h.Hash(tc.bad), tc.bad)
		if _, err := e.cl.Probe(k); !errors.Is(err, cache.ErrEntryMalformed) {
			t.Fatalf("%s: entry probed as %v, want ErrEntryMalformed", tc.name, err)
		}
	}
	// A header followed directly by a footer — an empty result — is a
	// complete stream.
	k0 := subKey(40)
	empty := bytes.Join([][]byte{frames[0], frames[2]}, nil)
	e.srv.Store().Put(k0.String(), "Uniform", 2, 40, h.Hash(empty), empty)
	if b, err := e.cl.Probe(k0); err != nil || !bytes.Equal(b, empty) {
		t.Fatalf("empty-result stream probed as (%q, %v)", b, err)
	}

	// On the serving path either poison reads as a miss with a fill — the
	// caller falls through to origin and the suspect entry dies.
	for i, sum := range []hashx.Digest{h.Hash([]byte("other")), h.Hash(frames[0])} {
		k5 := subKey(uint64(50 + i))
		bad := [][]byte{valid, frames[0]}[i]
		e.srv.Store().Put(k5.String(), "Uniform", 2, k5.Epoch, sum, bad)
		pre := e.cl.Stats().Fallthroughs
		b, fill := e.cl.Lookup(k5)
		if b != nil || fill == nil {
			t.Fatalf("poisoned entry %d did not fall through to a fillable miss", i)
		}
		fill.Abort()
		if st := e.cl.Stats(); st.Fallthroughs != pre+1 {
			t.Fatalf("fall-through %d not counted: %+v", i, st)
		}
		waitFor(t, "suspect entry drop", func() bool {
			for _, ks := range e.srv.Store().Keys() {
				if ks == k5.String() {
					return false
				}
			}
			return true
		})
	}
	// Probe on a clean miss is (nil, nil).
	if b, err := e.cl.Probe(subKey(99)); b != nil || err != nil {
		t.Fatalf("clean miss probed as (%v, %v)", b, err)
	}
}

// TestSingleflightCollapse: concurrent misses of one key produce exactly
// one leader fill; every other lookup waits on the flight and returns the
// committed bytes.
func TestSingleflightCollapse(t *testing.T) {
	e := newEnv(t, cache.Config{})
	k := subKey(3)
	_, fill := e.cl.Lookup(k)
	if fill == nil {
		t.Fatal("leader got no fill")
	}

	const waiters = 8
	type res struct {
		hit  []byte
		fill *cache.Fill
	}
	ch := make(chan res, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			h, f := e.cl.Lookup(k)
			ch <- res{h, f}
		}()
	}
	waitFor(t, "waiters to collapse", func() bool { return e.cl.Stats().Collapsed == waiters })

	raw := streamBytes(t, k.Shard)
	fill.Write(raw)
	fill.Commit()
	for i := 0; i < waiters; i++ {
		r := <-ch
		if r.fill != nil {
			t.Fatal("collapsed waiter was handed a second fill")
		}
		if !bytes.Equal(r.hit, raw) {
			t.Fatalf("collapsed waiter got %q", r.hit)
		}
	}
	if st := e.cl.Stats(); st.Collapsed != waiters || st.Fills != 1 {
		t.Fatalf("singleflight counters off: %+v", st)
	}
}

// TestAdmissionGate: below the access threshold a committed fill still
// feeds its waiters but is not pushed to the peer; crossing the
// threshold admits it.
func TestAdmissionGate(t *testing.T) {
	e := newEnv(t, cache.Config{MinAccesses: 3})
	k := subKey(3)
	raw := streamBytes(t, k.Shard)
	for touch := 1; touch <= 3; touch++ {
		hit, fill := e.cl.Lookup(k)
		if touch < 3 {
			if hit != nil || fill == nil {
				t.Fatalf("touch %d: hit=%v fill=%v", touch, hit, fill)
			}
			fill.Write(raw)
			fill.Commit()
			if st := e.cl.Stats(); st.Fills != 0 || st.AdmissionsDenied != uint64(touch) {
				t.Fatalf("touch %d pushed below threshold: %+v", touch, st)
			}
			continue
		}
		// Third sighting: admitted.
		if fill == nil {
			t.Fatal("admitted lookup returned no fill")
		}
		fill.Write(raw)
		fill.Commit()
	}
	waitFor(t, "admitted fill to land", func() bool { return e.srv.Store().Stats().Entries == 1 })
	if st := e.cl.Stats(); st.Fills != 1 {
		t.Fatalf("admission counters off: %+v", st)
	}
}

// TestOversizedFillDropped: a fill past the entry cap flips to discard
// and dies at Commit without reaching the peer.
func TestOversizedFillDropped(t *testing.T) {
	e := newEnv(t, cache.Config{MaxEntryBytes: 16})
	_, fill := e.cl.Lookup(subKey(3))
	if fill == nil {
		t.Fatal("no fill")
	}
	fill.Write(make([]byte, 64))
	fill.Commit()
	if st := e.cl.Stats(); st.FillDrops != 1 || st.Fills != 0 {
		t.Fatalf("oversized fill not dropped: %+v", st)
	}
	if got := e.srv.Store().Stats(); got.Entries != 0 {
		t.Fatalf("oversized entry reached the peer: %+v", got)
	}
}

// parkGet counts the cache frames a client sends, as opCounter does,
// and holds the first GET before it reaches the peer until open.
type parkGet struct {
	opCounter
	first   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

func (p *parkGet) open() { p.once.Do(func() { close(p.release) }) }

func (p *parkGet) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.count(req) == 1 && p.first.CompareAndSwap(false, true) {
		close(p.parked)
		<-p.release
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestOneExchangePerKeyInFlight: a lookup files its key's flight before
// it sends the peer GET, so while that GET is out no other lookup of the
// key asks the peer. Each of 8 lookups made meanwhile waits on the
// flight and is handed its outcome: the peer's bytes on a hit, the
// leader's committed bytes on a miss — never a second Fill, which is a
// second trip to origin. Deterministic: the leader's GET is parked in
// the transport until all 8 have joined. Below the admission threshold
// a commit nobody waited on is not pushed and its flight leaves at
// Commit, so the key's next lookup leads a fresh fill.
func TestOneExchangePerKeyInFlight(t *testing.T) {
	for _, minAccesses := range []uint32{1, 100} {
		for _, outcome := range []string{"hit", "miss"} {
			t.Run(fmt.Sprintf("peer %s at MinAccesses %d", outcome, minAccesses), func(t *testing.T) {
				gate := &parkGet{parked: make(chan struct{}), release: make(chan struct{})}
				e := newEnv(t, cache.Config{MinAccesses: minAccesses, HTTP: &http.Client{Transport: gate}})
				t.Cleanup(gate.open) // a failed assertion strands no lookup
				k := subKey(3)
				raw := streamBytes(t, k.Shard)
				if outcome == "hit" {
					e.seed(k, raw)
				}

				type res struct {
					hit  []byte
					fill *cache.Fill
				}
				lookup := func(out chan<- res) {
					h, f := e.cl.Lookup(k)
					out <- res{h, f}
				}
				leader := make(chan res, 1)
				go lookup(leader)
				<-gate.parked // the leader's GET is out and has not reached the peer

				const waiters = 8
				joined := make(chan res, waiters)
				for i := 0; i < waiters; i++ {
					go lookup(joined)
				}
				waitFor(t, "lookups to join the flight", func() bool {
					return e.cl.Stats().Collapsed == waiters || gate.gets() > 1
				})
				if n := gate.gets(); n != 1 {
					t.Fatalf("%d GETs sent while the leader's was out, want its 1 alone", n)
				}

				gate.open()
				r := <-leader
				if outcome == "hit" {
					if r.fill != nil || !bytes.Equal(r.hit, raw) {
						t.Fatalf("leader: bytes=%q fill=%v, want the peer hit", r.hit, r.fill)
					}
				} else {
					if r.hit != nil || r.fill == nil {
						t.Fatalf("leader: bytes=%q fill=%v, want a fill", r.hit, r.fill)
					}
					r.fill.Write(raw)
					r.fill.Commit()
				}
				for i := 0; i < waiters; i++ {
					w := <-joined
					if w.fill != nil {
						t.Fatal("a lookup that joined the flight was handed a second fill")
					}
					if !bytes.Equal(w.hit, raw) {
						t.Fatalf("a lookup that joined the flight got %q, want the leader's outcome", w.hit)
					}
				}
				st := e.cl.Stats()
				want := cache.ClientStats{Hits: waiters + 1, NearHits: st.NearHits, Collapsed: waiters, Flights: st.Flights}
				if outcome == "miss" {
					// Waited on, so pushed below the admission threshold too.
					want.Hits, want.Misses, want.Fills = 0, waiters+1, 1
				}
				if st != want || gate.gets() != 1 {
					t.Fatalf("counters %+v after %d GETs, want %+v after 1", st, gate.gets(), want)
				}
				if minAccesses == 1 {
					return
				}

				waitFor(t, "the pushed fill's PUT to return", func() bool { return e.cl.Stats().Flights == 0 })
				k2 := subKey(4)
				for i := 0; i < 2; i++ {
					b, fill := e.cl.Lookup(k2)
					if b != nil || fill == nil {
						t.Fatalf("lookup %d of an unadmitted key: bytes=%q fill=%v, want a fresh fill", i, b, fill)
					}
					fill.Write(raw)
					fill.Commit()
				}
				if st := e.cl.Stats(); st.AdmissionsDenied != 2 || st.Flights != 0 {
					t.Fatalf("unadmitted commits: %+v", st)
				}
			})
		}
	}
}

// sweepGate counts the sweep frames (tag 6) a client sends and holds the
// first until release.
type sweepGate struct {
	sweeps  atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

func (g *sweepGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if frameTag(req) == 6 && g.sweeps.Add(1) == 1 {
		close(g.parked)
		<-g.release
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientSweepsCoalesce: invalidations queue per peer and leave on
// one sender, one push in flight at a time; what is queued meanwhile
// leaves as one batched frame keeping the highest keep per group, with
// the suspect drops beside it. Wait returns once everything queued has
// landed.
func TestClientSweepsCoalesce(t *testing.T) {
	gate := &sweepGate{parked: make(chan struct{}), release: make(chan struct{})}
	e := newEnv(t, cache.Config{HTTP: &http.Client{Transport: gate}})
	st := e.srv.Store()
	sum := hashx.New().Hash([]byte("x"))
	for ep := uint64(1); ep <= 6; ep++ {
		st.Put(fmt.Sprint("g2-e", ep), "Uniform", 2, ep, sum, []byte("x"))
	}
	st.Put("suspect", "Uniform", 3, 1, sum, []byte("x"))

	e.cl.Invalidate(wire.CacheGroup{Relation: "Uniform", Shard: 2, Keep: 2})
	<-gate.parked // the first push is out; everything below queues behind it
	for _, keep := range []uint64{3, 5, 4} {
		e.cl.Invalidate(wire.CacheGroup{Relation: "Uniform", Shard: 2, Keep: keep})
	}
	e.cl.DropAsync("suspect")
	if got := gate.sweeps.Load(); got != 1 {
		t.Fatalf("%d sweeps sent while the first was in flight, want 1", got)
	}
	close(gate.release)
	e.cl.Wait()
	if got := gate.sweeps.Load(); got != 2 {
		t.Fatalf("%d sweeps sent, want the held one and one coalesced batch", got)
	}
	want := []string{"g2-e5", "g2-e6"}
	if got := st.Keys(); !slices.Equal(slices.Sorted(slices.Values(got)), want) {
		t.Fatalf("resident after the sweeps: %q, want %q", got, want)
	}
	if st := e.cl.Stats(); st.Invalidations != 4 || st.PeerErrors != 0 {
		t.Fatalf("client stats after the sweeps: %+v", st)
	}
}
