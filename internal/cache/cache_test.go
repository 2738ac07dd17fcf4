package cache_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vcqr/internal/cache"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// subStreamBytes builds a structurally valid shard sub-stream entry:
// hello + one chunk + foot, exactly what a coordinator fill tees.
func subStreamBytes(t testing.TB, shard int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range []*wire.NodeFrame{
		{Hello: &wire.NodeHello{Shard: shard, Epoch: 3}},
		{Chunk: &engine.Chunk{Type: engine.ChunkEntries, Seq: 1, Shard: shard}},
		{Foot: &wire.NodeFoot{Entries: 1}},
	} {
		if err := wire.WriteNodeFrame(&buf, f); err != nil {
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
		Role: "all", Query: engine.Query{Relation: "Uniform"},
		Lo: 0, Hi: 99, First: true, Last: true, ChunkRows: 8,
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

// TestStoreInvalidate pins the wire.CacheInvalidate contract on the
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

// TestKeyStringSchema: every field that shapes the bytes must move the
// key, and whole-stream keys bind the full epoch vector.
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
	v.Lo = 1
	variants = append(variants, v)
	v = base
	v.Last = false
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
// round trip against a live peer.
func TestClientFillAndHit(t *testing.T) {
	e := newEnv(t, cache.Config{})
	k := subKey(3)
	hit, fill := e.cl.Lookup(k)
	if hit != nil || fill == nil {
		t.Fatalf("cold lookup: hit=%v fill=%v", hit, fill)
	}
	raw := subStreamBytes(t, k.Shard)
	if _, err := fill.Write(raw); err != nil {
		t.Fatal(err)
	}
	fill.Commit()
	waitFor(t, "async fill to land", func() bool { return e.srv.Store().Stats().Entries == 1 })

	hit, fill = e.cl.Lookup(k)
	if fill != nil {
		t.Fatal("warm lookup returned a fill")
	}
	if hit == nil || hit.Hello.Shard != k.Shard || len(hit.Chunks) != 1 || hit.Foot.Entries != 1 {
		t.Fatalf("warm hit mismatch: %+v", hit)
	}
	if st := e.cl.Stats(); st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("client counters off: %+v", st)
	}

	// Whole-stream entries round-trip as raw bytes, no decode.
	sk := cache.Key{Relation: "Uniform", Shard: cache.StreamShard, Epochs: []uint64{3, 3}, Role: "all", ChunkRows: 8}
	b, sfill := e.cl.LookupStream(sk)
	if b != nil || sfill == nil {
		t.Fatal("cold stream lookup did not return a fill")
	}
	sfill.Write([]byte("merged-stream-bytes"))
	sfill.Commit()
	waitFor(t, "stream fill to land", func() bool { return e.srv.Store().Stats().Entries == 2 })
	b, sfill = e.cl.LookupStream(sk)
	if sfill != nil || string(b) != "merged-stream-bytes" {
		t.Fatalf("warm stream lookup: %q", b)
	}
}

// TestClientNamedErrors pins the untrusted-peer defenses by name: a
// digest mismatch is ErrSumMismatch, bytes that pass the digest but do
// not decode as the promised sub-stream are ErrEntryMalformed, and both
// read as misses on the serving path.
func TestClientNamedErrors(t *testing.T) {
	e := newEnv(t, cache.Config{})
	h := hashx.New()
	valid := subStreamBytes(t, 2)

	// Corrupted bytes under a stale digest.
	k1 := subKey(10)
	e.srv.Store().Put(k1.String(), "Uniform", 2, 10, h.Hash([]byte("other")), valid)
	if _, err := e.cl.Probe(k1); !errors.Is(err, cache.ErrSumMismatch) {
		t.Fatalf("tampered entry probed as %v, want ErrSumMismatch", err)
	}

	// Garbage consistent with its digest — a peer can always hash what
	// it forges, so the structural decode is the second line.
	k2 := subKey(11)
	garbage := []byte("not a sub-stream")
	e.srv.Store().Put(k2.String(), "Uniform", 2, 11, h.Hash(garbage), garbage)
	if _, err := e.cl.Probe(k2); !errors.Is(err, cache.ErrEntryMalformed) {
		t.Fatalf("garbage entry probed as %v, want ErrEntryMalformed", err)
	}

	// A valid sub-stream for the WRONG shard must not decode either.
	k3 := subKey(12)
	wrong := subStreamBytes(t, 5)
	e.srv.Store().Put(k3.String(), "Uniform", 2, 12, h.Hash(wrong), wrong)
	if _, err := e.cl.Probe(k3); !errors.Is(err, cache.ErrEntryMalformed) {
		t.Fatalf("wrong-shard entry probed as %v, want ErrEntryMalformed", err)
	}

	// Trailing bytes after the foot are refused.
	k4 := subKey(13)
	trailing := append(append([]byte{}, valid...), 0xde, 0xad)
	e.srv.Store().Put(k4.String(), "Uniform", 2, 13, h.Hash(trailing), trailing)
	if _, err := e.cl.Probe(k4); !errors.Is(err, cache.ErrEntryMalformed) {
		t.Fatalf("trailing-bytes entry probed as %v, want ErrEntryMalformed", err)
	}

	// A sub-stream cut before its foot, and one that carries a node's
	// in-band error, are not entries.
	frames := splitFrames(valid)
	var errFrame bytes.Buffer
	if err := wire.WriteNodeFrame(&errFrame, &wire.NodeFrame{Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{
		bytes.Join(frames[:2], nil),
		bytes.Join([][]byte{frames[0], frames[1], errFrame.Bytes(), frames[2]}, nil),
	} {
		k := subKey(uint64(14 + i))
		e.srv.Store().Put(k.String(), "Uniform", 2, uint64(14+i), h.Hash(bad), bad)
		if _, err := e.cl.Probe(k); !errors.Is(err, cache.ErrEntryMalformed) {
			t.Fatalf("footless/error-frame entry %d probed as %v, want ErrEntryMalformed", i, err)
		}
	}

	// On the serving path the same poison reads as a miss with a fill —
	// the caller falls through to origin and the suspect entry dies.
	k5 := subKey(14)
	e.srv.Store().Put(k5.String(), "Uniform", 2, 14, h.Hash([]byte("other")), valid)
	hit, fill := e.cl.Lookup(k5)
	if hit != nil || fill == nil {
		t.Fatal("poisoned entry did not fall through to a fillable miss")
	}
	fill.Abort()
	if st := e.cl.Stats(); st.Fallthroughs == 0 {
		t.Fatalf("fall-through not counted: %+v", st)
	}
	waitFor(t, "suspect entry drop", func() bool {
		for _, ks := range e.srv.Store().Keys() {
			if ks == k5.String() {
				return false
			}
		}
		return true
	})
	// Probe on a clean miss is (nil, nil).
	if hit, err := e.cl.Probe(subKey(99)); hit != nil || err != nil {
		t.Fatalf("clean miss probed as (%v, %v)", hit, err)
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
		hit  *cache.Hit
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

	fill.Write(subStreamBytes(t, k.Shard))
	fill.Commit()
	for i := 0; i < waiters; i++ {
		r := <-ch
		if r.fill != nil {
			t.Fatal("collapsed waiter was handed a second fill")
		}
		if r.hit == nil || len(r.hit.Chunks) != 1 {
			t.Fatalf("collapsed waiter got %+v", r.hit)
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
	raw := subStreamBytes(t, k.Shard)
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

// parkFirst is a transport that completes the first request it sees and
// then holds the response until release: a lookup parked between its
// peer GET and its flights check.
type parkFirst struct {
	base    http.RoundTripper
	seen    atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.base.RoundTrip(req)
	if p.seen.CompareAndSwap(false, true) {
		close(p.parked)
		<-p.release
	}
	return resp, err
}

// TestStaleMissFindsSettledFlight closes the singleflight window: a
// lookup whose peer GET missed before another lookup's fill committed,
// but which checks the flights table after that commit (and after the
// PUT landed), must be handed the committed bytes — never a second fill,
// which is a second trip to origin. Deterministic: the stale lookup is
// parked inside its GET while the whole fill happens.
func TestStaleMissFindsSettledFlight(t *testing.T) {
	for _, tc := range []struct {
		name        string
		minAccesses uint32
		wantPut     bool
	}{
		{"admitted fill pushed to the peer", 1, true},
		{"fill below the admission threshold", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &parkFirst{base: http.DefaultTransport, parked: make(chan struct{}), release: make(chan struct{})}
			e := newEnv(t, cache.Config{MinAccesses: tc.minAccesses, HTTP: &http.Client{Transport: gate}})
			k := subKey(3)
			raw := subStreamBytes(t, k.Shard)

			type res struct {
				hit  *cache.Hit
				fill *cache.Fill
			}
			stale := make(chan res, 1)
			go func() {
				h, f := e.cl.Lookup(k)
				stale <- res{h, f}
			}()
			<-gate.parked // the stale lookup's GET has missed; it has not looked at flights yet

			_, fill := e.cl.Lookup(k)
			if fill == nil {
				t.Fatal("leader got no fill")
			}
			fill.Write(raw)
			fill.Commit()
			if tc.wantPut {
				waitFor(t, "fill to land on the peer", func() bool { return e.srv.Store().Stats().Entries == 1 })
				waitFor(t, "PUT to be acknowledged", func() bool { h, _ := e.cl.Probe(k); return h != nil })
			}

			close(gate.release)
			r := <-stale
			if r.fill != nil {
				t.Fatal("a lookup whose GET missed before the commit became a second leader")
			}
			if r.hit == nil || len(r.hit.Chunks) != 1 {
				t.Fatalf("stale lookup got %+v, want the committed bytes", r.hit)
			}
			// Nothing is kept past the lookups it was kept for: with the
			// flight retired, an unadmitted key misses to a fresh leader.
			if !tc.wantPut {
				waitFor(t, "settled flight to retire", func() bool {
					_, f := e.cl.Lookup(k)
					if f != nil {
						f.Abort()
					}
					return f != nil
				})
			}
		})
	}
}
