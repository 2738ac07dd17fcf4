package cache_test

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vcqr/internal/cache"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// opCounter is a transport that counts the cache frames a client sends,
// by frame tag (1 = get, 2 = put, 6 = sweep).
type opCounter struct{ ops [8]atomic.Int64 }

func (o *opCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	o.count(req)
	return http.DefaultTransport.RoundTrip(req)
}

// count counts one request's cache frame and returns its tag.
func (o *opCounter) count(req *http.Request) byte {
	tag := frameTag(req)
	o.ops[tag%8].Add(1)
	return tag
}

// frameTag is the tag of the cache frame a request carries (after its
// 4-byte length), or 0 when its body cannot be read again.
func frameTag(req *http.Request) byte {
	if req.GetBody == nil {
		return 0
	}
	body, err := req.GetBody()
	if err != nil {
		return 0
	}
	defer body.Close()
	var hdr [5]byte
	io.ReadFull(body, hdr[:])
	return hdr[4]
}

func (o *opCounter) gets() int64 { return o.ops[1].Load() }

func (o *opCounter) total() int64 {
	var n int64
	for i := range o.ops {
		n += o.ops[i].Load()
	}
	return n
}

// newCountedEnv is newEnv with the client's peer traffic counted.
func newCountedEnv(t *testing.T) (*env, *opCounter) {
	t.Helper()
	oc := &opCounter{}
	return newEnv(t, cache.Config{HTTP: &http.Client{Transport: oc}}), oc
}

// seed stores b on the peer under k's key with its true digest, as a
// filler would have.
func (e *env) seed(k cache.Key, b []byte) {
	e.srv.Store().Put(k.String(), k.Relation, k.Shard, k.Epoch, hashx.New().Hash(b), b)
}

// TestNearStoreAnswersRepeatHits: once a peer hit has validated, the
// key's further lookups are answered from the near store — the same
// bytes, and not one frame sent to a peer.
func TestNearStoreAnswersRepeatHits(t *testing.T) {
	e, oc := newCountedEnv(t)
	k := subKey(3)
	raw := streamBytes(t, k.Shard)
	e.seed(k, raw)

	b, fill := e.cl.Lookup(k)
	if fill != nil || !bytes.Equal(b, raw) {
		t.Fatalf("first lookup: bytes=%q fill=%v, want a peer hit", b, fill)
	}
	if oc.gets() != 1 {
		t.Fatalf("first lookup sent %d gets, want 1", oc.gets())
	}
	sent := oc.total()
	for i := 0; i < 100; i++ {
		b, fill := e.cl.Lookup(k)
		if fill != nil || !bytes.Equal(b, raw) {
			t.Fatalf("lookup %d: bytes=%q fill=%v, want the validated bytes", i, b, fill)
		}
	}
	if d := oc.total() - sent; d != 0 {
		t.Fatalf("100 near hits sent %d peer requests, want 0", d)
	}
	if st := e.cl.Stats(); st.Hits != 101 || st.NearHits != 100 || st.Misses != 0 {
		t.Fatalf("client counters off: %+v", st)
	}
	if got := e.srv.Store().Stats().Hits; got != 1 {
		t.Fatalf("the peer served %d hits, want 1", got)
	}
}

// TestNearStoreSkipsOwnFills: the coordinator's own committed fill does
// not enter the near store; the key's next read goes to its peer, and
// only that validated peer hit makes it near-resident.
func TestNearStoreSkipsOwnFills(t *testing.T) {
	e, oc := newCountedEnv(t)
	k := subKey(3)
	raw := streamBytes(t, k.Shard)
	_, fill := e.cl.Lookup(k)
	if fill == nil {
		t.Fatal("cold lookup returned no fill")
	}
	fill.Write(raw)
	fill.Commit()
	waitFor(t, "fill to land and retire", func() bool {
		return e.srv.Store().Stats().Entries == 1 && e.cl.Stats().Flights == 0
	})
	if keys := e.cl.Near().Keys(); len(keys) != 0 {
		t.Fatalf("an own fill entered the near store: %q", keys)
	}

	gets := oc.gets()
	if b, _ := e.cl.Lookup(k); !bytes.Equal(b, raw) {
		t.Fatalf("read after the fill: %q", b)
	}
	if d := oc.gets() - gets; d != 1 {
		t.Fatalf("read after the fill sent %d gets, want 1 to the peer", d)
	}
	if st := e.cl.Stats(); st.NearHits != 0 {
		t.Fatalf("read after the fill came from the near store: %+v", st)
	}
	if b, _ := e.cl.Lookup(k); !bytes.Equal(b, raw) || oc.gets()-gets != 1 || e.cl.Stats().NearHits != 1 {
		t.Fatalf("the validated peer hit did not make the key near-resident: %+v", e.cl.Stats())
	}
}

// TestNearStoreRefusesPoison: a peer entry that fails the digest compare
// or the frame walk never enters the near store, so the key's next
// lookup asks the peer again (and catches the poison again).
func TestNearStoreRefusesPoison(t *testing.T) {
	h := hashx.New()
	valid := streamBytes(t, 2)
	header := splitFrames(valid)[0]
	for i, tc := range []struct {
		name  string
		bytes []byte
		sum   hashx.Digest
	}{
		{"digest mismatch", valid, h.Hash([]byte("other"))},
		{"frame walk", header, h.Hash(header)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, oc := newCountedEnv(t)
			k := subKey(uint64(60 + i))
			for round := 1; round <= 2; round++ {
				e.srv.Store().Put(k.String(), k.Relation, k.Shard, k.Epoch, tc.sum, tc.bytes)
				gets := oc.gets()
				b, fill := e.cl.Lookup(k)
				if b != nil || fill == nil {
					t.Fatalf("round %d: poisoned entry did not fall through to a fillable miss", round)
				}
				fill.Abort()
				if d := oc.gets() - gets; d != 1 {
					t.Fatalf("round %d: lookup sent %d gets, want 1 to the peer", round, d)
				}
				if st := e.cl.Stats(); st.Fallthroughs != uint64(round) || st.NearHits != 0 {
					t.Fatalf("round %d: counters %+v", round, st)
				}
				if keys := e.cl.Near().Keys(); len(keys) != 0 {
					t.Fatalf("round %d: poison entered the near store: %q", round, keys)
				}
				e.cl.Wait() // the suspect drop lands before the peer is poisoned again
			}
		})
	}
}

// bigStreamBytes is a complete stream of about n bytes: its footer
// carries an n-byte aggregate signature.
func bigStreamBytes(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range []*engine.Chunk{
		{Type: engine.ChunkHeader},
		{Type: engine.ChunkFooter, Seq: 1, AggSig: make([]byte, n)},
	} {
		if err := wire.WriteChunkFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNearStoreBudget: filling the near store with more validated
// entries than fit keeps it within its fixed budget; the LRU evicts.
func TestNearStoreBudget(t *testing.T) {
	e, _ := newCountedEnv(t)
	raw := bigStreamBytes(t, 64<<10)
	n := 2 * cache.NearBudget / len(raw)
	for i := 0; i < n; i++ {
		k := subKey(uint64(i))
		e.seed(k, raw)
		if b, _ := e.cl.Lookup(k); !bytes.Equal(b, raw) {
			t.Fatalf("key %d: not a peer hit", i)
		}
		if got := e.cl.Near().Stats().Bytes; got > cache.NearBudget {
			t.Fatalf("after %d keys the near store holds %d bytes, over its %d budget", i+1, got, cache.NearBudget)
		}
	}
	st := e.cl.Near().Stats()
	if st.Evictions == 0 || st.Entries >= n || st.Budget != cache.NearBudget {
		t.Fatalf("near store after %d keys: %+v", n, st)
	}
	// The most recent key is resident; the first was evicted.
	if keys := e.cl.Near().Keys(); keys[0] != subKey(uint64(n-1)).String() || slices.Contains(keys, subKey(0).String()) {
		t.Fatalf("near store is not in LRU order: %d keys, front %q", len(keys), keys[0])
	}
}

// TestNearStoreConcurrentFirstHit: many goroutines look one key up while
// its first peer hit is in progress; exactly one GET goes to the peer,
// every lookup gets the validated bytes, every hit is counted once —
// from the peer, from the flight of its GET, or from the near store —
// and afterwards nothing goes to the peer. Run under -race.
func TestNearStoreConcurrentFirstHit(t *testing.T) {
	e, oc := newCountedEnv(t)
	k := subKey(3)
	raw := streamBytes(t, k.Shard)
	e.seed(k, raw)

	const goroutines, each = 16, 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				if b, fill := e.cl.Lookup(k); fill != nil || !bytes.Equal(b, raw) {
					t.Errorf("concurrent lookup: bytes=%q fill=%v", b, fill)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	// One GET for the key: every lookup made while it was out waited on
	// its flight, every later one read the near store.
	st := e.cl.Stats()
	if oc.gets() != 1 || st.Hits != goroutines*each || st.Hits != 1+st.Collapsed+st.NearHits {
		t.Fatalf("counters after the storm: %+v, %d peer gets, want 1", st, oc.gets())
	}
	sent := oc.total()
	if b, _ := e.cl.Lookup(k); !bytes.Equal(b, raw) || oc.total() != sent {
		t.Fatal("a lookup after the storm went to the peer")
	}
	if keys := e.cl.Near().Keys(); len(keys) != 1 {
		t.Fatalf("near store holds %q, want the one key", keys)
	}
}
