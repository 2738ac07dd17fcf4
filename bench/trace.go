package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// request's root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: every method is a no-op, so the measured phase pays one
// nil check per boundary and nothing else.
type recorder struct {
	t0 time.Time
	// on gates recording: the recorder is attached to the RoundTrippers
	// at bring-up, but only the traced pass's spans are kept.
	on atomic.Bool

	// req and root identify the request currently in flight. The traced
	// pass runs ONE client, so the RoundTrippers on the cluster and cache
	// clients — which cannot see who caused an RPC — attribute it to the
	// current request.
	req  atomic.Int64
	root atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a new request and returns its id.
func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	r.root.Store(0)
	return r.req.Add(1)
}

// add records a finished span of request req and returns its ID.
func (r *recorder) add(req int64, name string, parent int, start, end time.Time) int {
	if r == nil || !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// reserve allocates a span whose end is not known yet (a request root is
// opened before its children); finish closes it.
func (r *recorder) reserve(req int64, name string, parent int, start time.Time) int {
	id := r.add(req, name, parent, start, start)
	if r != nil && parent == 0 {
		r.root.Store(int64(id))
	}
	return id
}

func (r *recorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type nsRange struct{ a, b int64 }

// unionLen is the total length of the union of the intervals clipped to
// [lo, hi] — the part of a parent its children cover.
func unionLen(iv []nsRange, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := x.a, x.b
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes returns, per root span of the given name, its duration and
// the part its descendants named in `children` do not cover.
func (r *recorder) selfTimes(rootName string, children func(name string) bool) (durs, selfs []float64) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byReq := map[int64][]span{}
	for _, s := range r.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, ss := range byReq {
		for _, root := range ss {
			if root.Name != rootName {
				continue
			}
			var iv []nsRange
			for _, s := range ss {
				if s.ID != root.ID && children(s.Name) {
					iv = append(iv, nsRange{s.Start, s.End})
				}
			}
			d := root.End - root.Start
			durs = append(durs, float64(d))
			selfs = append(selfs, float64(d-unionLen(iv, root.Start, root.End)))
		}
	}
	return durs, selfs
}

// meter is an http.RoundTripper that counts and times every exchange of
// one HTTP client, keyed by path — the seam wire.Client.HTTP,
// cluster.Config.HTTP and cache.Config.HTTP already offer. It measures
// from outside: request sent -> response headers (TTFB) and -> body
// closed or drained (total), plus response body bytes. With a recorder
// attached it also emits one span per exchange.
type meter struct {
	next  http.RoundTripper
	layer string    // span name prefix: "cluster.rpc" or "cache.rpc"
	rec   *recorder // nil = counters only
	// classify refines the key beyond the URL path (the cache protocol
	// multiplexes get/put/invalidate over one path); nil = path.
	classify func(*http.Request) string
	// mangle, when set, may corrupt a response body piece read at the
	// given body offset: the smoke test's byte-flipping transport.
	mangle func(off int64, p []byte)

	mu    sync.Mutex
	stats map[string]*rpcStat
	ended map[string]int // exchanges finished or failed since creation, by key
}

type rpcStat struct {
	N      int
	Bytes  int64
	TTFB   []float64 // ms
	Total  []float64 // ms
	Errors int
}

func newMeter(layer string, rec *recorder) *meter {
	// A private transport: the benchmark's clients must not share idle
	// connections (or their limits) with http.DefaultTransport users.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &meter{next: tr, layer: layer, rec: rec, stats: map[string]*rpcStat{}, ended: map[string]int{}}
}

func (m *meter) client(timeout time.Duration) *http.Client {
	return &http.Client{Transport: m, Timeout: timeout}
}

func (m *meter) close() {
	if tr, ok := m.next.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Path
	if m.classify != nil {
		key = m.classify(req)
	}
	var reqID int64
	parent := 0
	if m.rec != nil {
		reqID, parent = m.rec.req.Load(), int(m.rec.root.Load())
	}
	t0 := time.Now()
	resp, err := m.next.RoundTrip(req)
	t1 := time.Now()
	if err != nil {
		m.mu.Lock()
		m.stat(key).Errors++
		m.ended[key]++
		m.mu.Unlock()
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m, key: key, req: reqID, parent: parent, t0: t0, t1: t1}
	return resp, nil
}

// stat returns the key's counters; caller holds m.mu.
func (m *meter) stat(key string) *rpcStat {
	s := m.stats[key]
	if s == nil {
		s = &rpcStat{}
		m.stats[key] = s
	}
	return s
}

// endedCount is how many exchanges of the key have finished, well or
// badly, since the meter was made; snapshot does not reset it.
func (m *meter) endedCount(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ended[key]
}

// snapshot hands over the counters gathered so far and starts afresh.
func (m *meter) snapshot() map[string]*rpcStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	m.stats = map[string]*rpcStat{}
	return out
}

// meteredBody closes the exchange's accounting when the body is drained
// or closed, whichever comes first.
type meteredBody struct {
	io.ReadCloser
	m      *meter
	key    string
	req    int64
	parent int
	t0, t1 time.Time
	n      int64
	done   bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.m.mangle != nil {
		b.m.mangle(b.n, p[:n])
	}
	b.n += int64(n)
	if err == io.EOF {
		b.settle()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.settle()
	return b.ReadCloser.Close()
}

func (b *meteredBody) settle() {
	if b.done {
		return
	}
	b.done = true
	t2 := time.Now()
	m := b.m
	m.mu.Lock()
	s := m.stat(b.key)
	s.N++
	m.ended[b.key]++
	s.Bytes += b.n
	s.TTFB = append(s.TTFB, ms(b.t1.Sub(b.t0)))
	s.Total = append(s.Total, ms(t2.Sub(b.t0)))
	m.mu.Unlock()
	m.rec.add(b.req, m.layer+b.key, b.parent, b.t0, t2)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// The cache protocol's request frame is a 4-byte length then a tag byte
// (internal/wire/cache.go); the tag is the only way to tell a GET from a
// PUT from outside the package.
var cacheOps = map[byte]string{1: ":get", 2: ":put", 3: ":invalidate", 4: ":stats"}

func classifyCacheOp(req *http.Request) string {
	key := req.URL.Path
	if req.GetBody == nil {
		return key
	}
	body, err := req.GetBody()
	if err != nil {
		return key
	}
	defer body.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return key
	}
	return key + cacheOps[hdr[4]]
}
