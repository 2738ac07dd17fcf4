// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md experiment index E1-E7). Custom metrics report the
// quantities the paper plots: VO bytes, overhead percentages, hash
// counts.
package vcqr

import (
	"io"
	"sync"
	"testing"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/paper/baseline/devanbu"
	"vcqr/internal/paper/experiments"
	"vcqr/internal/paper/relalg"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/workload"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	envOnce.Do(func() {
		e, err := experiments.NewEnv(false)
		if err != nil {
			b.Fatalf("env: %v", err)
		}
		benchEnv = e
	})
	return benchEnv
}

// fixtures shared across benchmarks; built once.
type fixture struct {
	h    *hashx.Hasher
	sr   *core.SignedRelation
	rel  *relation.Relation
	pub  *engine.Publisher
	role accessctl.Role
	v    *verify.Verifier
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func sharedFixture(b *testing.B) *fixture {
	e := env(b)
	fixOnce.Do(func() {
		h := hashx.New()
		rel, err := workload.Uniform(workload.UniformConfig{
			N: 512, L: 0, U: 1 << 32, PayloadSize: 499, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewParams(0, 1<<32, 2)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := core.Build(h, e.Key, p, rel)
		if err != nil {
			b.Fatal(err)
		}
		role := accessctl.Role{Name: "all"}
		pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(role))
		if err := pub.AddRelation(sr, false); err != nil {
			b.Fatal(err)
		}
		fix = &fixture{
			h: h, sr: sr, rel: rel, pub: pub, role: role,
			v: verify.New(h, e.Key.Public(), p, sr.Schema),
		}
	})
	return fix
}

// queryTopQ returns the greater-than query selecting the top q records.
func queryTopQ(b *testing.B, f *fixture, q int) engine.Query {
	n := f.sr.Len()
	if q > n {
		b.Fatalf("q %d > n %d", q, n)
	}
	return engine.Query{Relation: "Uniform", KeyLo: f.sr.Recs[n-q+1].Key()}
}

// --- E3 / Table 1 -------------------------------------------------------

// BenchmarkTable1Chash measures the hash-operation cost (the paper's
// Chash = 50 us in 2005).
func BenchmarkTable1Chash(b *testing.B) {
	h := hashx.New()
	m := hashx.U64Pair(12345, 7)
	d := h.First(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = h.Next(d)
	}
	_ = d
}

// BenchmarkTable1Csign measures signature verification (Csign = 5 ms in
// 2005).
func BenchmarkTable1Csign(b *testing.B) {
	e := env(b)
	h := hashx.New()
	d := h.Hash([]byte("bench"))
	s := e.Key.Sign(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Key.Public().Verify(d, s) {
			b.Fatal("verify failed")
		}
	}
}

// --- E1 / Figure 9 ------------------------------------------------------

// BenchmarkFig9TrafficOverhead measures VO generation and reports the
// authentication-traffic metrics the figure plots, per result size.
func BenchmarkFig9TrafficOverhead(b *testing.B) {
	f := sharedFixture(b)
	for _, q := range []int{1, 2, 5, 10, 100} {
		b.Run(benchName("Q", q), func(b *testing.B) {
			query := queryTopQ(b, f, q)
			var res *engine.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = f.pub.Execute("all", query)
				if err != nil {
					b.Fatal(err)
				}
			}
			acc := res.VO.Account(f.h.Size(), env(b).Key.Public().SigBytes())
			b.ReportMetric(float64(acc.Bytes()), "VO-bytes")
			b.ReportMetric(100*float64(acc.Bytes())/float64(experiments.ResultBytes(res)), "overhead-%")
		})
	}
}

// --- E2 / Figure 10 -----------------------------------------------------

// BenchmarkFig10UserComputation measures user-side verification per base
// B at |Q| = 10, reporting the hash count alongside the time.
func BenchmarkFig10UserComputation(b *testing.B) {
	e := env(b)
	for _, base := range []uint64{2, 3, 4, 6, 8, 10} {
		b.Run(benchName("B", int(base)), func(b *testing.B) {
			h := hashx.New()
			rel, err := workload.Uniform(workload.UniformConfig{
				N: 40, L: 0, U: 1 << 32, PayloadSize: 32, Seed: int64(base),
			})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewParams(0, 1<<32, base)
			if err != nil {
				b.Fatal(err)
			}
			sr, err := core.Build(h, e.Key, p, rel)
			if err != nil {
				b.Fatal(err)
			}
			role := accessctl.Role{Name: "all"}
			pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(role))
			if err := pub.AddRelation(sr, false); err != nil {
				b.Fatal(err)
			}
			query := engine.Query{Relation: "Uniform", KeyLo: sr.Recs[sr.Len()-9].Key()}
			res, err := pub.Execute("all", query)
			if err != nil {
				b.Fatal(err)
			}
			v := verify.New(h, e.Key.Public(), p, sr.Schema)
			h.ResetOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyResult(query, role, res); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(h.Ops())/float64(b.N), "hashes/op")
		})
	}
}

// --- E5 / VO size vs the Devanbu baseline --------------------------------

// BenchmarkVOSizeVsDevanbu measures both schemes answering the same query
// over the same 512-record table and reports their VO bytes.
func BenchmarkVOSizeVsDevanbu(b *testing.B) {
	f := sharedFixture(b)
	e := env(b)
	st, err := devanbu.Build(f.h, e.Key, f.rel)
	if err != nil {
		b.Fatal(err)
	}
	query := queryTopQ(b, f, 10)
	b.Run("ours", func(b *testing.B) {
		var res *engine.Result
		for i := 0; i < b.N; i++ {
			res, err = f.pub.Execute("all", query)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.VO.Account(f.h.Size(), e.Key.Public().SigBytes()).Bytes()), "VO-bytes")
	})
	b.Run("devanbu", func(b *testing.B) {
		var res *devanbu.QueryResult
		for i := 0; i < b.N; i++ {
			res, err = st.Query(f.h, query.KeyLo, f.sr.Params.U-1)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.VOBytes(f.h.Size(), e.Key.Public().SigBytes())), "VO-bytes")
	})
}

// --- E6 / update cost ----------------------------------------------------

// BenchmarkUpdateChain measures an attribute update under the chained
// signature scheme: 3 local re-signs, no global structure.
func BenchmarkUpdateChain(b *testing.B) {
	f := sharedFixture(b)
	e := env(b)
	// UpdateAttrs drops the relation's crypto index; mutate a private
	// copy so later benchmarks still get the fixture they share.
	sr := f.sr.Clone()
	n := sr.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := sr.Recs[1+i%n]
		_, err := sr.UpdateAttrs(f.h, e.Key, rec.Key(), rec.Tuple.RowID,
			[]relation.Value{relation.BytesVal([]byte{byte(i)})})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateMHT measures an update under the Devanbu baseline: leaf
// replacement, root-path recomputation, root re-signing.
func BenchmarkUpdateMHT(b *testing.B) {
	f := sharedFixture(b)
	e := env(b)
	st, err := devanbu.Build(f.h, e.Key, f.rel)
	if err != nil {
		b.Fatal(err)
	}
	n := f.rel.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % n
		_, err := st.Update(f.h, e.Key, idx, relation.Tuple{
			Key:   st.Tuples[idx+1].Key,
			Attrs: []relation.Value{relation.BytesVal([]byte{byte(i)})},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7 / Section 5.1 ablation -------------------------------------------

// BenchmarkGLinear computes one conceptual digest g(r) = h^{U-r-1}(r) over
// a 2^20 domain — the formula (2) cost the optimization eliminates.
func BenchmarkGLinear(b *testing.B) {
	h := hashx.New()
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LinearG(h, p, 12345, core.Up); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBaseB computes the same digest with the base-B optimization
// over the same domain.
func BenchmarkGBaseB(b *testing.B) {
	h := hashx.New()
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		b.Fatal(err)
	}
	root, attr := h.Hash([]byte("r")), h.Hash([]byte("a"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EntryG(h, p, 12345, core.KindRecord, root, root, attr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 5.2 / signature aggregation ----------------------------------

// BenchmarkVerifyAggregated verifies a 100-entry result with one
// condensed signature.
func BenchmarkVerifyAggregated(b *testing.B) {
	f := sharedFixture(b)
	query := queryTopQ(b, f, 100)
	res, err := f.pub.Execute("all", query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.v.VerifyResult(query, f.role, res); err != nil {
			b.Fatal(err)
		}
	}
}

// --- owner-side costs ------------------------------------------------------

// BenchmarkOwnerBuildPerRecord measures the owner's signing pipeline
// (chain digests + attribute tree + one signature per record).
func BenchmarkOwnerBuildPerRecord(b *testing.B) {
	e := env(b)
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: 64, L: 0, U: 1 << 32, PayloadSize: 64, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<32, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(h, e.Key, p, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/record")
}

// --- extension benchmarks ---------------------------------------------------

// BenchmarkPKFKJoin measures a verified PK-FK join (Section 4.3): the R
// range plus one point proof per distinct foreign key.
func BenchmarkPKFKJoin(b *testing.B) {
	e := env(b)
	h := hashx.New()
	empSchema := relation.Schema{Name: "EmpFK", KeyName: "Dept",
		Cols: []relation.Column{{Name: "Name", Type: relation.TypeString}}}
	emp, err := relation.New(empSchema, 0, 4096)
	if err != nil {
		b.Fatal(err)
	}
	deptSchema := relation.Schema{Name: "DeptPK", KeyName: "ID",
		Cols: []relation.Column{{Name: "DName", Type: relation.TypeString}}}
	dept, err := relation.New(deptSchema, 0, 4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= 32; i++ {
		if _, err := dept.Insert(relation.Tuple{Key: i * 100, Attrs: []relation.Value{relation.StringVal("d")}}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := emp.Insert(relation.Tuple{Key: i * 100, Attrs: []relation.Value{relation.StringVal("e")}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	p, err := core.NewParams(0, 4096, 2)
	if err != nil {
		b.Fatal(err)
	}
	empSR, err := core.Build(h, e.Key, p, emp)
	if err != nil {
		b.Fatal(err)
	}
	deptSR, err := core.Build(h, e.Key, p, dept)
	if err != nil {
		b.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	pub := engine.NewPublisher(h, e.Key.Public(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(empSR, false); err != nil {
		b.Fatal(err)
	}
	if err := pub.AddRelation(deptSR, false); err != nil {
		b.Fatal(err)
	}
	jq := relalg.JoinQuery{R: "EmpFK", S: "DeptPK", KeyLo: 100, KeyHi: 800}
	rv := verify.New(h, e.Key.Public(), p, empSchema)
	sv := verify.New(h, e.Key.Public(), p, deptSchema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relalg.ExecuteJoin(pub, "all", jq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relalg.VerifyJoin(rv, sv, jq, role, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaApply measures the publisher-side cost of applying and
// re-validating a 3-op update delta.
func BenchmarkDeltaApply(b *testing.B) {
	e := env(b)
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: 256, L: 0, U: 1 << 32, PayloadSize: 32, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ownerCopy, err := core.Build(h, e.Key, p, rel)
	if err != nil {
		b.Fatal(err)
	}
	publisherCopy := ownerCopy.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := ownerCopy.Clone()
		rec := ownerCopy.Recs[1+i%ownerCopy.Len()]
		if _, err := ownerCopy.UpdateAttrs(h, e.Key, rec.Key(), rec.Tuple.RowID,
			[]relation.Value{relation.BytesVal([]byte{byte(i)})}); err != nil {
			b.Fatal(err)
		}
		d := delta.Diff(before, ownerCopy)
		b.StartTimer()
		next := publisherCopy.Clone()
		touched, err := delta.ApplyOps(next, d)
		if err != nil {
			b.Fatal(err)
		}
		if err := delta.ValidateTouched(h, e.Key.Public(), next, touched, false); err != nil {
			b.Fatal(err)
		}
		publisherCopy = next
	}
}

// BenchmarkServerDelta measures one in-process Server.ApplyDelta of a
// 3-op update (a record and its two re-signed neighbours) on a 4,096-row
// K = 1 table — staging clone, apply, crypto-index refresh, validation
// of the touched neighbourhood and the epoch swap. The owner mints each
// delta off the clock.
func BenchmarkServerDelta(b *testing.B) {
	e := env(b)
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{
		N: 4096, L: 0, U: 1 << 32, PayloadSize: 64, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<32, 2)
	if err != nil {
		b.Fatal(err)
	}
	owner, err := core.Build(h, e.Key, p, rel)
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{Hasher: h, Pub: e.Key.Public(), Policy: accessctl.NewPolicy(accessctl.Role{Name: "all"})})
	b.Cleanup(s.Close)
	if err := s.AddRelation(owner.Clone(), false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := owner.Clone()
		rec := owner.Recs[2+i*97%(owner.Len()-2)]
		if _, err := owner.UpdateAttrs(h, e.Key, rec.Key(), rec.Tuple.RowID,
			[]relation.Value{relation.BytesVal([]byte{byte(i)})}); err != nil {
			b.Fatal(err)
		}
		d := delta.Diff(before, owner)
		b.StartTimer()
		if _, err := s.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving layer (internal/server) ---------------------------------------

// serverFixture builds a server over the shared 512-record relation.
func serverFixture(b *testing.B) *server.Server {
	f := sharedFixture(b)
	e := env(b)
	s := server.New(server.Config{
		Hasher: f.h,
		Pub:    e.Key.Public(),
		Policy: accessctl.NewPolicy(f.role),
	})
	b.Cleanup(s.Close)
	if err := s.AddRelation(f.sr.Clone(), false); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServerConcurrentQuery measures serving throughput with many
// goroutines querying epoch snapshots lock-free (RunParallel scales with
// -cpu). The query mix rotates over ranges; every query is a full VO
// assembly, drained chunk by chunk.
func BenchmarkServerConcurrentQuery(b *testing.B) {
	f := sharedFixture(b)
	s := serverFixture(b)
	queries := []engine.Query{
		queryTopQ(b, f, 1), queryTopQ(b, f, 5),
		queryTopQ(b, f, 10), queryTopQ(b, f, 100),
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			st, err := s.QueryStream("all", queries[i%len(queries)], 0)
			for err == nil {
				_, err = st.Next()
			}
			if err != io.EOF {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkStreamQuery contrasts the streaming pipeline against the
// materialized one on the same query, verification included. The
// headline metrics: ttfc-ns (time to the first verified entry chunk —
// what a user waits before rows start arriving) and allocs/op. The
// streaming path's allocations are per chunk; with 64-row chunks over a
// 512-row result the publisher and verifier never hold more than one
// chunk plus O(1) accumulators, which is what lets result size outgrow
// publisher RAM.
func BenchmarkStreamQuery(b *testing.B) {
	f := sharedFixture(b)
	query := queryTopQ(b, f, 512)
	b.Run("materialized", func(b *testing.B) {
		s := serverFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := s.QueryStream("all", query, 0)
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.Collect(st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.v.VerifyResult(query, f.role, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		s := serverFixture(b)
		var ttfc time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			st, err := s.QueryStream("all", query, 64)
			if err != nil {
				b.Fatal(err)
			}
			sv := f.v.NewStreamVerifier(query, f.role)
			rows, firstChunk := 0, time.Duration(0)
			for {
				c, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				released, err := sv.Consume(c)
				if err != nil {
					b.Fatal(err)
				}
				rows += len(released)
				if firstChunk == 0 && rows > 0 {
					firstChunk = time.Since(start)
				}
			}
			if err := sv.Finish(); err != nil {
				b.Fatal(err)
			}
			if rows != 512 {
				b.Fatalf("streamed %d rows, want 512", rows)
			}
			ttfc += firstChunk
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(ttfc.Nanoseconds())/float64(b.N), "ttfc-ns")
		}
	})
}

// --- aggregation fast path -----------------------------------------------

// BenchmarkCryptoAggregate compares the two condensed-signature paths on
// the shared 512-record fixture: the naive O(|Q|) per-record fold against
// the epoch product tree's O(log n) range lookup.
func BenchmarkCryptoAggregate(b *testing.B) {
	f := sharedFixture(b)
	pub := env(b).Key.Public()
	n := f.sr.Len()
	sigs := make([]sig.Signature, 0, n)
	for i := 1; i <= n; i++ {
		sigs = append(sigs, sig.Signature(f.sr.Recs[i].Sig))
	}
	ix := f.sr.AggIndex()
	if ix == nil {
		b.Fatal("fixture relation carries no crypto index")
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pub.Aggregate(sigs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.RangeAggregate(1, n+1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Keep sig import used even if benchmarks are filtered.
var _ = sig.DefaultBits
