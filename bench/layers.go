package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// runLayers times each layer alone, by direct calls into its exported
// functions on the run's own data: no HTTP, no other tier, one goroutine.
// These are the numbers that say what a layer costs when nothing else is
// in the way; the traced pass says what it costs in place. They do not
// depend on the workload, so every traced run reports them.
//
// Each figure is the median over cfg.LayerReps repetitions of a pass
// over the same few scan-sized ranges.
func runLayers(cfg config, ds *dataset, ups []update, seed int64, dir string, m *metrics) error {
	h := ds.h
	pub := &sig.PublicKey{N: ds.key.Public().N, E: ds.key.Public().E}
	role := accessctl.Role{Name: roleName}
	policy := accessctl.NewPolicy(role)
	sr := ds.master.Clone()
	n := float64(sr.Len())
	rel := sr.Schema.Name

	// core / partition: set-up costs.
	m.put("core.sign_us_per_row", "us", us(ds.signD)/(n+2))
	t0 := time.Now()
	if err := sr.BuildAggIndex(h, pub); err != nil {
		return err
	}
	m.put("core.aggindex_build_us_per_row", "us", us(time.Since(t0))/n)
	t0 = time.Now()
	set, err := partition.Split(sr, cfg.K)
	if err != nil {
		return err
	}
	m.put("partition.split_ms", "ms", ms(time.Since(t0)))
	for _, sl := range set.Slices {
		if err := sl.BuildAggIndex(h, pub); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(classSeed(seed, "layers")))
	ranges := scanSequence(newOracle(sr), rng, cfg.ScanRows, 8)
	reps := cfg.LayerReps
	// med runs fn reps times and returns the median of what it reports.
	med := func(fn func() (float64, error)) (float64, error) {
		xs := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			x, err := fn()
			if err != nil {
				return 0, err
			}
			xs = append(xs, x)
		}
		return median(xs), nil
	}
	put := func(name, unit string, fn func() (float64, error)) error {
		v, err := med(fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.put(name, unit, v)
		return nil
	}

	// core: the footer aggregate from the product tree.
	ix := sr.AggIndex()
	if err := put("core.range_aggregate_us", "us", func() (float64, error) {
		t0 := time.Now()
		for _, r := range ranges {
			a, b := sr.RangeIndices(r.Lo, r.Hi)
			if _, err := ix.RangeAggregate(a, b); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / float64(len(ranges)), nil
	}); err != nil {
		return err
	}

	// engine: assembly of one unpartitioned stream, drained.
	pubr := engine.NewPublisher(h, pub, policy)
	opts := engine.StreamOpts{ChunkRows: cfg.ChunkRows}
	var chunks []*engine.Chunk // one drained stream, kept for the codec benchmarks
	var streamRows float64
	drainAll := func(keep bool) (rows float64, first time.Duration, err error) {
		for _, r := range ranges {
			t0 := time.Now()
			st, err := pubr.ExecuteStreamOn(sr, roleName, r.query(rel), opts)
			if err != nil {
				return 0, 0, err
			}
			for i := 0; ; i++ {
				c, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, 0, err
				}
				if i == 1 { // header, then the first entries chunk
					first += time.Since(t0)
				}
				rows += float64(len(c.Entries))
				if keep {
					chunks = append(chunks, c)
				}
			}
		}
		return rows, first, nil
	}
	if streamRows, _, err = drainAll(true); err != nil {
		return err
	}
	var firstChunk []float64
	if err := put("engine.assemble_us_per_row", "us", func() (float64, error) {
		t0 := time.Now()
		rows, first, err := drainAll(false)
		firstChunk = append(firstChunk, us(first)/float64(len(ranges)))
		return us(time.Since(t0)) / rows, err
	}); err != nil {
		return err
	}
	m.put("engine.first_chunk_us", "us", median(firstChunk))
	objs, byts := allocDelta(func() { _, _, err = drainAll(false) })
	if err != nil {
		return err
	}
	m.put("engine.allocs_per_row", "count", objs/streamRows)
	m.put("engine.alloc_bytes_per_row", "B", byts/streamRows)

	// engine: the two fan-out engines over the same slices. Partials are
	// drained into memory first so the merge is timed over in-memory
	// feeds, apart from producing them.
	type cover struct {
		eff engine.Query
		sub []partition.SubRange
	}
	covers := make([]cover, len(ranges))
	for i, r := range ranges {
		eff, err := engine.EffectiveQuery(sr.Params, sr.Schema, role, r.query(rel))
		if err != nil {
			return err
		}
		covers[i] = cover{eff, set.Spec.Decompose(eff.KeyLo, eff.KeyHi)}
	}
	partials := func() ([][]engine.ShardFeed, float64, error) {
		out := make([][]engine.ShardFeed, len(ranges))
		var rows float64
		for i, r := range ranges {
			for j, s := range covers[i].sub {
				sp, err := pubr.ShardPartial(set.Slices[s.Shard], roleName, r.query(rel), s.Shard,
					s.Lo, s.Hi, j == 0, j == len(covers[i].sub)-1, opts)
				if err != nil {
					return nil, 0, err
				}
				mf, err := drainFeed(sp)
				if err != nil {
					return nil, 0, err
				}
				rows += float64(mf.foot.Entries)
				out[i] = append(out[i], mf)
			}
		}
		return out, rows, nil
	}
	var partialUS, mergeUS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		feeds, rows, err := partials()
		if err != nil {
			return fmt.Errorf("engine.shard_partial: %w", err)
		}
		partialUS = append(partialUS, us(time.Since(t0))/rows)
		t0 = time.Now()
		for j := range ranges {
			st, err := engine.MergeShards(pub, true, covers[j].eff, feeds[j], nil)
			if err != nil {
				return err
			}
			if _, err := drainStream(st); err != nil {
				return fmt.Errorf("engine.merge: %w", err)
			}
		}
		mergeUS = append(mergeUS, us(time.Since(t0))/rows)
	}
	m.put("engine.shard_partial_us_per_row", "us", median(partialUS))
	m.put("engine.merge_us_per_row", "us", median(mergeUS))
	if err := put("engine.fanout_us_per_row", "us", func() (float64, error) {
		t0 := time.Now()
		var rows float64
		for i := range ranges {
			var slices []engine.ShardSlice
			for _, s := range covers[i].sub {
				slices = append(slices, engine.ShardSlice{Shard: s.Shard, SR: set.Slices[s.Shard], Lo: s.Lo, Hi: s.Hi})
			}
			first := covers[i].sub[0].Shard
			prev := func() (*core.SignedRelation, bool) {
				if first == 0 {
					return nil, false
				}
				return set.Slices[first-1], true
			}
			st, err := pubr.FanoutStream(role, covers[i].eff, slices, prev, opts)
			if err != nil {
				return 0, err
			}
			r, err := drainStream(st)
			if err != nil {
				return 0, err
			}
			rows += r
		}
		return us(time.Since(t0)) / rows, nil
	}); err != nil {
		return err
	}

	// server: Server.QueryStream drained in-process. Minus
	// engine.assemble this is the epoch pin plus the store's self time.
	srv := server.New(server.Config{Hasher: h, Pub: pub, Policy: policy})
	defer srv.Close()
	if err := srv.AddRelation(sr.Clone(), false); err != nil {
		return err
	}
	if err := put("server.stream_inproc_us_per_row", "us", func() (float64, error) {
		t0 := time.Now()
		var rows float64
		for _, r := range ranges {
			st, err := srv.QueryStream(roleName, r.query(rel), cfg.ChunkRows)
			if err != nil {
				return 0, err
			}
			n, err := drainStream(st)
			if err != nil {
				return 0, err
			}
			rows += n
		}
		return us(time.Since(t0)) / rows, nil
	}); err != nil {
		return err
	}

	// wire: the three framings, over the chunks of the drained streams.
	var entryChunks []*engine.Chunk
	for _, c := range chunks {
		if c.Type == engine.ChunkEntries {
			entryChunks = append(entryChunks, c)
		}
	}
	nc := float64(len(entryChunks))
	var frames bytes.Buffer
	if err := put("wire.chunk_encode_us_per_chunk", "us", func() (float64, error) {
		frames.Reset()
		t0 := time.Now()
		for _, c := range entryChunks {
			if err := wire.WriteChunkFrame(&frames, c); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / nc, nil
	}); err != nil {
		return err
	}
	m.put("wire.chunk_bytes_per_row", "B", float64(frames.Len())/streamRows)
	decodeChunks := func() error {
		r := bytes.NewReader(frames.Bytes())
		for {
			if _, err := wire.ReadChunkFrame(r); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	if err := put("wire.chunk_decode_us_per_chunk", "us", func() (float64, error) {
		t0 := time.Now()
		err := decodeChunks()
		return us(time.Since(t0)) / nc, err
	}); err != nil {
		return err
	}
	objs, _ = allocDelta(func() {
		var sink bytes.Buffer
		for _, c := range entryChunks {
			wire.WriteChunkFrame(&sink, c)
		}
		err = decodeChunks()
	})
	if err != nil {
		return err
	}
	m.put("wire.allocs_per_chunk", "count", objs/nc)
	var nodeFrames bytes.Buffer
	if err := put("wire.node_frame_encode_us_per_chunk", "us", func() (float64, error) {
		nodeFrames.Reset()
		t0 := time.Now()
		for _, c := range entryChunks {
			if err := wire.WriteNodeFrame(&nodeFrames, &wire.NodeFrame{Chunk: c}); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / nc, nil
	}); err != nil {
		return err
	}
	if err := put("wire.node_frame_decode_us_per_chunk", "us", func() (float64, error) {
		r := bytes.NewReader(nodeFrames.Bytes())
		t0 := time.Now()
		for range entryChunks {
			if _, err := wire.ReadNodeFrame(r); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / nc, nil
	}); err != nil {
		return err
	}
	// A cache PUT carrying one sub-stream's worth of bytes, there and back.
	entry := nodeFrames.Bytes()
	if len(entry) > 64<<10 {
		entry = entry[:64<<10]
	}
	putFrame := &wire.CacheFrame{Put: &wire.CachePut{
		Key: "bench/layers", Relation: rel, Shard: 1, Epoch: 1, Sum: h.Hash(entry), Bytes: entry,
	}}
	if err := put("wire.cache_frame_roundtrip_us", "us", func() (float64, error) {
		const loops = 32
		var buf bytes.Buffer
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			buf.Reset()
			if err := wire.WriteCacheFrame(&buf, putFrame); err != nil {
				return 0, err
			}
			if _, err := wire.ReadCacheFrame(&buf); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / loops, nil
	}); err != nil {
		return err
	}

	// sig: the verifier's two primitives.
	digests := make([]hashx.Digest, 0, 1024)
	for i := 1; i <= 1024 && i < len(sr.Recs)-1; i++ {
		digests = append(digests, sr.Recs[i].G)
	}
	if err := put("sig.aggverify_add_us_per_row", "us", func() (float64, error) {
		av := pub.NewAggVerifier()
		t0 := time.Now()
		for _, d := range digests {
			av.Add(d)
		}
		return us(time.Since(t0)) / float64(len(digests)), nil
	}); err != nil {
		return err
	}
	one := ds.key.Sign(digests[0])
	if err := put("sig.verify_us", "us", func() (float64, error) {
		const loops = 64
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			if !pub.Verify(digests[0], one) {
				return 0, fmt.Errorf("signature does not verify")
			}
		}
		return us(time.Since(t0)) / loops, nil
	}); err != nil {
		return err
	}

	// cache: the peer's entry table alone.
	cs := cache.NewStore(64 << 20)
	sum := h.Hash(entry)
	const keys = 256
	keyOf := func(i int) string { return fmt.Sprintf("bench/%d", i) }
	if err := put("cache.store_put_us", "us", func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < keys; i++ {
			cs.Put(keyOf(i), rel, i%cfg.K, 1, sum, entry)
		}
		return us(time.Since(t0)) / keys, nil
	}); err != nil {
		return err
	}
	if err := put("cache.store_get_us", "us", func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < keys; i++ {
			if _, _, ok := cs.Get(keyOf(i)); !ok {
				return 0, fmt.Errorf("entry %d missing", i)
			}
		}
		return us(time.Since(t0)) / keys, nil
	}); err != nil {
		return err
	}
	if err := put("cache.store_invalidate_us", "us", func() (float64, error) {
		for i := 0; i < keys; i++ {
			cs.Put(keyOf(i), rel, i%cfg.K, 1, sum, entry)
		}
		t0 := time.Now()
		for s := 0; s < cfg.K; s++ {
			cs.Invalidate(rel, s, 2, "")
		}
		return us(time.Since(t0)) / float64(cfg.K), nil
	}); err != nil {
		return err
	}

	// delta: apply and validate one pre-signed update on a clone.
	nd := len(ups)
	if nd > 16 {
		nd = 16
	}
	var applyUS, validateUS []float64
	scratch := ds.master.Clone()
	if err := scratch.BuildAggIndex(h, pub); err != nil {
		return err
	}
	for _, up := range ups[:nd] {
		t0 := time.Now()
		touched, err := delta.ApplyOps(scratch, up.d)
		if err != nil {
			return fmt.Errorf("delta.apply_ops: %w", err)
		}
		applyUS = append(applyUS, us(time.Since(t0))/float64(len(up.d.Ops)))
		t0 = time.Now()
		if err := delta.ValidateTouched(h, pub, scratch, touched, false); err != nil {
			return fmt.Errorf("delta.validate_touched: %w", err)
		}
		validateUS = append(validateUS, us(time.Since(t0))/float64(len(up.d.Ops)))
	}
	m.put("delta.apply_ops_us_per_op", "us", median(applyUS))
	m.put("delta.validate_touched_us_per_op", "us", median(validateUS))

	return storeLayer(cfg, ds, set, filepath.Join(dir, "layers-store"), m)
}

// storeLayer times the durable store alone: one slice installed, then
// single-record commits through LogCommit (diff, WAL append, fsync), a
// forced snapshot, and what each cost in WAL bytes.
func storeLayer(cfg config, ds *dataset, set *partition.Set, dir string, m *metrics) error {
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	h := ds.h
	ns, _, err := store.OpenNode(dir, store.Options{Hasher: h, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer ns.Close()
	const shard = 1
	cur := set.Slices[shard].Clone()
	rel := cur.Schema.Name
	if err := ns.LogInstall(rel, set.Spec, shard, cur, partition.SliceDigest(h, cur)); err != nil {
		return err
	}
	walSize := func() float64 {
		fi, err := os.Stat(filepath.Join(dir, "node.wal"))
		if err != nil {
			return nan
		}
		return float64(fi.Size())
	}
	rng := rand.New(rand.NewSource(7))
	commits := 4 * cfg.LayerReps
	before := walSize()
	var commitMS []float64
	ops := 0
	for i := 0; i < commits; i++ {
		next := cur.Clone()
		pos := 2 + rng.Intn(len(next.Recs)-4) // interior: all three re-signed records are owned
		rec := next.Recs[pos]
		payload := make([]byte, cfg.Payload)
		rng.Read(payload)
		resigned, err := next.UpdateAttrs(h, ds.key, rec.Key(), rec.Tuple.RowID, []relation.Value{relation.BytesVal(payload)})
		if err != nil {
			return err
		}
		ops += resigned
		t0 := time.Now()
		if err := ns.LogCommit(rel, []store.CommitShard{{
			Shard: shard, Old: cur, New: next, PostDigest: partition.SliceDigest(h, next),
		}}); err != nil {
			return fmt.Errorf("store.wal_commit: %w", err)
		}
		commitMS = append(commitMS, ms(time.Since(t0)))
		cur = next
	}
	m.put("store.wal_commit_ms", "ms", median(commitMS))
	m.put("store.wal_bytes_per_delta_op", "B", (walSize()-before)/float64(ops))
	t0 := time.Now()
	if err := ns.Snapshot(); err != nil {
		return fmt.Errorf("store.snapshot: %w", err)
	}
	m.put("store.snapshot_ms", "ms", ms(time.Since(t0)))
	return nil
}

// memFeed is a drained shard feed, replayable once into a merge.
type memFeed struct {
	head   engine.ShardHead
	chunks []*engine.Chunk
	foot   engine.ShardFeedFoot
	next   int
}

func drainFeed(f engine.ShardFeed) (*memFeed, error) {
	mf := &memFeed{}
	var err error
	if mf.head, err = f.Head(); err != nil {
		return nil, err
	}
	for {
		c, err := f.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		mf.chunks = append(mf.chunks, c)
	}
	if mf.foot, err = f.Foot(); err != nil {
		return nil, err
	}
	return mf, f.Close()
}

func (mf *memFeed) Head() (engine.ShardHead, error) { return mf.head, nil }
func (mf *memFeed) Next() (*engine.Chunk, error) {
	if mf.next == len(mf.chunks) {
		return nil, io.EOF
	}
	mf.next++
	return mf.chunks[mf.next-1], nil
}
func (mf *memFeed) Foot() (engine.ShardFeedFoot, error) { return mf.foot, nil }
func (mf *memFeed) Close() error                        { return nil }

// drainStream pulls a result stream dry and returns its entry count.
func drainStream(st engine.ResultStream) (float64, error) {
	var rows float64
	for {
		c, err := st.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return 0, err
		}
		rows += float64(len(c.Entries))
	}
}
