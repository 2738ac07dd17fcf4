package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"
	"time"

	"vcqr/internal/sig"
	"vcqr/internal/wire"
)

// inputs is everything a workload feeds the system, generated from the
// seed before any clock starts. The system under test sees only these.
type inputs struct {
	warm   []keyRange // set-up: fills caches, passes the admission gate
	seq    []keyRange // measured and traced reads
	hashes map[string]string
}

// classSeed derives the generator seed from the run seed and the query
// class, not the workload, so single-scan and cluster-scan replay the
// same sequence.
func classSeed(seed int64, class string) int64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	return seed ^ int64(h.Sum64()>>1)
}

// genReads draws the workload's read sequences from the oracle's keys.
func genReads(workload string, cfg config, o *oracle, seed int64) *inputs {
	in := &inputs{hashes: map[string]string{}}
	switch workload {
	case wlSingleScan, wlClusterScan:
		rng := rand.New(rand.NewSource(classSeed(seed, "scan")))
		in.seq = scanSequence(o, rng, cfg.ScanRows, cfg.SeqLen)
		in.warm = scanSequence(o, rng, cfg.ScanRows, cfg.WarmQueries/4)
	case wlClusterHot:
		rng := rand.New(rand.NewSource(classSeed(seed, "hot")))
		in.seq = zipfSequence(o, rng, cfg.HotRows, cfg.HotRanges, cfg.ZipfS, cfg.SeqLen)
		// The admission gate admits a key on its second sighting and the
		// fill lands after that query; a third pass then hits. Warm every
		// distinct range that often, so the measured phase starts with
		// the working set resident.
		seen := map[keyRange]bool{}
		for _, r := range in.seq {
			if !seen[r] {
				seen[r] = true
				in.warm = append(in.warm, r, r, r)
			}
		}
	case wlMixedWrite:
		rng := rand.New(rand.NewSource(classSeed(seed, "mixed")))
		in.seq = zipfSequence(o, rng, cfg.MixedRows, cfg.MixedRanges, cfg.ZipfS, cfg.SeqLen)
		in.warm = in.seq[len(in.seq)-cfg.WarmQueries:]
	}
	in.hashes["queries"] = hashRanges(in.seq)
	return in
}

// dataDir names a run's scratch directory for node stores. The pid keeps
// two invocations in one checkout apart.
func dataDir(outDir, workload, tag string) string {
	return fmt.Sprintf("%s/data-%d-%s-%s", outDir, os.Getpid(), workload, tag)
}

// setUp is one full set-up: sign, index, split, bring up, place, warm.
// Its time is what setup_s reports — at nominal host speed (calib.go):
// each stage counts the wall time the host gave it, scaled by the
// calibrations taken before and after it, whose own time is not counted.
func setUp(workload string, cfg config, key *sig.PrivateKey, seed int64, dir string, rec *recorder) (*topology, *dataset, *inputs, error) {
	var stages []interval
	speeds := []float64{hostSpeed(cfg.Calib)}
	stage := func(from hostMark) {
		stages = append(stages, from.since())
		speeds = append(speeds, hostSpeed(cfg.Calib))
	}

	m := mark()
	ds, err := signRelation(cfg, key, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	stage(m)

	m = mark()
	t, err := bringUp(workload, cfg, ds, dir, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	in := genReads(workload, cfg, t.oracle, seed)
	stage(m)

	m = mark()
	u := t.newUser(t.clientMeter.client(0))
	for _, r := range in.warm {
		if _, err := u.query(r); err != nil {
			t.close()
			return nil, nil, nil, fmt.Errorf("warm-up query: %w", err)
		}
		t.settleFills()
	}
	stage(m)

	t.times.Warm = stages[2].wall
	for i, st := range stages {
		t.times.Total += st.wall
		t.times.Scaled += st.given.Seconds() * (speeds[i] + speeds[i+1]) / 2
	}
	t.times.Speeds = speeds
	return t, ds, in, nil
}

// readWindow is what the closed-loop readers observed in one window.
type readWindow struct {
	samples []answer
	err     error // the first query that failed or answered wrongly; its client stopped there
}

// check compares one answer with the oracle: exact rows and fold on the
// read-only workloads; beside a writer only the row count is knowable
// (updates rewrite payloads, never keys).
func (t *topology) check(r keyRange, a answer) error {
	rows, want := t.oracle.expect(r.Lo, r.Hi)
	if a.rows != rows {
		return fmt.Errorf("range [%d,%d]: %d verified rows, oracle has %d", r.Lo, r.Hi, a.rows, rows)
	}
	if t.workload != wlMixedWrite && a.sum != want {
		return fmt.Errorf("range [%d,%d]: verified rows differ from the owner's master", r.Lo, r.Hi)
	}
	return nil
}

// runReaders drives `clients` closed-loop users for d: each sends its
// next query only when the previous one has verified, and finishes the
// one in flight when d is up. Client c takes queries c, c+clients, ... of
// the sequence.
func (t *topology) runReaders(seq []keyRange, clients int, d time.Duration) *readWindow {
	rw := &readWindow{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			u := t.newUser(t.clientMeter.client(0))
			var local []answer
			var err error
			for i := c; err == nil && time.Since(start) < d; i += clients {
				r := seq[i%len(seq)]
				var a answer
				if a, err = u.query(r); err == nil {
					err = t.check(r, a)
				}
				if err == nil {
					local = append(local, a)
				}
			}
			mu.Lock()
			rw.samples = append(rw.samples, local...)
			if rw.err == nil {
				rw.err = err
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return rw
}

// writeWindow is what the owner's writer observed.
type writeWindow struct {
	commit []time.Duration // due (or sent) -> acknowledged, one per acknowledged delta
	late   []time.Duration // how far behind its schedule each send started
	err    error           // the delta that was refused; the writer stopped there
}

// runWriter replays pre-signed deltas, in order, through the endpoint's
// /delta. With a rate it is an open-loop schedule — delta i is due at
// i/rate, latency counts from the due time, lateness is reported — and it
// stops at d. With rate 0 it is a closed loop over all of ups.
func (t *topology) runWriter(ups []update, rate float64, d time.Duration) *writeWindow {
	ww := &writeWindow{}
	cl := &wire.Client{BaseURL: t.url, HTTP: t.clientMeter.client(0)}
	start := time.Now()
	for i, up := range ups {
		from := time.Now()
		if rate > 0 {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if due.Sub(start) >= d {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			ww.late = append(ww.late, time.Since(due))
			from = due
		}
		if _, err := cl.SendDelta(up.d); err != nil {
			// A refused delta leaves the published relation untouched,
			// and every later delta was signed against a state that
			// includes it: stop rather than replay a broken chain.
			ww.err = fmt.Errorf("delta %d: %w", i, err)
			return ww
		}
		ww.commit = append(ww.commit, time.Since(from))
	}
	return ww
}

// verifyFinalScan streams the whole relation and requires it to equal
// the master with the acknowledged updates applied.
func (t *topology) verifyFinalScan(acked []update) error {
	t.oracle.applied(acked)
	rows, want := t.oracle.expect(0, ^uint64(0))
	a, err := t.newUser(t.clientMeter.client(0)).query(keyRange{}) // zero bounds: the whole relation
	if err != nil {
		return fmt.Errorf("final full scan: %w", err)
	}
	if a.rows != rows || a.sum != want {
		return fmt.Errorf("final full scan: %d rows (oracle %d) or contents differ from the master at the last committed epoch", a.rows, rows)
	}
	return nil
}

// window is one slice of the measured phase with the host's speed around
// it: readers, beside them the scheduled writer on cluster-mixed-write,
// or — the read-only workloads' delta probe — a writer alone.
type window struct {
	reads    *readWindow
	writes   *writeWindow
	interval         // start -> last reader and writer done, as the host accounts for it
	speed    float64 // mean of the calibrations before and after
}

// scale turns a duration measured inside the window into one at nominal
// host speed: the share of wall time the host gave, times how fast its
// cores ran.
func (w window) scale() float64 { return w.share() * w.speed }

// probeBatch is how many deltas one write-only probe window replays.
const probeBatch = 12

// e2eResult is one workload's measured phase, reduced.
type e2eResult struct {
	metrics   metrics
	diag      metrics
	windows   []float64 // verified queries per second, per window
	attempted int
	hashes    map[string]string
}

// runE2E measures one workload with tracing off: cfg.Setups full
// set-ups (setup_s is their median; all but the last are torn down as
// soon as they are warm), then the measured phase on the last, one
// window at a time with a host-speed calibration between windows.
func runE2E(workload string, cfg config, key *sig.PrivateKey, seed int64, outDir string) (*e2eResult, error) {
	res := &e2eResult{}
	var (
		t      *topology
		ds     *dataset
		in     *inputs
		err    error
		setups []setupTimes
	)
	for s := 0; s < cfg.Setups; s++ {
		dir := dataDir(outDir, workload, fmt.Sprint(s))
		os.RemoveAll(dir)
		defer os.RemoveAll(dir)
		freeMemory() // a set-up does not inherit the previous one's garbage
		if t, ds, in, err = setUp(workload, cfg, key, seed, dir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, t.times)
		if s < cfg.Setups-1 {
			t.close()
		}
	}
	defer t.close()

	wlen, nw := cfg.Window, cfg.windows()
	perWindow := 0 // deltas the scheduled writer sends per window
	if workload == wlMixedWrite {
		for time.Duration(float64(perWindow)/cfg.WriteRate*float64(time.Second)) < wlen {
			perWindow++
		}
	}
	urng := rand.New(rand.NewSource(classSeed(seed, "updates")))
	ups, uhash, err := presignUpdates(ds, cfg, urng, perWindow*nw+cfg.ProbeDeltas)
	if err != nil {
		return nil, err
	}
	in.hashes["deltas"] = uhash
	res.hashes = in.hashes

	fail := func(what string, err error) (*e2eResult, error) {
		return nil, fmt.Errorf("%s: %s: %w", workload, what, err)
	}
	// timed runs one window's work between two calibrations and books
	// what it observed.
	var wins []window
	acked := 0
	speed := 0.0
	timed := func(work func(*window)) error {
		win := window{}
		from := mark()
		work(&win)
		win.interval = from.since()
		after := hostSpeed(cfg.Calib)
		win.speed, speed = (speed+after)/2, after
		wins = append(wins, win)
		if win.reads != nil {
			res.attempted += len(win.reads.samples)
			if win.reads.err != nil {
				return fmt.Errorf("read: %w", win.reads.err)
			}
		}
		if win.writes != nil {
			acked += len(win.writes.commit)
			res.attempted += len(win.writes.commit)
			if win.writes.err != nil {
				return fmt.Errorf("write: %w", win.writes.err)
			}
		}
		return nil
	}

	// The measured phase. Each window replays its own stretch of the
	// query sequence; the writer continues the delta sequence.
	c0 := t.counters()
	freeMemory() // the phase does not pay for set-up's garbage
	speed = hostSpeed(cfg.Calib)
	for w := 0; w < nw; w++ {
		seq := in.seq[w*len(in.seq)/nw:]
		err := timed(func(win *window) {
			if workload != wlMixedWrite {
				win.reads = t.runReaders(seq, cfg.Clients, wlen)
				return
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				win.writes = t.runWriter(ups[acked:acked+perWindow], cfg.WriteRate, wlen)
			}()
			win.reads = t.runReaders(seq, cfg.Clients-1, wlen)
			wg.Wait()
		})
		if err != nil {
			return fail("measured phase", err)
		}
	}
	c1 := t.counters()

	// How fast an owner's update becomes servable is a user-facing cost
	// on every topology. The write workload measured it beside the
	// reader; the read-only workloads measure it unloaded, now that the
	// readers have stopped — as write-only windows of a few deltas each,
	// so the calibration stays close to what it scales.
	for acked < cfg.ProbeDeltas && workload != wlMixedWrite {
		n := min(cfg.ProbeDeltas-acked, probeBatch)
		err := timed(func(win *window) { win.writes = t.runWriter(ups[acked:acked+n], 0, 0) })
		if err != nil {
			return fail("delta probe", err)
		}
	}

	// Every acknowledged delta must be readable — now, and after a
	// restart from the nodes' data dirs alone.
	res.attempted++
	if err := t.verifyFinalScan(ups[:acked]); err != nil {
		return fail("durability", err)
	}
	if workload == wlMixedWrite {
		res.attempted++
		if _, err := t.restart(); err != nil {
			return fail("restart", err)
		}
		if err := t.verifyFinalScan(nil); err != nil {
			return fail("after restart", err)
		}
	}

	res.reduce(setups, wins)
	hits := float64(c1.hits - c0.hits)
	res.diag.put("cache.hit_ratio_measured", "ratio", ratio(hits, hits+float64(c1.misses-c0.misses)))
	res.diag.put("store.snapshots_measured", "count", float64(c1.snapshots-c0.snapshots))
	return res, nil
}

// reduce turns the phase into the end-to-end metrics, all at nominal
// host speed (calib.go): each window's rate and CPU cost, and each
// sample's latency, is scaled by the calibrations around its window.
// Rates and ratios are then the median window — the host's speed moves
// within seconds, and a bad second then costs one window — and latency
// percentiles pool the scaled samples of all windows, so the p90 has well
// over ten samples beyond it (the diagnostics print the count).
func (res *e2eResult) reduce(setups []setupTimes, wins []window) {
	var qps, cpu, rawQPS, speeds, shares, lat, rawLat, ttfr, commit, late []float64
	var rows, bytes float64
	for _, w := range wins {
		speeds = append(speeds, w.speed)
		shares = append(shares, w.share())
		if w.writes != nil {
			for _, d := range w.writes.commit {
				commit = append(commit, ms(d)*w.scale())
			}
			late = append(late, durs(w.writes.late, time.Millisecond)...)
		}
		if w.reads == nil {
			continue
		}
		var wrows float64
		for _, a := range w.reads.samples {
			lat = append(lat, ms(a.lat)*w.scale())
			rawLat = append(rawLat, ms(a.lat))
			ttfr = append(ttfr, ms(a.ttfr)*w.scale())
			wrows += float64(a.rows)
			bytes += float64(a.bytes)
		}
		rows += wrows
		n := float64(len(w.reads.samples))
		rawQPS = append(rawQPS, n/w.wall.Seconds())
		qps = append(qps, n/w.given.Seconds()/w.speed)
		cpu = append(cpu, ratio(us(w.cpu), wrows)*w.speed)
	}
	res.windows = qps

	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.Scaled)
		speeds = append(speeds, s.Speeds...)
	}
	m := &res.metrics
	m.put("setup_s", "s", median(totals))
	m.put("verified_qps", "1/s", median(qps))
	m.put("query_p50_ms", "ms", quantile(lat, 0.5))
	m.put("query_p90_ms", "ms", quantile(lat, 0.9))
	m.put("ttfr_p50_ms", "ms", quantile(ttfr, 0.5))
	m.put("cpu_us_per_row", "us", median(cpu))
	m.put("delta_commit_p50_ms", "ms", quantile(commit, 0.5))
	m.put("wire_bytes_per_row", "count", ratio(bytes, rows))
	m.put("peak_rss_mb", "MB", peakRSSMB())

	d := &res.diag
	d.put("failed_ratio", "ratio", 0) // anything failing prints no report; the line states the gate
	d.put("host.speed_min", "ratio", quantile(speeds, 0))
	d.put("host.speed_median", "ratio", quantile(speeds, 0.5))
	d.put("host.speed_max", "ratio", quantile(speeds, 1))
	d.put("host.given_share_min", "ratio", quantile(shares, 0))
	d.put("host.given_share_median", "ratio", quantile(shares, 0.5))
	d.put("raw.verified_qps", "1/s", median(rawQPS))
	d.put("raw.query_p50_ms", "ms", quantile(rawLat, 0.5))
	d.put("raw.setup_s", "s", setups[len(setups)-1].Total.Seconds())
	d.put("client.query_samples", "count", float64(len(lat)))
	d.put("client.query_samples_beyond_p90", "count", float64(len(lat))/10)
	d.put("client.query_p95_ms", "ms", quantile(lat, 0.95))
	d.put("client.query_p99_ms", "ms", quantile(lat, 0.99))
	d.put("window.qps_min", "1/s", quantile(qps, 0))
	d.put("window.qps_max", "1/s", quantile(qps, 1))
	d.put("delta.commits", "count", float64(len(commit)))
	d.put("delta_commit_p90_ms", "ms", quantile(commit, 0.9))
	d.put("loadgen.delta_late_ms", "ms", median(late))
	last := setups[len(setups)-1]
	d.put("setup.sign_s", "s", last.Sign.Seconds())
	d.put("setup.index_s", "s", last.Index.Seconds())
	d.put("setup.split_s", "s", last.Split.Seconds())
	d.put("setup.bring_up_s", "s", last.BringUp.Seconds())
	d.put("setup.place_s", "s", last.Place.Seconds())
	d.put("setup.warm_s", "s", last.Warm.Seconds())
}
