package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
)

// answer is what one verified query looked like from the user's side.
type answer struct {
	lat   time.Duration // request sent -> stream verified
	ttfr  time.Duration // request sent -> first row released by the verifier
	rows  int
	bytes int64  // response body bytes received
	sum   uint64 // ordered fold of the released rows' hashes
}

// user is one verifying client: a wire.Client on its own connection and
// the UNMODIFIED verifiers from internal/verify.
type user struct {
	t  *topology
	v  *verify.Verifier
	cl *wire.Client
}

func (t *topology) newUser(hc *http.Client) *user {
	return &user{t: t, v: t.verifier(), cl: &wire.Client{BaseURL: t.url, HTTP: hc}}
}

// chunkVerifier picks the verifier the publication calls for: the plain
// incremental one, or the shard-aware one over a partitioned relation.
func (u *user) chunkVerifier(q engine.Query) (verify.ChunkVerifier, error) {
	if u.t.spec == nil {
		return u.v.NewStreamVerifier(q, u.t.role), nil
	}
	return u.v.NewShardStreamVerifier(*u.t.spec, q, u.t.role)
}

// query runs one verified streaming query through wire.Client, exactly
// as vcquery -stream does. This is the measured path.
func (u *user) query(r keyRange) (answer, error) {
	var a answer
	q := r.query(u.t.schema.Name)
	sv, err := u.chunkVerifier(q)
	if err != nil {
		return a, err
	}
	t0 := time.Now()
	stats, err := u.cl.QueryStreamWith(sv, roleName, q, u.t.cfg.ChunkRows, func(row engine.Row) error {
		if a.rows == 0 {
			a.ttfr = time.Since(t0)
		}
		a.rows++
		a.sum = fold(a.sum, hashRow(row.Key, row.Values))
		return nil
	})
	a.lat = time.Since(t0)
	a.bytes = stats.Bytes
	return a, err
}

// timedVerifier decorates an unmodified ChunkVerifier with a stopwatch:
// verification is untouched, only observed. The footer's Consume is
// where the one aggregate-signature check of a query happens, so it is
// booked with Finish as the per-query cost; header and entry chunks are
// the per-row cost.
type timedVerifier struct {
	inner   verify.ChunkVerifier
	consume time.Duration
	finish  time.Duration
}

func (tv *timedVerifier) Consume(c *engine.Chunk) ([]engine.Row, error) {
	t0 := time.Now()
	rows, err := tv.inner.Consume(c)
	if c.Type == engine.ChunkFooter {
		tv.finish += time.Since(t0)
	} else {
		tv.consume += time.Since(t0)
	}
	return rows, err
}

func (tv *timedVerifier) Finish() error {
	t0 := time.Now()
	err := tv.inner.Finish()
	tv.finish += time.Since(t0)
	return err
}

// tracedAnswer adds the request span's children, which tile it: every
// nanosecond between "request sent" and "stream verified" is spent in
// exactly one of them, or in the loop's own bookkeeping (the remainder).
type tracedAnswer struct {
	answer
	waitHeaders time.Duration // POST sent -> response headers
	bodyWait    time.Duration // blocked reading frame bytes off the socket
	decode      time.Duration // gob-decoding frames already in memory
	verify      time.Duration // Consume + Finish + the row fold
	consume     time.Duration // verifier time on header and entry chunks
	finish      time.Duration // verifier time on the footer plus Finish
}

// tracedQuery is wire.Client.QueryStreamWith unrolled so each stage of
// the loop can be timed apart: the same request, the same frames, the
// same verifier calls in the same order. Reading a frame's bytes and
// decoding them are split by reading the length-prefixed frame into
// memory first and handing wire.ReadChunkFrame a reader over it.
func (u *user) tracedQuery(r keyRange, rec *recorder) (tracedAnswer, error) {
	var a tracedAnswer
	q := r.query(u.t.schema.Name)
	inner, err := u.chunkVerifier(q)
	if err != nil {
		return a, err
	}
	sv := &timedVerifier{inner: inner}
	var body bytes.Buffer
	req := wire.StreamRequest{Role: roleName, Query: q, ChunkRows: u.t.cfg.ChunkRows}
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return a, err
	}

	reqID := rec.begin()
	t0 := time.Now()
	root := rec.reserve(reqID, "client.request", 0, t0)
	defer func() {
		end := t0.Add(a.lat)
		rec.finish(root, end)
	}()
	fail := func(err error) (tracedAnswer, error) {
		a.lat = time.Since(t0)
		return a, err
	}

	resp, err := u.cl.HTTP.Post(u.t.url+"/stream", "application/octet-stream", &body)
	if err != nil {
		return fail(fmt.Errorf("post stream: %w", err))
	}
	defer resp.Body.Close()
	mark := time.Now()
	a.waitHeaders = mark.Sub(t0)
	rec.add(reqID, "client.wait_headers", root, t0, mark)
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("publisher returned %s", resp.Status))
	}

	var frame []byte
	for {
		// body_read_wait: the 4-byte prefix and the payload it announces.
		var hdr [4]byte
		_, err := io.ReadFull(resp.Body, hdr[:])
		if err == io.EOF {
			now := time.Now()
			a.bodyWait += now.Sub(mark)
			rec.add(reqID, "client.body_read_wait", root, mark, now)
			mark = now
			break
		}
		if err != nil {
			return fail(fmt.Errorf("%w: length prefix: %v", wire.ErrFrameTruncated, err))
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > wire.MaxChunkFrame {
			return fail(wire.ErrFrameTooBig)
		}
		if cap(frame) < int(n)+4 {
			frame = make([]byte, int(n)+4)
		}
		frame = frame[:int(n)+4]
		copy(frame, hdr[:])
		if _, err := io.ReadFull(resp.Body, frame[4:]); err != nil {
			return fail(fmt.Errorf("%w: body: %v", wire.ErrFrameTruncated, err))
		}
		a.bytes += int64(len(frame))
		now := time.Now()
		a.bodyWait += now.Sub(mark)
		rec.add(reqID, "client.body_read_wait", root, mark, now)
		mark = now

		chunk, err := wire.ReadChunkFrame(bytes.NewReader(frame))
		now = time.Now()
		a.decode += now.Sub(mark)
		rec.add(reqID, "client.decode", root, mark, now)
		mark = now
		if err != nil {
			return fail(err)
		}

		rows, err := sv.Consume(chunk)
		if err != nil {
			return fail(err)
		}
		for _, row := range rows {
			if a.rows == 0 {
				a.ttfr = time.Since(t0)
			}
			a.rows++
			a.sum = fold(a.sum, hashRow(row.Key, row.Values))
		}
		now = time.Now()
		a.verify += now.Sub(mark)
		rec.add(reqID, "client.verify", root, mark, now)
		mark = now
	}
	if err := sv.Finish(); err != nil {
		return fail(err)
	}
	now := time.Now()
	a.verify += now.Sub(mark)
	rec.add(reqID, "client.verify", root, mark, now)
	a.consume, a.finish = sv.consume, sv.finish
	a.lat = now.Sub(t0)
	return a, nil
}
