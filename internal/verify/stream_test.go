package verify_test

import (
	"errors"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
	"vcqr/internal/verify"
)

// chunkify slices a result with a small chunk budget so streams span
// several entry chunks.
func chunkify(res *engine.Result) []*engine.Chunk {
	return engine.ChunkResult(res, 7)
}

// feed consumes chunks in order, returning the released rows and the
// first error with the index of the chunk that triggered it.
func feed(sv *verify.StreamVerifier, chunks []*engine.Chunk) ([]engine.Row, int, error) {
	var rows []engine.Row
	for i, c := range chunks {
		released, err := sv.Consume(c)
		if err != nil {
			return rows, i, err
		}
		rows = append(rows, released...)
	}
	return rows, len(chunks), nil
}

// TestStreamVerifyReleasesAllRows checks the happy path: the stream
// releases exactly the rows the whole-result verifier returns, in order,
// and Finish accepts.
func TestStreamVerifyReleasesAllRows(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	want, err := f.v.VerifyResult(q, f.role, res)
	if err != nil {
		t.Fatalf("VerifyResult: %v", err)
	}
	sv := f.v.NewStreamVerifier(q, f.role)
	rows, _, err := feed(sv, chunkify(res))
	if err != nil {
		t.Fatalf("stream rejected: %v", err)
	}
	if err := sv.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !sv.Done() {
		t.Fatal("not done after footer")
	}
	if len(rows) != len(want) {
		t.Fatalf("stream released %d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i].Key != want[i].Key {
			t.Fatalf("row %d key %d, want %d", i, rows[i].Key, want[i].Key)
		}
	}
}

// TestStreamVerifyEmptyRange checks the empty-range footer path.
func TestStreamVerifyEmptyRange(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 3, KeyHi: 3}
	res := f.query(t, q)
	if len(res.VO.Entries) != 0 {
		t.Skip("range unexpectedly non-empty")
	}
	sv := f.v.NewStreamVerifier(q, f.role)
	rows, _, err := feed(sv, chunkify(res))
	if err != nil {
		t.Fatalf("stream rejected: %v", err)
	}
	if err := sv.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty range released %d rows", len(rows))
	}
}

// TestStreamRejectsMutatedChunk checks mid-stream tampering with an
// entry's disclosed value: the condensed signature in the footer refuses
// it with ErrSignature.
func TestStreamRejectsMutatedChunk(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := chunkify(res)
	if len(chunks) < 4 {
		t.Fatalf("need >= 2 entry chunks, got %d chunks", len(chunks))
	}
	// Tamper with the second entry chunk (mid-stream, not the first or
	// last piece).
	tampered := *chunks[2]
	tampered.Entries = append([]engine.VOEntry(nil), tampered.Entries...)
	e := tampered.Entries[0]
	e.Disclosed = append([]engine.DisclosedAttr(nil), e.Disclosed...)
	e.Disclosed[1] = engine.DisclosedAttr{Col: e.Disclosed[1].Col, Val: relation.StringVal("Mallory")}
	tampered.Entries[0] = e
	chunks[2] = &tampered

	sv := f.v.NewStreamVerifier(q, f.role)
	_, at, err := feed(sv, chunks)
	if !errors.Is(err, verify.ErrSignature) {
		t.Fatalf("mutated chunk error = %v", err)
	}
	if at != len(chunks)-1 {
		t.Fatalf("detected at chunk %d, want footer %d", at, len(chunks)-1)
	}
}

// TestStreamRejectsDroppedChunk checks that removing one entry chunk
// fails immediately at the gap, before the footer.
func TestStreamRejectsDroppedChunk(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := chunkify(res)
	dropped := append(append([]*engine.Chunk(nil), chunks[:2]...), chunks[3:]...)
	sv := f.v.NewStreamVerifier(q, f.role)
	_, at, err := feed(sv, dropped)
	if !errors.Is(err, verify.ErrChunkSequence) {
		t.Fatalf("dropped chunk error = %v", err)
	}
	if at != 2 {
		t.Fatalf("detected at chunk %d, want 2 (first chunk after the gap)", at)
	}
	// The failure is latched: re-sending the correct chunk cannot revive
	// the stream, and Finish reports the original failure.
	if _, err := sv.Consume(chunks[2]); !errors.Is(err, verify.ErrChunkSequence) {
		t.Fatalf("post-failure Consume = %v, want latched error", err)
	}
	if err := sv.Finish(); !errors.Is(err, verify.ErrChunkSequence) {
		t.Fatalf("post-failure Finish = %v, want latched error", err)
	}
}

// TestStreamRejectsReorderedChunks checks that swapping two entry chunks
// fails at the first out-of-order chunk.
func TestStreamRejectsReorderedChunks(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := chunkify(res)
	chunks[1], chunks[2] = chunks[2], chunks[1]
	sv := f.v.NewStreamVerifier(q, f.role)
	_, at, err := feed(sv, chunks)
	if !errors.Is(err, verify.ErrChunkSequence) {
		t.Fatalf("reordered chunk error = %v", err)
	}
	if at != 1 {
		t.Fatalf("detected at chunk %d, want 1", at)
	}
}

// TestStreamRejectsTruncation checks that a stream ending before the
// footer — the truncation attack unique to streaming — is rejected by
// Finish, and that a stream cannot continue past its footer.
func TestStreamRejectsTruncation(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := chunkify(res)

	// Drop the footer.
	sv := f.v.NewStreamVerifier(q, f.role)
	if _, _, err := feed(sv, chunks[:len(chunks)-1]); err != nil {
		t.Fatalf("truncated prefix rejected early: %v", err)
	}
	if err := sv.Finish(); !errors.Is(err, verify.ErrStreamTruncated) {
		t.Fatalf("Finish after truncation = %v", err)
	}

	// A chunk after the footer is rejected too.
	sv = f.v.NewStreamVerifier(q, f.role)
	if _, _, err := feed(sv, chunks); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Consume(chunks[1]); !errors.Is(err, verify.ErrStreamEnded) {
		t.Fatalf("chunk after footer = %v", err)
	}
}

// TestStreamRejectsSwappedEntries checks in-chunk reordering: swapping
// two result entries breaks key order immediately.
func TestStreamRejectsSwappedEntries(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := chunkify(res)
	tampered := *chunks[1]
	tampered.Entries = append([]engine.VOEntry(nil), tampered.Entries...)
	tampered.Entries[0], tampered.Entries[1] = tampered.Entries[1], tampered.Entries[0]
	chunks[1] = &tampered
	sv := f.v.NewStreamVerifier(q, f.role)
	_, at, err := feed(sv, chunks)
	if !errors.Is(err, verify.ErrKeyOrder) {
		t.Fatalf("swapped entries error = %v", err)
	}
	if at != 1 {
		t.Fatalf("detected at chunk %d, want 1", at)
	}
}

// TestStreamRejectsOversizedChunk checks the client-side chunk cap: a
// malicious publisher packing the whole result into one giant chunk
// (defeating the O(chunk) memory bound) is rejected.
func TestStreamRejectsOversizedChunk(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	res := f.query(t, q)
	chunks := engine.ChunkResult(res, len(res.VO.Entries))
	// The opening entries chunk, hand-swollen past the cap.
	huge := *chunks[1]
	huge.Entries = make([]engine.VOEntry, engine.MaxChunkRows+1)
	chunks[1] = &huge
	sv := f.v.NewStreamVerifier(q, f.role)
	_, _, err := feed(sv, chunks)
	if !errors.Is(err, verify.ErrChunkShape) {
		t.Fatalf("oversized chunk error = %v", err)
	}
}

// TestStreamRejectsPublisherAbort checks the in-band error chunk.
func TestStreamRejectsPublisherAbort(t *testing.T) {
	f := newVFix(t)
	q := engine.Query{Relation: "Emp", KeyLo: 1}
	sv := f.v.NewStreamVerifier(q, f.role)
	if _, err := sv.Consume(&engine.Chunk{Type: engine.ChunkError, Err: "disk on fire"}); err == nil {
		t.Fatal("error chunk accepted")
	}
}
