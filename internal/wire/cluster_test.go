package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"vcqr/internal/delta"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// splitFrames cuts a transfer stream back into its length-prefixed
// frames so tests can splice and truncate at frame granularity.
func splitFrames(t *testing.T, blob []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(blob) > 0 {
		if len(blob) < 4 {
			t.Fatal("dangling frame prefix")
		}
		n := int(binary.BigEndian.Uint32(blob[:4]))
		if len(blob) < 4+n {
			t.Fatal("frame overruns stream")
		}
		frames = append(frames, blob[:4+n])
		blob = blob[4+n:]
	}
	return frames
}

// TestShardTransferIntegrity pins the transfer codec's three outcomes:
// a clean round trip, a tampered stream rejected by the slice-digest
// compare (wire.ErrTransferDigest), and a truncated stream rejected as
// such (wire.ErrTransferTruncated).
func TestShardTransferIntegrity(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Uniform(workload.UniformConfig{N: 40, L: 0, U: 1 << 20, PayloadSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	man := wire.ShardManifest{Spec: set.Spec, Shard: 0}

	var clean bytes.Buffer
	if err := wire.WriteShardTransfer(&clean, h, man, set.Slices[0]); err != nil {
		t.Fatal(err)
	}
	gotMan, got, err := wire.ReadShardTransfer(bytes.NewReader(clean.Bytes()), h)
	if err != nil {
		t.Fatalf("clean transfer rejected: %v", err)
	}
	if gotMan.Shard != 0 || len(got.Recs) != len(set.Slices[0].Recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Recs), len(set.Slices[0].Recs))
	}
	if !partition.SliceDigest(h, got).Equal(partition.SliceDigest(h, set.Slices[0])) {
		t.Fatal("round trip changed the slice digest")
	}

	// Tamper: ship the original records but a foot minted for a modified
	// slice — the receiver's recomputed digest must disagree, by name.
	tampered := set.Slices[0].Clone()
	tampered.Recs[2] = tampered.Recs[2].Clone() // Clone shares record bytes
	tampered.Recs[2].Sig[0] ^= 0x01
	var evil bytes.Buffer
	if err := wire.WriteShardTransfer(&evil, h, man, tampered); err != nil {
		t.Fatal(err)
	}
	cleanFrames := splitFrames(t, clean.Bytes())
	evilFrames := splitFrames(t, evil.Bytes())
	var spliced bytes.Buffer
	for _, f := range cleanFrames[:len(cleanFrames)-1] {
		spliced.Write(f)
	}
	spliced.Write(evilFrames[len(evilFrames)-1]) // the tampered slice's foot
	if _, _, err := wire.ReadShardTransfer(bytes.NewReader(spliced.Bytes()), h); !errors.Is(err, wire.ErrTransferDigest) {
		t.Fatalf("spliced transfer error = %v, want ErrTransferDigest", err)
	}

	// Truncate: drop the foot entirely.
	var cut bytes.Buffer
	for _, f := range cleanFrames[:len(cleanFrames)-1] {
		cut.Write(f)
	}
	if _, _, err := wire.ReadShardTransfer(bytes.NewReader(cut.Bytes()), h); !errors.Is(err, wire.ErrTransferTruncated) {
		t.Fatalf("truncated transfer error = %v, want ErrTransferTruncated", err)
	}
}

// TestLyingManifestCostsLittle: a transfer manifest is a claim from an
// untrusted peer. One announcing 8 Mi records over an empty tail is a
// truncated transfer, and the claim alone must not reserve memory — the
// slice grows as batches actually arrive.
func TestLyingManifestCostsLittle(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Uniform(workload.UniformConfig{N: 8, L: 0, U: 1 << 20, PayloadSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	var honest bytes.Buffer
	if err := wire.WriteShardTransfer(&honest, h, wire.ShardManifest{}, sr); err != nil {
		t.Fatal(err)
	}
	// Re-frame the manifest with a lying record count.
	f, err := wire.TransferFrameBody.Read(bytes.NewReader(splitFrames(t, honest.Bytes())[0]))
	if err != nil {
		t.Fatal(err)
	}
	f.Manifest.Records = 8 << 20
	var lyingFrame bytes.Buffer
	if err := wire.TransferFrameBody.Write(&lyingFrame, f); err != nil {
		t.Fatal(err)
	}
	lying := lyingFrame.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = wire.ReadShardTransfer(bytes.NewReader(lying), h)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTransferTruncated) {
		t.Fatalf("lying manifest over an empty tail = %v, want ErrTransferTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte lying manifest allocated %d bytes", len(lying), grew)
	}
}

// TestLeaseFrameRoundTrip pins the heartbeat codec: request and
// acknowledgement survive a frame round trip field-exact.
func TestLeaseFrameRoundTrip(t *testing.T) {
	req := &wire.LeaseRequest{Coordinator: "coord-a", Epoch: 7, TTLMillis: 15000, Seq: 42}
	var buf bytes.Buffer
	if err := wire.WriteLeaseRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := wire.ReadLeaseRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *gotReq != *req {
		t.Fatalf("request round trip: %+v != %+v", gotReq, req)
	}

	resp := &wire.LeaseResponse{Epoch: 7, Hosted: 3, Inflight: 11}
	buf.Reset()
	if err := wire.WriteLeaseResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := wire.ReadLeaseResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *gotResp != *resp {
		t.Fatalf("response round trip: %+v != %+v", gotResp, resp)
	}
}

// FuzzReadLeaseFrame fuzzes both heartbeat decoders with raw bytes:
// neither may panic, and any frame either accepts must re-encode to one
// that decodes to the same heartbeat. The coordinator feeds these
// decoders bytes from nodes it explicitly does not trust.
func FuzzReadLeaseFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := wire.WriteLeaseRequest(&seed, &wire.LeaseRequest{Coordinator: "c", Epoch: 1, TTLMillis: 1000, Seq: 1}); err != nil {
		f.Fatal(err)
	}
	if err := wire.WriteLeaseResponse(&seed, &wire.LeaseResponse{Epoch: 1, Hosted: 2, Inflight: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsRoundTrip(t, data, wire.WriteLeaseRequest, wire.ReadLeaseRequest)
		holdsRoundTrip(t, data, wire.WriteLeaseResponse, wire.ReadLeaseResponse)
	})
}

// holdsRoundTrip decodes every frame data opens with and holds each to
// decode(encode(v)) == v, compared by encoding — which is injective on
// decoded values, where DeepEqual would call a NaN float value unequal to
// itself.
func holdsRoundTrip[T any](t *testing.T, data []byte, write func(io.Writer, *T) error, read func(io.Reader) (*T, error)) {
	t.Helper()
	r := bytes.NewReader(data)
	for {
		v, err := read(r)
		if err != nil {
			return
		}
		again := frameOf(t, write, v)
		v2, err := read(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if !bytes.Equal(frameOf(t, write, v2), again) {
			t.Fatalf("re-encoded value decodes to %+v, want %+v", v2, v)
		}
	}
}

// FuzzReadDeltaRequest fuzzes the /delta body decoder — the largest
// untrusted body, read up to MaxDeltaBody — with raw bytes: it must never
// panic, and an accepted batch must re-encode to one that decodes to the
// same batch. Seeded with the codec fixture's 3-op delta.
func FuzzReadDeltaRequest(f *testing.F) {
	d := newCodecFixture(f).delta()
	var seed bytes.Buffer
	if err := wire.DeltaBody.Write(&seed, &d); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	if err := wire.DeltaBody.Write(&seed, &delta.Delta{Relation: "Emp"}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsRoundTrip(t, data, wire.DeltaBody.Write, wire.DeltaBody.Read)
	})
}

// FuzzReadNodeFrame fuzzes the sub-stream frame decoder — the bytes the
// coordinator's merge path, the cache replay and the fault injector's
// frame parser all consume from untrusted peers. It must never panic,
// and an accepted frame must re-encode to one that decodes to the same
// value. Seeded with hand-made frames and with every frame kind the codec
// fixture's real sub-streams emit.
func FuzzReadNodeFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := wire.WriteNodeFrame(&seed, &wire.NodeFrame{Hello: &wire.NodeHello{Shard: 1, Epoch: 2}}); err != nil {
		f.Fatal(err)
	}
	if err := wire.WriteNodeFrame(&seed, &wire.NodeFrame{Err: "boom"}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, nf := range newCodecFixture(f).realNodeFrames(f) {
		var frame bytes.Buffer
		if err := wire.WriteNodeFrame(&frame, nf); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsRoundTrip(t, data, wire.WriteNodeFrame, wire.ReadNodeFrame)
	})
}
