package wire_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/wire"
)

// sampleCacheFrames covers every operation shape of the cache protocol.
func sampleCacheFrames() []*wire.CacheFrame {
	sum := hashx.New().Hash([]byte("entry-bytes"))
	return []*wire.CacheFrame{
		{Get: &wire.CacheGet{Key: "Uniform\x00v1\x00s2\x00e7\x00all\x000-99|c8\x000-0"}},
		{Put: &wire.CachePut{
			Key:      "Uniform\x00v1\x00s2\x00e7\x00all\x000-99|c8\x000-0",
			Relation: "Uniform",
			Shard:    2,
			Epoch:    7,
			Sum:      sum,
			Bytes:    []byte("entry-bytes"),
		}},
		{Put: &wire.CachePut{Key: "stream", Relation: "Uniform", Shard: -1, Bytes: []byte{0}}},
		{Sweep: &wire.CacheSweep{Groups: []wire.CacheGroup{{Relation: "Uniform", Shard: 2, Keep: 8}}}},
		{Sweep: &wire.CacheSweep{Keys: []string{"one-entry"}}},
		// One delta's batch: the staged shards' groups, the multi-shard
		// group at the bump generation, and a suspect entry's drop.
		{Sweep: &wire.CacheSweep{
			Groups: []wire.CacheGroup{
				{Relation: "Uniform", Shard: 0, Keep: 3},
				{Relation: "Uniform", Shard: 1, Keep: 1 << 40},
				{Relation: "Uniform", Shard: -1, Keep: 9},
			},
			Keys: []string{"Uniform\x00s1\x00e2", ""},
		}},
		{Sweep: &wire.CacheSweep{}},
		{Stats: true},
	}
}

// TestCacheFrameRoundTrip pins the request and reply frames through the
// pooled codec.
func TestCacheFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleCacheFrames()
	for _, f := range frames {
		if err := wire.WriteCacheFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := wire.ReadCacheFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		switch {
		case want.Get != nil:
			if got.Get == nil || got.Get.Key != want.Get.Key {
				t.Fatalf("frame %d: get mismatch: %+v", i, got)
			}
		case want.Put != nil:
			if got.Put == nil || got.Put.Key != want.Put.Key ||
				got.Put.Relation != want.Put.Relation || got.Put.Shard != want.Put.Shard ||
				got.Put.Epoch != want.Put.Epoch || !bytes.Equal(got.Put.Bytes, want.Put.Bytes) ||
				!got.Put.Sum.Equal(want.Put.Sum) {
				t.Fatalf("frame %d: put mismatch: %+v", i, got)
			}
		case want.Sweep != nil:
			if got.Sweep == nil || !slices.Equal(got.Sweep.Groups, want.Sweep.Groups) || !slices.Equal(got.Sweep.Keys, want.Sweep.Keys) {
				t.Fatalf("frame %d: sweep mismatch: %+v", i, got.Sweep)
			}
		case want.Stats:
			if !got.Stats {
				t.Fatalf("frame %d: stats flag lost", i)
			}
		}
	}
	if _, err := wire.ReadCacheFrame(&buf); err != io.EOF {
		t.Fatalf("trailing read returned %v, want io.EOF", err)
	}

	sum := hashx.New().Hash([]byte("b"))
	rp := &wire.CacheReply{Hit: true, Sum: sum, Bytes: []byte("b"), Dropped: 3,
		Stats: &wire.CacheStats{Entries: 1, Bytes: 2, Budget: 3, Hits: 4}}
	if err := wire.WriteCacheReply(&buf, rp); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadCacheReply(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hit || !got.Sum.Equal(sum) || !bytes.Equal(got.Bytes, rp.Bytes) ||
		got.Dropped != 3 || got.Stats == nil || *got.Stats != *rp.Stats {
		t.Fatalf("reply mismatch: %+v", got)
	}
}

// FuzzReadCacheFrame fuzzes the cache request decoder with raw bytes: it
// must never panic, and any frame it accepts must re-encode.
func FuzzReadCacheFrame(f *testing.F) {
	var seed bytes.Buffer
	for _, fr := range sampleCacheFrames() {
		if err := wire.WriteCacheFrame(&seed, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Sweep frames one at a time, and a sweep whose group count claims
	// more groups than its payload holds.
	for _, fr := range sampleCacheFrames() {
		if fr.Sweep == nil {
			continue
		}
		var one bytes.Buffer
		if err := wire.WriteCacheFrame(&one, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
	}
	f.Add([]byte{0, 0, 0, 3, 6, 0x7f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := wire.ReadCacheFrame(r)
			if err != nil {
				break
			}
			if err := wire.WriteCacheFrame(io.Discard, fr); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
		}
	})
}
