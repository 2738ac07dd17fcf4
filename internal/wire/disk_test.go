package wire_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/wire"
)

// checkDisk runs the disk codec's properties for one value:
// decode(encode(v)) is the gob round trip of v, the decoded value
// re-encodes to the same bytes, and every cut of the encoding and one
// byte past its end are refused by name — never a panic.
func checkDisk[T any](t *testing.T, name string, v *T, enc func(*T) ([]byte, error), dec func([]byte) (*T, error)) {
	t.Helper()
	b, err := enc(v)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	got, err := dec(bytes.Clone(b))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if want := viaGob(t, v); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: codec and gob disagree\n codec %+v\n gob   %+v", name, got, want)
	}
	if again, err := enc(got); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("%s: re-encoding the decoded value changed the bytes (%v)", name, err)
	}
	for cut := 0; cut < len(b); cut += max(1, len(b)/256) {
		if _, err := dec(bytes.Clone(b[:cut])); !refusedByName(err) {
			t.Fatalf("%s: cut at %d of %d = %v, want a named refusal", name, cut, len(b), err)
		}
	}
	if _, err := dec(append(bytes.Clone(b), 0)); !refusedByName(err) {
		t.Fatalf("%s: one trailing byte = %v, want a named refusal", name, err)
	}
}

// refusedByName reports whether err is one of the refusals a disk
// decoder names: a malformed encoding, a file of another format, or
// material signed in another record format.
func refusedByName(err error) bool {
	return errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrFileFormat) || errors.Is(err, core.ErrRecordFormat)
}

func encodeNodeRecord(r *wire.NodeRecord) ([]byte, error) { return wire.AppendNodeRecord(nil, r) }

func encodeCoordRecord(r *wire.CoordRecord) ([]byte, error) {
	return wire.AppendCoordRecord(nil, r), nil
}

func encodeParams(cp *wire.ClientParams) ([]byte, error) {
	return wire.AppendClientParams(wire.FileHeader("vcqr client params\n"), cp), nil
}

func decodeParams(b []byte) (*wire.ClientParams, error) {
	cp, err := wire.DecodeClientParams(b)
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

// TestDiskCodecMatchesGob is TestCodecMatchesGob for what is kept on
// disk: every node and coordinator log record kind, a params file with
// roles and a partition, and publications at K = 1 and K = 4 decode
// field for field what gob decoded, and re-encode to their own bytes.
func TestDiskCodecMatchesGob(t *testing.T) {
	f := newCodecFixture(t)
	stamped := func(i int) wire.ShardManifest {
		sl := f.set.Slices[i]
		return wire.ShardManifest{Spec: f.set.Spec, Shard: i, Params: sl.Params, Schema: sl.Schema,
			Records: len(sl.Recs), Epoch: 0, Deltas: 5}
	}
	d := f.delta()
	dg := partition.SliceDigest(f.h, f.set.Slices[1])
	for name, r := range map[string]*wire.NodeRecord{
		"slice record":         {Slice: &wire.SliceRecord{Manifest: stamped(1), InstallDigest: dg, Slice: f.set.Slices[1]}},
		"remove record":        {Remove: &wire.ShardRef{Relation: "Emp", Shard: 2}},
		"commit record (ops)":  {Commit: &wire.CommitRecord{Relation: "Emp", Shards: []wire.ShardCommit{{Shard: 1, PostDigest: dg, Ops: d.Ops}}}},
		"commit record (full)": {Commit: &wire.CommitRecord{Relation: "Emp", Shards: []wire.ShardCommit{{Shard: 0, PostDigest: dg, Ops: d.Ops[:1]}, {Shard: 2, PostDigest: dg, Full: f.set.Slices[2]}}}},
	} {
		checkDisk(t, name, r, encodeNodeRecord, wire.DecodeNodeRecord)
	}
	for name, r := range map[string]*wire.CoordRecord{
		"routing record":      {Routing: &wire.RoutingRecord{Epoch: 9, Route: [][]string{{"http://a", "http://b"}, {"http://c"}}}},
		"staged begin record": {StagedBegin: &wire.StagedBegin{Relation: "Emp", Tokens: map[string]uint64{"http://b": 7, "http://a": 3, "http://c": 1 << 40}}},
		"staged end record":   {StagedEnd: &wire.StagedEnd{Relation: "Emp", Committed: true}},
	} {
		checkDisk(t, name, r, encodeCoordRecord, wire.DecodeCoordRecord)
	}

	key := signKey(t).Public()
	checkDisk(t, "client params", &wire.ClientParams{N: key.N, E: key.E, Params: f.sr.Params, Schema: f.sr.Schema,
		Roles: f.roles, Partition: &f.set.Spec}, encodeParams, decodeParams)
	checkDisk(t, "client params, no roles or partition", &wire.ClientParams{N: key.N, E: key.E, Params: f.sr.Params,
		Schema: f.sr.Schema}, encodeParams, decodeParams)
	for _, k := range []int{1, 4} {
		set, err := partition.Split(f.sr, k)
		if err != nil {
			t.Fatal(err)
		}
		checkDisk(t, "publication", set, wire.EncodePublication, wire.DecodePublication)
	}
}

// The disk fuzzers: every input is refused by name or re-encodes to its
// own bytes, and none panics. Their seeds carry small unsigned records —
// the decoders check no signature, and the fuzzer mutates a short input
// far faster than a signed slice.

// tinySet is a publication of k slices of three small records each.
func tinySet(k int) *partition.Set {
	p, _ := core.NewParams(0, 1<<20, 2)
	schema := relation.Schema{Name: "T", KeyName: "K", Cols: []relation.Column{{Name: "A", Type: relation.TypeString}}}
	set := &partition.Set{Spec: partition.Spec{Relation: "T", Cuts: []uint64{0}}}
	for i := range k {
		rec := func(key uint64) *core.SignedRecord {
			return &core.SignedRecord{Kind: core.KindRecord, Tuple: relation.Tuple{Key: key, RowID: key,
				Attrs: []relation.Value{relation.StringVal("a")}}, Combined: []byte{1, 2}, G: []byte{3}, Sig: []byte{4, 5}}
		}
		lo := uint64(10 * i)
		set.Slices = append(set.Slices, &core.SignedRelation{Params: p, Schema: schema,
			Recs: []*core.SignedRecord{rec(lo), rec(lo + 5), rec(lo + 10)}})
		set.Spec.Cuts = append(set.Spec.Cuts, lo+10)
	}
	return set
}

func FuzzReadNodeRecord(f *testing.F) {
	set := tinySet(2)
	d := delta.Delta{Relation: "T", Ops: []delta.Op{{Kind: delta.OpUpsert, Key: 5, RowID: 5, Rec: *set.Slices[0].Recs[1]},
		{Kind: delta.OpDelete, Key: 6, RowID: 6}}}
	for _, r := range []*wire.NodeRecord{
		{Slice: &wire.SliceRecord{Manifest: wire.ShardManifest{Spec: set.Spec, Shard: 1, Deltas: 2}, InstallDigest: []byte{9}, Slice: set.Slices[1]}},
		{Remove: &wire.ShardRef{Relation: "T", Shard: 1}},
		{Commit: &wire.CommitRecord{Relation: "T", Shards: []wire.ShardCommit{{Shard: 0, Ops: d.Ops}, {Shard: 1, Full: set.Slices[1]}}}},
	} {
		b, err := wire.AppendNodeRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("not a record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsDiskRoundTrip(t, data, wire.DecodeNodeRecord, encodeNodeRecord)
	})
}

func FuzzReadCoordRecord(f *testing.F) {
	for _, r := range []*wire.CoordRecord{
		{Routing: &wire.RoutingRecord{Epoch: 9, Route: [][]string{{"http://a", "http://b"}, {"http://c"}}}},
		{StagedBegin: &wire.StagedBegin{Relation: "Emp", Tokens: map[string]uint64{"http://a": 3, "http://b": 7}}},
		{StagedEnd: &wire.StagedEnd{Relation: "Emp", Committed: true}},
	} {
		f.Add(wire.AppendCoordRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0x85, 3, 'E', 'm', 'p', 2, 1, 'b', 1, 1, 'a', 1}) // tokens out of order
	f.Add([]byte{0x86, 0x83, 0x00, 'E', 'm', 'p', 1})              // a length in two bytes where one will do
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsDiskRoundTrip(t, data, wire.DecodeCoordRecord, encodeCoordRecord)
	})
}

func FuzzReadClientParams(f *testing.F) {
	fx := newCodecFixture(f)
	key := signKey(f).Public()
	for _, cp := range []*wire.ClientParams{
		{N: key.N, E: key.E, Params: fx.sr.Params, Schema: fx.sr.Schema, Roles: fx.roles, Partition: &fx.set.Spec},
		{N: key.N, E: key.E, Params: fx.sr.Params, Schema: fx.sr.Schema, Roles: map[string]accessctl.Role{"all": {Name: "all"}}},
	} {
		b, _ := encodeParams(cp)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("vcqr client params\n\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsDiskRoundTrip(t, data, decodeParams, encodeParams)
	})
}

func FuzzReadPublication(f *testing.F) {
	for _, k := range []int{1, 2} {
		b, err := wire.EncodePublication(tinySet(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("vcqr-snapshot-1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		holdsDiskRoundTrip(t, data, wire.DecodePublication, wire.EncodePublication)
	})
}

// holdsDiskRoundTrip holds data to the disk decoders' contract: refused
// by name, or decoded to a value that encodes to data itself.
func holdsDiskRoundTrip[T any](t *testing.T, data []byte, dec func([]byte) (*T, error), enc func(*T) ([]byte, error)) {
	v, err := dec(bytes.Clone(data))
	if err != nil {
		if !refusedByName(err) {
			t.Fatalf("refusal %v names no refusal", err)
		}
		return
	}
	again, err := enc(v)
	if err != nil {
		t.Fatalf("decoded value does not encode: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decoded value re-encodes to %d other bytes than the %d read", len(again), len(data))
	}
}
