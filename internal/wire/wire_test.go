package wire_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

var (
	keyOnce  sync.Once
	ownerKey *sig.PrivateKey
)

func signKey(t testing.TB) *sig.PrivateKey {
	keyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		ownerKey = k
	})
	return ownerKey
}

func TestRelationRoundTripThroughGob(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 20, L: 0, U: 1 << 20, PhotoSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodeRelation(sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeRelation(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded relation must survive full validation — every digest
	// and signature intact.
	if err := got.Validate(h, o.PublicKey()); err != nil {
		t.Fatalf("decoded relation invalid: %v", err)
	}
	if got.Len() != sr.Len() {
		t.Fatalf("lengths differ: %d vs %d", got.Len(), sr.Len())
	}
}

// TestHTTPEndToEnd runs the full Figure 3 deployment: owner signs, the
// publisher serves over HTTP, the user queries and verifies client-side.
func TestHTTPEndToEnd(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 40, L: 0, U: 1 << 20, PhotoSize: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Ship the snapshot through serialization, as a real publisher would
	// receive it.
	blob, err := wire.EncodeRelation(sr)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := wire.DecodeRelation(blob)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "user"}
	pub := engine.NewPublisher(h, o.PublicKey(), accessctl.NewPolicy(role))
	if err := pub.AddRelation(remote, true); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	wire.StreamEP.Mount(mux, func(w http.ResponseWriter, req wire.StreamRequest) {
		st, err := pub.ExecuteStream(req.Role, req.Query, engine.StreamOpts{ChunkRows: req.ChunkRows})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		wire.WriteStream(w, st)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := &wire.Client{BaseURL: srv.URL}
	q := engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}
	res, err := client.Query("user", q)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(h, o.PublicKey(), sr.Params, sr.Schema)
	rows, err := v.VerifyResult(q, role, res)
	if err != nil {
		t.Fatalf("verification over HTTP transport failed: %v", err)
	}
	var want int
	for _, tp := range rel.Tuples {
		if tp.Key >= 1 && tp.Key <= 1<<19 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}

	// Publisher-side errors surface cleanly.
	if _, err := client.Query("ghost", q); err == nil {
		t.Fatal("unknown role should error through the transport")
	}
	if _, err := client.Query("user", engine.Query{Relation: "Nope"}); err == nil {
		t.Fatal("unknown relation should error through the transport")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	if _, err := wire.DecodeRelation(nil); err == nil {
		t.Error("nil relation blob accepted")
	}
	if _, err := wire.DecodeRelation([]byte("not a gob stream")); err == nil {
		t.Error("garbage relation blob accepted")
	}
	// A truncated but once-valid stream must also fail.
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 5, L: 0, U: 1 << 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodeRelation(sr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeRelation(blob[:len(blob)/2]); err == nil {
		t.Error("truncated relation blob accepted")
	}
}

func TestClientParamsRoundTrip(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 5, L: 0, U: 1 << 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/params.gob"
	cp := wire.ClientParams{
		N: o.PublicKey().N, E: o.PublicKey().E,
		Params: sr.Params, Schema: sr.Schema,
		Roles: map[string]accessctl.Role{"exec": {Name: "exec", KeyHi: 99}},
	}
	if err := wire.WriteClientParams(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadClientParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(cp.N) != 0 || got.E != cp.E || got.Params != cp.Params {
		t.Fatal("params did not round trip")
	}
	if got.Roles["exec"].KeyHi != 99 {
		t.Fatal("roles did not round trip")
	}
	if _, err := wire.ReadClientParams(path + ".missing"); err == nil {
		t.Fatal("missing params file accepted")
	}
}

// TestSnapshotRoundTrip: the magic-prefixed snapshot format carries both
// plain and partitioned publications, and transparently falls back to
// the legacy bare-relation encoding.
func TestSnapshotRoundTrip(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 24, L: 0, U: 1 << 20, PhotoSize: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 4)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := wire.EncodeSnapshot(&wire.Snapshot{Partition: set})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wire.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Partition == nil || snap.Relation != nil {
		t.Fatal("partitioned snapshot decoded wrong")
	}
	if err := snap.Partition.Validate(h, o.PublicKey()); err != nil {
		t.Fatalf("decoded partition set invalid: %v", err)
	}

	// Legacy fallback: a bare gob relation decodes as an unpartitioned
	// snapshot.
	legacy, err := wire.EncodeRelation(sr)
	if err != nil {
		t.Fatal(err)
	}
	snap, err = wire.DecodeSnapshot(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Relation == nil || snap.Partition != nil {
		t.Fatal("legacy snapshot decoded wrong")
	}
	if err := snap.Relation.Validate(h, o.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRelationOneArray: a decoded relation holds its records in
// one array — Recs points into it, as core.Build lays a relation out —
// so a 1,026-entry relation decodes in well under the 26,033 allocations
// one heap object per record cost; and the decoded snapshot re-encodes
// to the very bytes it was read from, so the shadow types drop no field.
func TestDecodeRelationOneArray(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Uniform(workload.UniformConfig{N: 1024, L: 0, U: 1 << 24, PayloadSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodeRelation(sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeRelation(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Recs) != 1026 {
		t.Fatalf("decoded %d records, want 1026", len(got.Recs))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := wire.DecodeRelation(blob); err != nil {
			t.Fatal(err)
		}
	})
	const parent = 26033 // one heap object per record
	t.Logf("DecodeRelation: %.0f allocations for 1026 records", allocs)
	if allocs >= parent-1000 {
		t.Fatalf("DecodeRelation allocates %.0f for 1026 records, want below %d", allocs, parent-1000)
	}

	set, err := partition.Split(sr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*wire.Snapshot{{Relation: sr}, {Partition: set}} {
		enc, err := wire.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := wire.EncodeSnapshot(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatal("a decoded snapshot re-encodes to other bytes")
		}
	}
}
