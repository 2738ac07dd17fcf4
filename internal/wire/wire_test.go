package wire_test

import (
	"bytes"
	"encoding/gob"
	"errors"
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

	// Ship the publication through its file format, as a real publisher
	// would receive it.
	set, err := partition.Split(sr, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodePublication(set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodePublication(blob)
	if err != nil {
		t.Fatal(err)
	}
	remote := got.Slices[0]
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
	if _, err := wire.DecodePublication(nil); err == nil {
		t.Error("nil publication accepted")
	}
	if _, err := wire.DecodePublication([]byte("not a publication")); err == nil {
		t.Error("garbage publication accepted")
	}
	// A truncated but once-valid file must also fail, and so must one
	// byte past its end.
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
	set, err := partition.Split(sr, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodePublication(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodePublication(blob[:len(blob)/2]); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("truncated publication: %v, want the malformed-frame error", err)
	}
	if _, err := wire.DecodePublication(append(blob, 0)); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("a byte past the publication's end: %v, want the malformed-frame error", err)
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
	path := t.TempDir() + "/params.vcqr"
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

// TestSnapshotRoundTrip: the publication file carries a partitioned
// publication and an unpartitioned one — a one-shard set — and each
// decodes to a set that validates against the owner's key; a bare gob
// relation, the file an earlier build wrote for an unpartitioned
// publication, is refused by name.
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
	for _, k := range []int{1, 4} {
		set, err := partition.Split(sr, k)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := wire.EncodePublication(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodePublication(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Spec.Same(set.Spec) || len(got.Slices) != k {
			t.Fatalf("K = %d: decoded spec %+v with %d slices", k, got.Spec, len(got.Slices))
		}
		if err := got.Validate(h, o.PublicKey()); err != nil {
			t.Fatalf("K = %d: decoded partition set invalid: %v", k, err)
		}
	}

	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(sr); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodePublication(legacy.Bytes()); !errors.Is(err, wire.ErrFileFormat) {
		t.Fatalf("bare gob relation: %v, want wire.ErrFileFormat", err)
	}
}

// TestDecodeRelationOneArray: a decoded slice holds its records in one
// array per transfer batch — Recs points into them, as core.Build lays a
// relation out — so a 1,026-entry relation decodes in well under the
// 26,033 allocations one heap object per record cost; and a decoded
// publication re-encodes to the very bytes it was read from.
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
	for _, k := range []int{1, 3} {
		set, err := partition.Split(sr, k)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := wire.EncodePublication(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodePublication(blob)
		if err != nil {
			t.Fatal(err)
		}
		again, err := wire.EncodePublication(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("K = %d: a decoded publication re-encodes to other bytes", k)
		}
		if k > 1 {
			continue
		}
		if len(got.Slices[0].Recs) != 1026 {
			t.Fatalf("decoded %d records, want 1026", len(got.Slices[0].Recs))
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := wire.DecodePublication(blob); err != nil {
				t.Fatal(err)
			}
		})
		const parent = 26033 // one heap object per record
		t.Logf("DecodePublication: %.0f allocations for 1026 records", allocs)
		if allocs >= parent-1000 {
			t.Fatalf("DecodePublication allocates %.0f for 1026 records, want below %d", allocs, parent-1000)
		}
	}
}
