package cluster_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/engine"
	"vcqr/internal/server"
	"vcqr/internal/wire"
)

// streamer is the in-process read path of every serving tier.
type streamer interface {
	QueryStream(role string, q engine.Query, chunkRows int) (engine.ResultStream, error)
}

// TestClientQueryIsCollectedStream is the one-read-path differential: at
// every tier — an unpartitioned server, a K = 4 in-process partitioned
// server, a coordinator over shard nodes — what Client.Query returns over
// HTTP is field for field engine.Collect of the tier's own stream on the
// same epoch, and the UNMODIFIED VerifyResult releases from it exactly
// the rows the streaming verifier delivers.
func TestClientQueryIsCollectedStream(t *testing.T) {
	f := newCluster(t, 96, 4, 2, nil)
	newServer := func() *server.Server {
		s := server.New(server.Config{Hasher: f.h, Pub: signKey(t).Public(), Policy: accessctl.NewPolicy(f.role)})
		t.Cleanup(s.Close)
		return s
	}
	plain, parted := newServer(), newServer()
	if err := plain.AddRelation(f.owner.Clone(), false); err != nil {
		t.Fatal(err)
	}
	if err := parted.AddPartition(f.set, false); err != nil {
		t.Fatal(err)
	}

	// An empty range strictly inside shard 2's span: its VO is the
	// predecessor material alone (PredPrevG).
	own2 := f.set.Slices[2].Recs[1 : len(f.set.Slices[2].Recs)-1]
	gapLo, gapHi := own2[3].Key()+1, own2[4].Key()-1
	if gapLo > gapHi {
		t.Fatalf("fixture has no key gap at [%d, %d]", gapLo, gapHi)
	}
	lo1, hi1 := f.spec.Span(1)
	queries := []struct {
		name string
		q    engine.Query
		rows int // -1: not pinned by the fixture
	}{
		{"cross-shard", engine.Query{Relation: "Uniform"}, 96},
		{"single-shard", engine.Query{Relation: "Uniform", KeyLo: lo1, KeyHi: hi1}, len(f.set.Slices[1].Recs) - 2},
		{"projected", engine.Query{Relation: "Uniform", KeyLo: lo1 / 2, KeyHi: hi1, Project: []string{"Payload"}}, -1},
		{"empty", engine.Query{Relation: "Uniform", KeyLo: gapLo, KeyHi: gapHi}, 0},
	}

	for _, tier := range []struct {
		name    string
		inproc  streamer
		handler *httptest.Server
	}{
		{"server", plain, httptest.NewServer(plain.Handler())},
		{"partitioned server", parted, httptest.NewServer(parted.Handler())},
		{"coordinator", f.coord, httptest.NewServer(f.coord.Handler())},
	} {
		defer tier.handler.Close()
		client := &wire.Client{BaseURL: tier.handler.URL}
		for _, tc := range queries {
			name := tier.name + " " + tc.name
			st, err := tier.inproc.QueryStream("all", tc.q, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := engine.Collect(st)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := client.Query("all", tc.q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Client.Query differs from the collected in-process stream\n got %+v\nwant %+v", name, got, want)
			}
			if tc.name == "empty" && got.VO.PredPrevG == nil {
				t.Fatalf("%s: empty range carries no PredPrevG", name)
			}
			rows, err := f.v.VerifyResult(tc.q, f.role, got)
			if err != nil {
				t.Fatalf("%s: collected result rejected: %v", name, err)
			}
			var streamed []engine.Row
			if _, err := client.QueryStream(f.v, f.role, "all", tc.q, 0, func(r engine.Row) error {
				streamed = append(streamed, keepRow(r))
				return nil
			}); err != nil {
				t.Fatalf("%s: stream rejected: %v", name, err)
			}
			if len(rows) != len(streamed) || (len(rows) > 0 && !reflect.DeepEqual(rows, streamed)) {
				t.Fatalf("%s: VerifyResult released %d rows, the stream %d, or they differ", name, len(rows), len(streamed))
			}
			if tc.rows >= 0 && len(rows) != tc.rows {
				t.Fatalf("%s: %d rows, want %d", name, len(rows), tc.rows)
			}
		}
	}
}

// TestClusterClientQueryAndRanges drives what vcquery's default and
// -ranges modes do — wire.Client.Query, once per range — against a
// coordinator's HTTP handler: a cross-node range and one range per shard
// verify under the UNMODIFIED VerifyResult, the per-shard ranges add up
// to the publication, and an unknown relation fails alone with the
// publisher's text.
func TestClusterClientQueryAndRanges(t *testing.T) {
	f := newCluster(t, 60, 4, 2, nil)
	ts := httptest.NewServer(f.coord.Handler())
	defer ts.Close()
	client := &wire.Client{BaseURL: ts.URL}

	qs := []engine.Query{{Relation: "Uniform"}}
	for i := 0; i < f.spec.K(); i++ {
		lo, hi := f.spec.Span(i)
		qs = append(qs, engine.Query{Relation: "Uniform", KeyLo: lo, KeyHi: hi})
	}
	qs = append(qs, engine.Query{Relation: "nope", KeyLo: 1})

	verified := make([]int, len(qs))
	var failed []string
	for i, q := range qs {
		res, err := client.Query("all", q)
		if err != nil {
			failed = append(failed, fmt.Sprintf("[%d] %v", i, err))
			continue
		}
		rows, err := f.v.VerifyResult(q, f.role, res)
		if err != nil {
			t.Fatalf("range %d rejected: %v", i, err)
		}
		verified[i] = len(rows)
	}
	if len(failed) != 1 || !strings.HasPrefix(failed[0], "[5] ") || !strings.Contains(failed[0], "unknown relation") {
		t.Fatalf("failures = %q, want range 5 alone with the publisher's text", failed)
	}
	if verified[0] != 60 {
		t.Fatalf("cross-node range verified %d rows, want 60", verified[0])
	}
	if sum := verified[1] + verified[2] + verified[3] + verified[4]; sum != 60 {
		t.Fatalf("per-shard ranges verified %d rows in all, want 60", sum)
	}
}
