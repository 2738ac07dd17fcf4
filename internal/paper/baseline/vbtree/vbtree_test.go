package vbtree

import (
	"sync"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

var (
	keyOnce sync.Once
	testKey *sig.PrivateKey
)

func signKey(t testing.TB) *sig.PrivateKey {
	keyOnce.Do(func() {
		k, err := sig.Generate(sig.DefaultBits, nil)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		testKey = k
	})
	return testKey
}

func buildIndex(t testing.TB, keys []uint64) (*hashx.Hasher, *SignedIndex) {
	t.Helper()
	h := hashx.New()
	rel, err := relation.New(relation.Schema{
		Name: "T", KeyName: "K",
		Cols: []relation.Column{{Name: "V", Type: relation.TypeString}},
	}, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := rel.Insert(relation.Tuple{Key: k, Attrs: []relation.Value{
			relation.StringVal(string(rune('a' + i%26))),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	si, err := Build(h, signKey(t), rel)
	if err != nil {
		t.Fatal(err)
	}
	return h, si
}

var keys = []uint64{2000, 3500, 8010, 12100, 25000, 30000, 44000}

func TestAuthenticityRoundTrip(t *testing.T) {
	h, si := buildIndex(t, keys)
	pub := signKey(t).Public()
	for _, c := range [][2]uint64{{1, 9999}, {3500, 30000}, {2000, 2000}, {1, 99999}} {
		res, err := si.Query(c[0], c[1])
		if err != nil {
			t.Fatalf("[%d,%d]: %v", c[0], c[1], err)
		}
		tuples, err := Verify(h, pub, res)
		if err != nil {
			t.Fatalf("[%d,%d] verify: %v", c[0], c[1], err)
		}
		for _, tp := range tuples {
			if tp.Key < c[0] || tp.Key > c[1] {
				t.Fatalf("[%d,%d]: out-of-range tuple %d", c[0], c[1], tp.Key)
			}
		}
	}
}

func TestTamperDetected(t *testing.T) {
	h, si := buildIndex(t, keys)
	pub := signKey(t).Public()
	res, err := si.Query(1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	res.Tuples[0].Attrs[0] = relation.StringVal("evil")
	if _, err := Verify(h, pub, res); err == nil {
		t.Fatal("tampered tuple not detected")
	}
}

func TestSpuriousDetected(t *testing.T) {
	h, si := buildIndex(t, keys)
	pub := signKey(t).Public()
	res, err := si.Query(1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	res.Tuples = append(res.Tuples, relation.Tuple{Key: 9000, Attrs: []relation.Value{
		relation.StringVal("ghost"),
	}})
	if _, err := Verify(h, pub, res); err == nil {
		t.Fatal("spurious tuple not detected")
	}
}

// TestCompletenessGap demonstrates the limitation Pang et al. address:
// a truncated result — the last qualifying tuple silently dropped —
// still VERIFIES under the VB-tree, because nothing ties the enveloping
// subtree to the query range.
func TestCompletenessGap(t *testing.T) {
	h, si := buildIndex(t, keys)
	pub := signKey(t).Public()
	honest, err := si.Query(1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	honestTuples, err := Verify(h, pub, honest)
	if err != nil {
		t.Fatal(err)
	}
	cheat, err := si.QueryTruncated(1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	cheatTuples, err := Verify(h, pub, cheat)
	if err != nil {
		t.Fatalf("the whole point: truncated result should still verify, got %v", err)
	}
	if len(cheatTuples) != len(honestTuples)-1 {
		t.Fatalf("truncated result has %d tuples, honest %d", len(cheatTuples), len(honestTuples))
	}
}

func TestVerifyShapeChecks(t *testing.T) {
	h, si := buildIndex(t, keys)
	pub := signKey(t).Public()
	res, err := si.Query(1, 9999)
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.Fill = bad.Fill[:0]
	if _, err := Verify(h, pub, &bad); err == nil {
		t.Fatal("wrong fill count accepted")
	}
}
