package graphauth_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/paper/graphauth"
	"vcqr/internal/sig"
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

// diamond is the test DAG:
//
//	10 -> 20 -> 40
//	10 -> 30 -> 40
//	40 -> 50          60 (isolated-ish: 20 -> 60)
func diamond() map[uint64][]uint64 {
	return map[uint64][]uint64{
		10: {20, 30},
		20: {40, 60},
		30: {40},
		40: {50},
	}
}

type gfix struct {
	h   *hashx.Hasher
	dag *graphauth.SignedDAG
	pub *graphauth.Publisher
	v   *graphauth.Verifier
}

func newGFix(t testing.TB) *gfix {
	t.Helper()
	h := hashx.New()
	dag, err := graphauth.Build(h, signKey(t), diamond(), 0, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := graphauth.NewPublisher(h, signKey(t).Public(), dag)
	if err != nil {
		t.Fatal(err)
	}
	return &gfix{
		h: h, dag: dag, pub: pub,
		v: graphauth.NewVerifier(h, signKey(t).Public(), dag.Params),
	}
}

func TestBuildValidation(t *testing.T) {
	h := hashx.New()
	// Cycle detection.
	if _, err := graphauth.Build(h, signKey(t), map[uint64][]uint64{
		1: {2}, 2: {3}, 3: {1},
	}, 0, 100, 2); !errors.Is(err, graphauth.ErrCycle) {
		t.Fatalf("cycle: %v", err)
	}
	// Self-loop is a cycle.
	if _, err := graphauth.Build(h, signKey(t), map[uint64][]uint64{
		1: {1},
	}, 0, 100, 2); !errors.Is(err, graphauth.ErrCycle) {
		t.Fatalf("self-loop: %v", err)
	}
	// Node outside domain.
	if _, err := graphauth.Build(h, signKey(t), map[uint64][]uint64{
		1: {200},
	}, 0, 100, 2); !errors.Is(err, graphauth.ErrNode) {
		t.Fatalf("out-of-domain node: %v", err)
	}
}

func TestChildrenRoundTrip(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Children(10, 1, 1023)
	if err != nil {
		t.Fatal(err)
	}
	succs, exists, err := f.v.VerifyChildren(10, 1, 1023, res)
	if err != nil {
		t.Fatal(err)
	}
	if !exists {
		t.Fatal("node 10 must exist")
	}
	if len(succs) != 2 || succs[0] != 20 || succs[1] != 30 {
		t.Fatalf("children(10) = %v, want [20 30]", succs)
	}
}

func TestChildrenRangeFilter(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Children(20, 50, 1023) // only successors >= 50
	if err != nil {
		t.Fatal(err)
	}
	succs, _, err := f.v.VerifyChildren(20, 50, 1023, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(succs) != 1 || succs[0] != 60 {
		t.Fatalf("children(20, >=50) = %v, want [60]", succs)
	}
}

func TestVerifiableEmptyAdjacency(t *testing.T) {
	// Node 50 is a sink: its verified successor set is empty — the
	// negative fact the completeness machinery makes trustworthy.
	f := newGFix(t)
	res, err := f.pub.Children(50, 1, 1023)
	if err != nil {
		t.Fatal(err)
	}
	succs, exists, err := f.v.VerifyChildren(50, 1, 1023, res)
	if err != nil {
		t.Fatal(err)
	}
	if !exists || len(succs) != 0 {
		t.Fatalf("children(50) = %v exists=%v, want empty and existing", succs, exists)
	}
}

func TestVerifiableNonNode(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Children(777, 1, 1023)
	if err != nil {
		t.Fatal(err)
	}
	_, exists, err := f.v.VerifyChildren(777, 1, 1023, res)
	if err != nil {
		t.Fatal(err)
	}
	if exists {
		t.Fatal("node 777 must verifiably not exist")
	}
}

func TestChildrenOmissionDetected(t *testing.T) {
	// A publisher that withholds an edge must be caught: emulate by
	// answering a narrower range labelled as the full one.
	f := newGFix(t)
	full, err := f.pub.Children(10, 1, 1023)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := f.pub.Children(10, 25, 1023) // omits edge 10->20
	if err != nil {
		t.Fatal(err)
	}
	forged := *full
	forged.Edges = narrow.Edges
	if _, _, err := f.v.VerifyChildren(10, 1, 1023, &forged); err == nil {
		t.Fatal("withheld edge not detected")
	}
}

func TestReachablePositive(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Reachable(10, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	found, err := f.v.VerifyReachable(res)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("50 is reachable from 10 in 3 hops")
	}
}

func TestReachableNegativeProof(t *testing.T) {
	// 10 is NOT reachable from 50 (edges point the other way): the
	// verified negative answer is the paper's completeness property
	// lifted to graphs.
	f := newGFix(t)
	res, err := f.pub.Reachable(50, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	found, err := f.v.VerifyReachable(res)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("10 must not be reachable from 50")
	}
}

func TestReachableDepthBound(t *testing.T) {
	f := newGFix(t)
	// 50 is 3 hops from 10; within 2 hops it must be verifiably absent.
	res, err := f.pub.Reachable(10, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	found, err := f.v.VerifyReachable(res)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("50 must not be reachable within 2 hops")
	}
	if _, err := f.pub.Reachable(10, 50, 0); !errors.Is(err, graphauth.ErrDepth) {
		t.Fatalf("depth 0: %v", err)
	}
}

func TestReachableLyingClaimDetected(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Reachable(10, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	res.Found = false // publisher lies about its own verified expansion
	if _, err := f.v.VerifyReachable(res); err == nil {
		t.Fatal("false claim not detected")
	}
}

// TestReachabilityAgainstOracle builds random layered DAGs and compares
// verified reachability answers with a plain BFS oracle on the adjacency
// map, for random (from, to, depth) probes.
func TestReachabilityAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	h := hashx.New()
	for trial := 0; trial < 3; trial++ {
		// Layered construction guarantees acyclicity: edges only go from
		// layer i to layer i+1.
		const layers, perLayer = 4, 5
		adj := map[uint64][]uint64{}
		node := func(l, i int) uint64 { return uint64(l*100 + i + 1) }
		for l := 0; l < layers-1; l++ {
			for i := 0; i < perLayer; i++ {
				for j := 0; j < perLayer; j++ {
					if rng.Intn(3) == 0 {
						adj[node(l, i)] = append(adj[node(l, i)], node(l+1, j))
					}
				}
			}
		}
		if len(adj) == 0 {
			adj[node(0, 0)] = []uint64{node(1, 0)}
		}
		dag, err := graphauth.Build(h, signKey(t), adj, 0, 10000, 2)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := graphauth.NewPublisher(h, signKey(t).Public(), dag)
		if err != nil {
			t.Fatal(err)
		}
		v := graphauth.NewVerifier(h, signKey(t).Public(), dag.Params)

		oracle := func(from, to uint64, depth int) bool {
			frontier := []uint64{from}
			seen := map[uint64]bool{from: true}
			for d := 0; d < depth; d++ {
				var next []uint64
				for _, u := range frontier {
					for _, s := range adj[u] {
						if s == to {
							return true
						}
						if !seen[s] {
							seen[s] = true
							next = append(next, s)
						}
					}
				}
				frontier = next
			}
			return false
		}

		for probe := 0; probe < 15; probe++ {
			from := node(rng.Intn(layers), rng.Intn(perLayer))
			to := node(rng.Intn(layers), rng.Intn(perLayer))
			depth := 1 + rng.Intn(layers)
			res, err := pub.Reachable(from, to, depth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := v.VerifyReachable(res)
			if err != nil {
				t.Fatalf("trial %d probe %d (%d->%d depth %d): %v", trial, probe, from, to, depth, err)
			}
			if want := oracle(from, to, depth); got != want {
				t.Fatalf("trial %d: reach(%d->%d, %d) = %v, oracle %v", trial, from, to, depth, got, want)
			}
		}
	}
}

func TestReachableMissingLayerDetected(t *testing.T) {
	f := newGFix(t)
	res, err := f.pub.Reachable(10, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one node's expansion from the first layer.
	delete(res.Layers[0], 10)
	if _, err := f.v.VerifyReachable(res); err == nil {
		t.Fatal("missing expansion not detected")
	}
}
