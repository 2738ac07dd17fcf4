package cluster_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// refusalOrder holds every install round trip to host late until one to
// host early has returned, so early's refusal lands before late's. Place
// installs on every node at once, so early's round trip is under way and
// the wait ends; other RPCs (leases) pass through.
type refusalOrder struct {
	late, early string
	returned    chan struct{} // closed when an install round trip to early has returned
	once        *sync.Once
}

func (o refusalOrder) RoundTrip(req *http.Request) (*http.Response, error) {
	install := req.URL.Path == wire.ShardInstallRPC.Path
	if install && req.URL.Host == o.late {
		select {
		case <-o.returned:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if install && req.URL.Host == o.early {
		o.once.Do(func() { close(o.returned) })
	}
	return resp, err
}

// A Place in which nodes refuse their installs reports the refusal a
// serial (shard, replica) loop would report first, however the nodes'
// refusals interleave; it leaves the routing table as it was and none of
// its goroutines behind.
func TestPlaceRefusalIsLowestSlot(t *testing.T) {
	h := hashx.New()
	rel, err := workload.Uniform(workload.UniformConfig{N: 64, L: 0, U: 1 << 20, PayloadSize: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Build(h, signKey(t), p, rel)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 4)
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := sig.Generate(sig.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	role := accessctl.Role{Name: "all"}
	var urls []string
	for i := 0; i < 3; i++ {
		// Nodes 1 and 2 trust another owner's key, so they refuse every
		// slice: node 1 holds slots (0,1) (1,0) (3,1), node 2 holds
		// (1,1) (2,0). Node 0 installs all of its own.
		pub := signKey(t).Public()
		if i > 0 {
			pub = stranger.Public()
		}
		s := server.New(server.Config{Hasher: h, Pub: pub, Policy: accessctl.NewPolicy(role)})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := cluster.New(cluster.Config{
		Hasher: h, Pub: signKey(t).Public(), Params: sr.Params, Schema: sr.Schema,
		Policy: accessctl.NewPolicy(role), Spec: set.Spec, Nodes: urls, Replicas: 2,
		// Node 1 answers last, so node 2's refusal of (1,1) is in first.
		HTTP: &http.Client{Transport: refusalOrder{
			late: strings.TrimPrefix(urls[1], "http://"), early: strings.TrimPrefix(urls[2], "http://"),
			returned: make(chan struct{}), once: new(sync.Once),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	epoch, route := coord.RoutingEpoch(), coord.ReplicaSets()

	err = coord.Place(set)
	if err == nil || !strings.Contains(err.Error(), server.ErrInstallInvalid.Error()) {
		t.Fatalf("Place over refusing nodes: %v", err)
	}
	if want := fmt.Sprintf("installing shard 0 replica 1 on %s:", urls[1]); !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name the lowest slot %q", err, want)
	}
	if coord.RoutingEpoch() != epoch || !reflect.DeepEqual(coord.ReplicaSets(), route) {
		t.Fatalf("failed Place moved the routing table: epoch %d→%d, %v", epoch, coord.RoutingEpoch(), coord.ReplicaSets())
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"(*Coordinator).Place", "cluster.fanOut", "(*Coordinator).installSlice"} {
		if strings.Contains(stacks, fn) {
			t.Fatalf("a goroutine in %s outlived Place:\n%s", fn, stacks)
		}
	}
}
