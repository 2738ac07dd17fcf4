package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// Replication errors.
var (
	// ErrNoReplica reports a shard with no usable replica left: every
	// node in its set is quarantined or was already tried this attempt.
	ErrNoReplica = errors.New("cluster: no usable replica for shard")
	// ErrReplicaExists refuses adding a replica to a node already in the
	// shard's set.
	ErrReplicaExists = errors.New("cluster: node already hosts a replica of the shard")
	// ErrLastReplica refuses dropping a shard's only replica — that would
	// take the shard offline; migrate it instead.
	ErrLastReplica = errors.New("cluster: refusing to drop the last replica of a shard")
	// ErrReplicaQuorum aborts a delta when every replica of an affected
	// shard is quarantined — there is no honest copy left to write.
	ErrReplicaQuorum = errors.New("cluster: every replica of an affected shard is quarantined")
	// ErrReplicaDiverged aborts a delta whose replicas staged different
	// edge material for the same shard from the same ops — the copies
	// were not identical going in, and committing would fork them.
	ErrReplicaDiverged = errors.New("cluster: replicas staged divergent edge material")
)

// Node lease states as reported in Stats and /statsz.
const (
	// NodeLive: the node holds a current lease (or has never been
	// heartbeated — a coordinator without StartHeartbeats runs every node
	// as live-by-default, the pre-replication behavior).
	NodeLive = "live"
	// NodeExpired: the node's lease lapsed. It is demoted — skipped by
	// replica selection while any live sibling exists — but never
	// deleted: its slices keep serving pinned streams, and a renewed
	// heartbeat promotes it back.
	NodeExpired = "expired"
	// NodeQuarantined: the node was caught serving material it disagrees
	// with itself about (or its siblings unanimously contradict). It is
	// drained from selection until an operator reinstates it.
	NodeQuarantined = "quarantined"
)

// nodeHealth is the coordinator's view of one node. Lease state is
// advisory routing input — nothing here touches verification, which
// stays with the client-side verifier; a wrong liveness guess costs a
// failover, never a wrong answer.
type nodeHealth struct {
	mu sync.Mutex
	// granted: a lease has been granted at least once; until then the
	// node is live-by-default so coordinators that never heartbeat keep
	// the old behavior.
	granted bool
	expiry  time.Time
	demoted bool
	// quarantined nodes stay out of selection until reinstated.
	quarantined bool
	reason      string
	leaseEpoch  uint64
	renewals    uint64
	hosted      int
	lastErr     string

	// inflight gauges coordinator-side open sub-streams on the node —
	// the least-loaded selection signal. Atomic, outside mu: the hot
	// feed paths touch only this field.
	inflight atomic.Int64
}

// now resolves the injected clock (deterministic lease-expiry tests)
// falling back to the wall clock.
func (c *Coordinator) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

// stateLocked classifies a node and records the demotion transition the
// first time an expired lease is observed — lazily, so an injected-clock
// jump demotes on the next selection without waiting for a heartbeat
// tick. Caller holds nh.mu.
func (c *Coordinator) stateLocked(nh *nodeHealth) string {
	if nh.quarantined {
		return NodeQuarantined
	}
	if !nh.granted || c.now().Before(nh.expiry) {
		return NodeLive
	}
	if !nh.demoted {
		nh.demoted = true
		c.demotions.Add(1)
	}
	return NodeExpired
}

func (c *Coordinator) nodeState(url string) string {
	nh := c.health[url]
	if nh == nil {
		return NodeQuarantined // not ours; never select
	}
	nh.mu.Lock()
	defer nh.mu.Unlock()
	return c.stateLocked(nh)
}

// quarantineNode marks a node suspect and drains it from selection. The
// transition is one-way until Reinstate; repeated evidence does not
// re-count.
func (c *Coordinator) quarantineNode(url, reason string) {
	nh := c.health[url]
	if nh == nil {
		return
	}
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if nh.quarantined {
		return
	}
	nh.quarantined = true
	nh.reason = reason
	c.quarantines.Add(1)
}

// Reinstate clears a node's quarantine — the operator action after the
// node has been repaired or the evidence explained (see
// docs/OPERATIONS.md). Returns false if the node is unknown or was not
// quarantined.
func (c *Coordinator) Reinstate(url string) bool {
	nh := c.health[url]
	if nh == nil {
		return false
	}
	nh.mu.Lock()
	defer nh.mu.Unlock()
	if !nh.quarantined {
		return false
	}
	nh.quarantined = false
	nh.reason = ""
	return true
}

// replicaSet snapshots one shard's replica set (index 0 is the primary).
func (c *Coordinator) replicaSet(shard int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if shard < 0 || shard >= len(c.route) {
		return nil
	}
	return append([]string(nil), c.route[shard]...)
}

// pickReplica chooses the serving replica for one shard: the live,
// non-quarantined member with the fewest coordinator-side in-flight
// sub-streams, skipping anything in avoid (already tried this attempt).
// With no live member left it falls back to an expired one — a lapsed
// lease means "probably down", and probably-down beats certainly-failing
// the query. Quarantined nodes are never selected.
func (c *Coordinator) pickReplica(shard int, avoid map[string]bool) (string, error) {
	set := c.replicaSet(shard)
	if len(set) == 0 || (len(set) == 1 && set[0] == "") {
		return "", fmt.Errorf("%w: shard %d", ErrNoRoute, shard)
	}
	pick := func(state string) string {
		best := ""
		var bestLoad int64
		for _, url := range set {
			if url == "" || avoid[url] || c.nodeState(url) != state {
				continue
			}
			load := c.health[url].inflight.Load()
			if best == "" || load < bestLoad {
				best, bestLoad = url, load
			}
		}
		return best
	}
	if url := pick(NodeLive); url != "" {
		return url, nil
	}
	if url := pick(NodeExpired); url != "" {
		return url, nil
	}
	return "", fmt.Errorf("%w %d (set %v)", ErrNoReplica, shard, set)
}

// writeReplicas returns the replicas a delta must reach for one shard:
// every non-quarantined member. A quarantined copy is excluded (it will
// diverge and be dropped or re-proven by the operator); an expired one
// is not — a write that cannot reach all honest replicas must fail
// rather than fork them.
func (c *Coordinator) writeReplicas(shard int) ([]string, error) {
	set := c.replicaSet(shard)
	out := make([]string, 0, len(set))
	for _, url := range set {
		if url != "" && c.nodeState(url) != NodeQuarantined {
			out = append(out, url)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: shard %d", ErrReplicaQuorum, shard)
	}
	return out, nil
}

// HeartbeatOnce runs one lease round: every node gets a renewal carrying
// the current routing epoch and a per-coordinator sequence number (the
// node ignores reordered stale heartbeats by Seq). A node that answers
// is leased for LeaseTTL from now; one that does not simply keeps its
// old expiry and demotes when it lapses — expiry is the only demotion
// trigger, so a single dropped heartbeat inside the TTL costs nothing.
func (c *Coordinator) HeartbeatOnce() {
	seq := c.hbSeq.Add(1)
	req := wire.LeaseRequest{
		Coordinator: c.advertise,
		Epoch:       c.repoch.Load(),
		TTLMillis:   c.leaseTTL.Milliseconds(),
		Seq:         seq,
	}
	for _, url := range c.nodes {
		nh := c.health[url]
		cl := c.clients[url]
		if nh == nil || cl == nil {
			continue
		}
		resp, err := cl.NodeLease(req)
		nh.mu.Lock()
		if err != nil {
			nh.lastErr = err.Error()
			c.stateLocked(nh) // record the demotion transition promptly
		} else {
			nh.lastErr = ""
			nh.granted = true
			nh.expiry = c.now().Add(c.leaseTTL)
			nh.leaseEpoch = resp.Epoch
			nh.hosted = resp.Hosted
			nh.renewals++
			if nh.demoted {
				nh.demoted = false
				c.promotions.Add(1)
			}
			c.leaseRenewals.Add(1)
		}
		nh.mu.Unlock()
	}
}

// StartHeartbeats renews leases on a background ticker (interval 0
// defaults to LeaseTTL/3, the classic renew-early cadence). The returned
// stop function is idempotent.
func (c *Coordinator) StartHeartbeats(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = c.leaseTTL / 3
		if interval <= 0 {
			interval = 5 * time.Second
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		c.HeartbeatOnce()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.HeartbeatOnce()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ownedEdgesEqual compares only the owned records of two edge snapshots
// (Head[1..2], Tail[0..1]) — the prepare-time replica-agreement
// predicate. The context records (Head[0], Tail[2]) are excluded: a
// replica that co-hosts the neighbouring ops-shard stitches its context
// during prepare, while a sibling that does not waits for the mirror-fix
// phase — an honest, transient difference. Owned records come from the
// ops themselves and have no such excuse.
func ownedEdgesEqual(a, b partition.Edges) bool {
	return partition.SameRecord(&a.Head[1], &b.Head[1]) &&
		partition.SameRecord(&a.Head[2], &b.Head[2]) &&
		partition.SameRecord(&a.Tail[0], &b.Tail[0]) &&
		partition.SameRecord(&a.Tail[1], &b.Tail[1])
}

// edgesEqual compares the full six-record seam material of two edge
// snapshots — the "same staged state" predicate for replica agreement.
func edgesEqual(a, b partition.Edges) bool {
	for i := range a.Head {
		if !partition.SameRecord(&a.Head[i], &b.Head[i]) {
			return false
		}
	}
	for i := range a.Tail {
		if !partition.SameRecord(&a.Tail[i], &b.Tail[i]) {
			return false
		}
	}
	return true
}

// investigateSeam attributes a failed hand-off check to a lying replica,
// if one can be identified without trusting any single node:
//
//  1. Self-contradiction: the node's control-plane edge probe, at the
//     same epoch the hello pinned, disagrees with the hello it just
//     sent. No honest node contradicts itself about one epoch — the
//     sub-stream was corrupted by the node or its path. Quarantine.
//  2. Sibling consensus: the hello claimed a slice digest no sibling
//     replica holds while at least one sibling disagrees. One unanimous
//     dissent is evidence enough to drain the node; its copies remain
//     for the operator, and a wrongly drained honest node costs
//     capacity, never correctness.
//
// Inconclusive evidence (epoch moved between hello and probe, probe
// unreachable, no siblings) quarantines nobody: the pin loop re-pins and
// the client verifier remains the integrity boundary either way.
// Returns true when a node was quarantined.
func (c *Coordinator) investigateSeam(nf *nodeFeed) bool {
	shard, url, hello := nf.req.Shard, nf.url, nf.hello
	cl := c.clients[url]
	if cl == nil {
		return false
	}
	ref := wire.ShardRef{Relation: c.spec.Relation, Shard: shard}
	if resp, err := cl.ShardEdges(ref); err == nil && resp.Epoch == hello.Epoch {
		if !edgesEqual(resp.Edges, hello.Edges) {
			c.quarantineNode(url, fmt.Sprintf(
				"shard %d: sub-stream hello disagrees with the node's own edge probe at epoch %d",
				shard, hello.Epoch))
			return true
		}
	}
	if len(hello.Digest) == 0 {
		return false
	}
	agree, disagree := 0, 0
	for _, sib := range c.replicaSet(shard) {
		if sib == "" || sib == url {
			continue
		}
		scl := c.clients[sib]
		if scl == nil || c.nodeState(sib) == NodeQuarantined {
			continue
		}
		dresp, err := scl.ShardDigest(ref)
		if err != nil {
			continue
		}
		if dresp.Digest.Equal(hello.Digest) {
			agree++
		} else {
			disagree++
		}
	}
	if agree == 0 && disagree > 0 {
		c.quarantineNode(url, fmt.Sprintf(
			"shard %d: hello digest %x contradicted by all %d reachable sibling replicas",
			shard, hello.Digest, disagree))
		return true
	}
	return false
}
