package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"vcqr/internal/obs"
	"vcqr/internal/wire"
)

// Migration errors.
var (
	// ErrMigrateSameNode refuses a rebalance whose target already hosts
	// the shard per the routing table.
	ErrMigrateSameNode = errors.New("cluster: shard already assigned to the target node")
	// ErrMigrateDiverged aborts a cutover whose final digest compare
	// found the source and target copies unequal — the transfer raced
	// something it should not have, or was tampered with.
	ErrMigrateDiverged = errors.New("cluster: migration cutover digest compare failed")
	// ErrMigrateUnsettled aborts a migration whose source would not hold
	// still long enough to copy (sustained delta pressure beyond the
	// catch-up budget).
	ErrMigrateUnsettled = errors.New("cluster: source shard would not settle within the catch-up budget")
	// ErrRecoverIncomplete reports a recovery that found no copy of some
	// shard on any node.
	ErrRecoverIncomplete = errors.New("cluster: recovery found shards with no hosting node")
)

// copyRounds bounds the unlocked catch-up loop: how many times a copy is
// re-taken because a live delta moved the source mid-transfer before the
// migration gives up. The final round always runs under the control
// lock, where deltas wait, so the bound only limits wasted work.
const copyRounds = 3

// RebalanceReport summarizes one completed migration.
type RebalanceReport struct {
	Relation string
	Shard    int
	From, To string
	Records  int
	// CopyRounds counts transfers taken (>1 means live deltas landed on
	// the source mid-copy and the migration caught up).
	CopyRounds int
	// CopyDuration is wall time spent transferring outside the control
	// lock; CutoverDuration is the exclusive window during which deltas
	// waited — the number an operator watches.
	CopyDuration, CutoverDuration time.Duration
	// RoutingEpoch is the table version after the swing.
	RoutingEpoch uint64
	// DrainErr carries a non-fatal failure removing the source copy
	// after the swing (the copy keeps serving pinned streams either
	// way; remove it manually if set).
	DrainErr string
}

// Rebalance migrates one shard's slice to another node while serving:
//
//	copy     — transfer source → target (validated, digest-compared,
//	           AggIndex rebuilt on arrival); live deltas keep landing on
//	           the source, and queries keep routing to it.
//	catch-up — if the source's digest moved during a copy, copy again
//	           (bounded), still without blocking anything.
//	cutover  — take the control lock (deltas wait; queries do not), take
//	           a final copy if the source moved again, prove source and
//	           target identical by digest compare, and swing the routing
//	           table atomically, bumping the routing epoch.
//	drain    — release the lock and remove the source copy. Streams
//	           pinned on it finish unharmed; a query that raced the
//	           swing gets the node's not-hosting refusal and retries
//	           against the fresh table.
//
// On any failure before the swing the routing table is untouched, the
// target copy is removed, and live traffic never noticed.
func (c *Coordinator) Rebalance(shard int, to string) (*RebalanceReport, error) {
	cp, err := c.newSliceCopy("migration", shard, to, ErrMigrateSameNode)
	if err != nil {
		return nil, err
	}
	rel, from := c.spec.Relation, cp.from
	rep := &RebalanceReport{Relation: rel, Shard: shard, From: from, To: to}

	// copy + catch-up, outside the lock: deltas and queries flow.
	copyStart := time.Now()
	if err := cp.settle(); err != nil {
		return nil, cp.abort(err)
	}
	rep.CopyDuration = time.Since(copyStart)
	c.obs.Hist(obs.StageRebalCopy).Observe(rep.CopyDuration)

	// cutover, under the lock: deltas wait, queries do not.
	cutStart := time.Now()
	c.ctl.Lock()
	// Re-validate the premise under the lock: a concurrent rebalance of
	// the same shard may have swung the table while we were copying.
	var target wire.DigestResponse
	if cur, rerr := c.routeFor(shard); rerr != nil || cur != from {
		err = fmt.Errorf("cluster: routing for shard %d changed to %q during the copy (concurrent rebalance?); migration aborted", shard, cur)
	} else {
		target, err = cp.prove()
	}
	if err != nil {
		cp.forget()
		c.ctl.Unlock()
		return nil, err
	}
	rep.CopyRounds = cp.rounds
	rep.Records = target.Records
	c.mu.Lock()
	// Swing the primary; sibling replicas (R > 1) keep their place in
	// the set — Rebalance moves one copy, not the whole set.
	if len(c.route[shard]) == 0 {
		c.route[shard] = []string{to}
	} else {
		c.route[shard][0] = to
	}
	c.mu.Unlock()
	rep.RoutingEpoch = c.repoch.Add(1)
	c.persistRouting()
	c.ctl.Unlock()
	rep.CutoverDuration = time.Since(cutStart)
	c.obs.Hist(obs.StageRebalCutover).Observe(rep.CutoverDuration)
	// Retire the shard's cached entries outside the exclusive window (the
	// invalidation broadcast is network I/O): the copies were proven
	// byte-identical, so an entry served in this gap is still correct —
	// the bump is hygiene for the new hosting, not a correctness race.
	c.bumpShards(shard)
	// Migrations land in the slow log like any request, compared against
	// the threshold by their copy+cutover sum.
	c.obs.Slow.Record(obs.SlowEntry{
		Trace: obs.NewTraceID(), Op: "rebalance",
		Detail: fmt.Sprintf("relation=%s shard=%d from=%s to=%s rounds=%d", rel, shard, from, to, rep.CopyRounds),
		Start:  copyStart, NS: int64(rep.CopyDuration + rep.CutoverDuration),
		Stages: []obs.StageDur{
			{Stage: obs.StageRebalCopy, NS: int64(rep.CopyDuration)},
			{Stage: obs.StageRebalCutover, NS: int64(rep.CutoverDuration)},
		},
	})

	// drain: double-serving ends. In-flight streams hold their pinned
	// epochs; only new pins move to the target.
	if err := cp.fromCl.ShardRemove(cp.ref); err != nil {
		rep.DrainErr = err.Error()
	}
	c.migrations.Add(1)
	return rep, nil
}

// sliceCopy carries one shard's slice from its primary to another node:
// the copy → bounded catch-up → digest proof sequence a migration and a
// replica join share. noun names the operation in error texts.
type sliceCopy struct {
	c            *Coordinator
	noun         string
	shard        int
	ref          wire.ShardRef
	from, to     string
	fromCl, toCl *wire.Client
	// rounds counts transfers taken; settled is the source digest of the
	// last round that saw the source hold still (nil: none did).
	rounds  int
	settled *wire.DigestResponse
}

// newSliceCopy resolves the shard's primary and the target, refusing
// with exists when the routing table already lists the target.
func (c *Coordinator) newSliceCopy(noun string, shard int, to string, exists error) (*sliceCopy, error) {
	toCl, err := c.client(to)
	if err != nil {
		return nil, err
	}
	from, err := c.routeFor(shard)
	if err != nil {
		return nil, err
	}
	if slices.Contains(c.replicaSet(shard), to) {
		return nil, fmt.Errorf("%w: shard %d at %s", exists, shard, to)
	}
	fromCl, err := c.client(from)
	if err != nil {
		return nil, err
	}
	return &sliceCopy{c: c, noun: noun, shard: shard, from: from, to: to, fromCl: fromCl, toCl: toCl,
		ref: wire.ShardRef{Relation: c.spec.Relation, Shard: shard}}, nil
}

func (sc *sliceCopy) sourceDigest() (wire.DigestResponse, error) {
	d, err := sc.fromCl.ShardDigest(sc.ref)
	if err != nil {
		err = fmt.Errorf("cluster: %s source digest: %w", sc.noun, err)
	}
	return d, err
}

// transfer pipes the slice from the source node to the target node. The
// target validates structure, every locally-checkable signature and the
// slice digest before hosting (and rebuilds the crypto index on
// publish), so a tampered or truncated transfer never installs.
func (sc *sliceCopy) transfer(phase string) error {
	body, err := sc.fromCl.ShardFetch(sc.ref)
	if err == nil {
		_, err = sc.toCl.ShardInstall(body)
		body.Close()
	}
	if err != nil {
		return fmt.Errorf("cluster: %s %stransfer: %w", sc.noun, phase, err)
	}
	sc.rounds++
	return nil
}

// settle copies outside the control lock, re-taking the copy (bounded)
// while live deltas keep moving the source mid-transfer. Nothing waits
// on it: deltas and queries flow.
func (sc *sliceCopy) settle() error {
	for round := 0; round < copyRounds && sc.settled == nil; round++ {
		before, err := sc.sourceDigest()
		if err != nil {
			return err
		}
		if err := sc.transfer(""); err != nil {
			return err
		}
		after, err := sc.sourceDigest()
		if err != nil {
			return err
		}
		if after.Digest.Equal(before.Digest) {
			sc.settled = &after
		}
	}
	return nil
}

// prove runs under the control lock, where deltas wait: one final copy
// if the source moved since it settled, then the decisive digest compare
// — the target must hold exactly the bytes the source holds. It returns
// the target's digest summary.
func (sc *sliceCopy) prove() (wire.DigestResponse, error) {
	current, err := sc.sourceDigest()
	if err != nil {
		return current, err
	}
	if sc.settled == nil || !current.Digest.Equal(sc.settled.Digest) {
		// With the delta path quiesced the source must hold still; if it
		// does not, something other than deltas is mutating it and the
		// copy must not guess.
		if err := sc.transfer("catch-up "); err != nil {
			return current, err
		}
		again, err := sc.sourceDigest()
		if err != nil {
			return again, err
		}
		if !again.Digest.Equal(current.Digest) {
			return again, fmt.Errorf("%w: shard %d", ErrMigrateUnsettled, sc.shard)
		}
	}
	target, err := sc.toCl.ShardDigest(sc.ref)
	if err != nil {
		return target, fmt.Errorf("cluster: %s target digest: %w", sc.noun, err)
	}
	if !target.Digest.Equal(current.Digest) {
		return target, fmt.Errorf("%w: shard %d: source %x target %x",
			ErrMigrateDiverged, sc.shard, current.Digest, target.Digest)
	}
	return target, nil
}

// forget removes the target's partial copy after a failure — unless the
// routing table lists the target meanwhile (a concurrent duplicate of
// this operation already swung or joined there): removing a routed copy
// would take it out from under live traffic. The caller holds c.ctl,
// which is what makes the check and the removal one step against that
// concurrent swing.
func (sc *sliceCopy) forget() {
	if !slices.Contains(sc.c.replicaSet(sc.shard), sc.to) {
		sc.toCl.ShardRemove(sc.ref)
	}
}

// abort is forget for failures outside the control lock.
func (sc *sliceCopy) abort(err error) error {
	sc.c.ctl.Lock()
	defer sc.c.ctl.Unlock()
	sc.forget()
	return err
}

// RecoveryReport summarizes a routing-table rebuild.
type RecoveryReport struct {
	// Assigned maps shard → primary node URL adopted into the routing
	// table; Replicas maps shard → the full adopted replica set
	// (primary first).
	Assigned map[int]string
	Replicas map[int][]string
	// DroppedCopies lists diverged copies removed from losing nodes
	// ("shard@node"). Copies identical to the winner are NOT dropped —
	// under replication, double-hosting is the normal state, and every
	// digest-identical copy is adopted into the shard's replica set.
	DroppedCopies []string
	// Diverged lists shards whose copies disagreed by digest — evidence
	// of a migration interrupted between copy and swing. The copy that
	// has been written to since its install wins; verify with the
	// operator handbook's recovery checklist.
	Diverged []int
	// Ambiguous lists diverged shards where neither the
	// written-since-install signal nor the persisted routing log singled
	// out one copy (both copies took writes and no log names a primary).
	// The keep is deterministic (configured node order) but must be
	// operator-verified.
	Ambiguous []int
	// OpenStaged lists relations whose two-phase delta commit was begun
	// but never resolved per the coordinator's durable log — crash
	// windows where some nodes may hold the committed state and others
	// the pre-delta state. Divergence Recover observes on these
	// relations is explained, not Byzantine.
	OpenStaged []string `json:",omitempty"`
}

// Recover rebuilds the routing table by inventorying every node — the
// restart path after a coordinator crash. Every shard must be hosted
// somewhere; a shard hosted on several nodes is resolved by digest
// compare. Identical copies are a replica set — the normal state under
// R-way replication — and are all adopted; with a durable coordinator
// log configured, the logged table decides which copy is primary (a
// deterministic lookup), otherwise configured node order does.
// Divergent copies keep the one whose current digest differs from its
// install digest — the copy the cluster has been writing to — and drop
// the idle transfer (an interrupted migration's leftover). If that
// signal does not single out one copy, the logged primary wins; only
// when neither source decides is the shard reported Ambiguous.
func (c *Coordinator) Recover() (*RecoveryReport, error) {
	rel := c.spec.Relation
	type copyAt struct {
		url string
		hs  wire.HostedShard
	}
	candidates := map[int][]copyAt{}
	// The persisted routing table, when a coordinator log is configured:
	// the deterministic lookup that replaces node-order guessing for
	// copies the digests cannot tell apart.
	var logRoute [][]string
	if c.clog != nil {
		if _, r, ok := c.clog.Routing(); ok {
			logRoute = r
		}
	}
	loggedSet := func(shard int) []string {
		if shard < len(logRoute) {
			return logRoute[shard]
		}
		return nil
	}
	for _, url := range c.nodes {
		cl, err := c.client(url)
		if err != nil {
			return nil, err
		}
		inv, err := cl.Hosted()
		if err != nil {
			return nil, fmt.Errorf("cluster: inventorying %s: %w", url, err)
		}
		info, hosts := inv.Relations[rel]
		if !hosts {
			continue
		}
		if !info.Spec.Same(c.spec) {
			return nil, fmt.Errorf("%w: %s hosts v%d, coordinator has v%d",
				ErrSpecMismatch, url, info.Spec.Version, c.spec.Version)
		}
		for _, hs := range info.Shards {
			candidates[hs.Shard] = append(candidates[hs.Shard], copyAt{url: url, hs: hs})
		}
	}

	rep := &RecoveryReport{Assigned: map[int]string{}, Replicas: map[int][]string{}}
	assign := make([][]string, c.spec.K())
	missing := []int{}
	for shard := 0; shard < c.spec.K(); shard++ {
		copies := candidates[shard]
		if len(copies) == 0 {
			missing = append(missing, shard)
			continue
		}
		// Order copies by the persisted replica set (primary first), then
		// configured node order for unlogged hosts: when digests agree —
		// including the equal-digest, divergent-deltas-since-install case
		// that node order used to guess on — the adopted primary is the
		// one the logged table names.
		if pset := loggedSet(shard); len(pset) > 0 {
			rank := map[string]int{}
			for i, u := range pset {
				rank[u] = i
			}
			sort.SliceStable(copies, func(a, b int) bool {
				ra, oka := rank[copies[a].url]
				rb, okb := rank[copies[b].url]
				switch {
				case oka && okb:
					return ra < rb
				case oka:
					return true
				default:
					return false
				}
			})
		}
		winner := copies[0]
		if len(copies) > 1 {
			diverged := false
			for _, cp := range copies[1:] {
				if !cp.hs.Digest.Equal(winner.hs.Digest) {
					diverged = true
				}
			}
			if diverged {
				rep.Diverged = append(rep.Diverged, shard)
				// The written-to copy is the one whose content moved since
				// its install (absolute delta counters are incomparable
				// across copies with different install times). Exactly one
				// such copy → it wins; otherwise the logged primary decides
				// (copies[0] after the persisted-order sort); only with
				// neither signal is the keep flagged for the operator.
				written := []copyAt{}
				for _, cp := range copies {
					if len(cp.hs.InstallDigest) > 0 && !cp.hs.Digest.Equal(cp.hs.InstallDigest) {
						written = append(written, cp)
					}
				}
				loggedPrimary := false
				if pset := loggedSet(shard); len(pset) > 0 {
					for _, cp := range copies {
						if cp.url == pset[0] {
							loggedPrimary = true
						}
					}
				}
				switch {
				case len(written) == 1:
					winner = written[0]
				case loggedPrimary:
					// winner already is the logged primary via the sort.
				default:
					rep.Ambiguous = append(rep.Ambiguous, shard)
				}
			}
		}
		// Every copy digest-identical to the winner joins the replica
		// set; diverged losers are dropped.
		set := []string{winner.url}
		for _, cp := range copies {
			if cp.url == winner.url {
				continue
			}
			if cp.hs.Digest.Equal(winner.hs.Digest) {
				set = append(set, cp.url)
				continue
			}
			if cl, err := c.client(cp.url); err == nil {
				if err := cl.ShardRemove(wire.ShardRef{Relation: rel, Shard: shard}); err == nil {
					rep.DroppedCopies = append(rep.DroppedCopies, fmt.Sprintf("%d@%s", shard, cp.url))
				}
			}
		}
		assign[shard] = set
		rep.Assigned[shard] = winner.url
		rep.Replicas[shard] = append([]string(nil), set...)
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		return rep, fmt.Errorf("%w: shards %v", ErrRecoverIncomplete, missing)
	}
	c.mu.Lock()
	c.route = assign
	c.mu.Unlock()
	c.repoch.Add(1)
	c.persistRouting()
	// Recovery adopts whatever the nodes hold — possibly bytes written
	// while this coordinator was down — so every shard's cached entries
	// are suspect.
	c.bumpAllShards()
	// Surface (and close) delta commits the log says were in flight when
	// the previous incarnation died: the inventory above already adopted
	// whatever state each node durably committed, so the ambiguity is
	// resolved — but the operator should know it existed.
	if c.clog != nil {
		rep.OpenStaged = slices.Sorted(maps.Keys(c.clog.OpenStaged()))
		for _, relName := range rep.OpenStaged {
			if err := c.clog.LogStagedEnd(relName, false); err != nil {
				c.persistFailures.Add(1)
			}
		}
	}
	sort.Ints(rep.Diverged)
	sort.Ints(rep.Ambiguous)
	sort.Strings(rep.DroppedCopies)
	return rep, nil
}

// AddReplica copies a shard's slice from its primary to a new node and
// joins that node to the shard's replica set — the grow-R path, and the
// repair path after a replica was dropped. The copy follows the
// Rebalance discipline (bounded catch-up outside the control lock, the
// decisive digest compare under it) so the joined copy is proven
// byte-identical at join time; no routing swing happens — the primary
// stays, the set grows.
func (c *Coordinator) AddReplica(shard int, to string) error {
	cp, err := c.newSliceCopy("replica", shard, to, ErrReplicaExists)
	if err != nil {
		return err
	}
	if err := cp.settle(); err != nil {
		return cp.abort(err)
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	if _, err = cp.prove(); err == nil {
		c.mu.Lock()
		if slices.Contains(c.route[shard], to) {
			err = fmt.Errorf("%w: shard %d at %s", ErrReplicaExists, shard, to)
		} else {
			c.route[shard] = append(c.route[shard], to)
		}
		c.mu.Unlock()
	}
	if err != nil {
		cp.forget()
		return err
	}
	c.repoch.Add(1)
	c.persistRouting()
	return nil
}

// DropReplica removes one node from a shard's replica set and drains its
// copy. Dropping the primary promotes the next sibling. The last replica
// cannot be dropped — that is what Rebalance (move) is for.
func (c *Coordinator) DropReplica(shard int, url string) error {
	if _, err := c.client(url); err != nil {
		return err
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	c.mu.Lock()
	if shard < 0 || shard >= len(c.route) {
		c.mu.Unlock()
		return fmt.Errorf("%w: shard %d of %d", ErrNoRoute, shard, len(c.route))
	}
	set := c.route[shard]
	idx := -1
	for i, u := range set {
		if u == url {
			idx = i
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: %s does not host a replica of shard %d", url, shard)
	}
	if len(set) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("%w: shard %d", ErrLastReplica, shard)
	}
	c.route[shard] = append(append([]string(nil), set[:idx]...), set[idx+1:]...)
	c.mu.Unlock()
	c.repoch.Add(1)
	c.persistRouting()
	// Drain: streams pinned on the dropped copy finish unharmed; only
	// new pins avoid it. Removal is best-effort — an unreachable node's
	// copy stays where it is until the node returns or is rebuilt.
	if cl, err := c.client(url); err == nil {
		cl.ShardRemove(wire.ShardRef{Relation: c.spec.Relation, Shard: shard})
	}
	return nil
}
