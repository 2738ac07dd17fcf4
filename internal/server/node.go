package server

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// This file is the hosting table, the server's one registry: the server
// side of the distributed tier (internal/cluster), the in-process
// partitioned relation and the plain relation alike. A node table hosts
// shard slices of one relation — installed, served and removed one at a
// time by a coordinator, all K at once by AddPartition, or the one slice
// of a K = 1 spec by AddRelation. Each hosted slice is an immutable
// snapshot with its own epoch: a delta to shard i clones and swaps O(n/K)
// records, and a stream keeps verifying against the slices it pinned
// whichever shards cut over mid-drain. The server answers /stream and
// /delta for a relation when its table hosts every shard of the spec;
// both pin or publish under the table's lock, so a read sees a delta
// entirely or not at all. The coordinator-facing RPCs answer only for
// tables a coordinator filled (coordTable), never for AddPartition's or
// AddRelation's.
//
// The node stays untrusted exactly like a whole publisher: nothing it
// serves is believed without verification, so the coordinator/node
// protocol needs integrity *signals* (slice digests, seam material), not
// integrity guarantees. What the node does owe the control plane is
// fail-fast honesty about its own state — refusing shards it does not
// host (the stale-routing signal), refusing transfers that do not
// validate, and staging deltas all-or-nothing.
//
// Distributed deltas run in two phases because mirror stitching spans
// processes: prepare applies and validates everything checkable locally
// and publishes nothing; the coordinator then pushes cross-node mirror
// fixes, re-checks every affected seam from shipped edge material, and
// only then commits each node's staged slices. A crashed coordinator
// leaves at most a staged transaction, which the next prepare discards.

// Hosting errors.
var (
	// ErrNodeNotHosting refuses a shard request for a shard this node
	// does not host. The message embeds wire.NotHostingMsg so the
	// coordinator recognizes the stale-routing signal and re-reads its
	// routing table.
	ErrNodeNotHosting = errors.New("server: " + wire.NotHostingMsg)
	// ErrSpecVersion refuses an install whose partition spec disagrees
	// with the layout this node already hosts slices of.
	ErrSpecVersion = errors.New("server: partition spec version mismatch")
	// ErrStagedToken refuses a staged-delta operation whose token does
	// not match the staged transaction (a crashed or confused
	// coordinator).
	ErrStagedToken = errors.New("server: staged delta token mismatch")
	// ErrInstallInvalid refuses a shard install that fails validation.
	ErrInstallInvalid = errors.New("server: shard install failed validation")
	// ErrShardUnderflow rejects a delta that would leave a shard with no
	// owned records; shard rebalancing is an owner-side operation, not
	// something a live delta may force.
	ErrShardUnderflow = errors.New("server: delta would leave a shard without records; repartition required")
	// ErrAlreadyHosted rejects hosting two publications under one name,
	// a re-publish (AddRelation or AddPartition on a hosted name) and a
	// shard install over a relation this process published itself.
	ErrAlreadyHosted = errors.New("server: relation name already hosted")
)

// hostedShard is the per-slice bookkeeping of the hosting table.
type hostedShard struct {
	// installDigest is the slice digest at install time. Comparing it
	// with the current digest tells whether this copy has been written
	// to since it was installed — the recovery signal that identifies
	// the written-to copy of a double-hosted shard (coordinator crash
	// mid-migration) regardless of either copy's prior history.
	installDigest hashx.Digest
	// sl is the published slice and epoch the global cutover count at its
	// publish; digest is sl's slice digest, nil until viewHosted first
	// needs it when the publish did not hash the slice anyway, so
	// sub-stream hellos claim the slice's identity without an O(slice)
	// rehash per stream. Decisive compares (migration cutover) keep
	// recomputing from bytes via ShardDigestInfo. run is sl's running
	// slice digests (partition.SliceDigestFrom), kept when a commit hashed
	// sl so the next commit hashes only from its first changed entry; nil
	// otherwise, and always nil while digest is. publish is the one writer
	// of run; viewHosted may fill a nil digest. All are written under
	// nt.mu only, which every pin takes.
	sl     *core.SignedRelation
	epoch  uint64
	digest hashx.Digest
	run    []byte
	// deltas counts update batches committed against the slice since it
	// was installed on this node.
	deltas  atomic.Uint64
	streams atomic.Uint64
}

// stagedTx is one prepared-but-unpublished distributed delta.
//
// On a durable node its commit plan (commitPlan: the post-delta digests
// and the WAL record) is built off the request path by one goroutine the
// transaction owns, started when the prepare reply is built and again by
// each mirror fix for the shard it changed (replan), so a commit is its
// WAL append. The goroutine writes plans and closes planned; everything
// else reads plans only after wait, and every exit — commit, abort, a
// later prepare or token-0 mirror fix discarding the transaction, the
// in-process /delta — waits first, so no plan goroutine outlives its
// transaction.
type stagedTx struct {
	token   uint64
	slices  map[int]*core.SignedRelation
	plans   map[int]*commitPlan
	planned chan struct{} // nil until a plan goroutine starts
}

func newStagedTx(token uint64, slices map[int]*core.SignedRelation) *stagedTx {
	return &stagedTx{token: token, slices: slices, plans: map[int]*commitPlan{}}
}

// wait returns once the transaction's plan goroutine, if any, has
// returned. Nil-safe.
func (tx *stagedTx) wait() {
	if tx != nil && tx.planned != nil {
		<-tx.planned
	}
}

// commitPlan is one staged shard's durable commit, built ahead of the
// commit (planShard): the post-delta digest and running digests, and the
// WAL record. old is the published slice it was planned against; a
// commit that finds another published re-plans.
type commitPlan struct {
	old    *core.SignedRelation
	digest hashx.Digest
	run    []byte
	rec    store.PlannedShard
}

// nodeTable is the hosting state of one relation.
type nodeTable struct {
	spec   partition.Spec
	params core.Params
	schema relation.Schema
	// local marks a table hostAll published (AddPartition, AddRelation):
	// this process's own relation, which the coordinator-facing RPCs treat
	// as not hosted. Set at creation, never written after.
	local bool

	// mu serializes installs, removes, delta staging and commits for this
	// relation; a read holds it only while it pins slices.
	mu     sync.Mutex
	hosted map[int]*hostedShard
	staged *stagedTx
}

// dropStaged discards the staged transaction once its plan goroutine has
// returned. The caller holds nt.mu.
func (nt *nodeTable) dropStaged() {
	nt.staged.wait()
	nt.staged = nil
}

// nodeFor returns the node table for a relation, or nil.
func (s *Server) nodeFor(name string) *nodeTable {
	s.nodeMu.RLock()
	nt := s.nodeRels[name]
	s.nodeMu.RUnlock()
	return nt
}

// coordTable returns the node table a coordinator filled for a relation,
// or nil. The node-tier RPCs are unauthenticated, so they answer for a
// local table as for a relation this node does not host: no caller can
// fetch, remove, re-cut or stage a relation the process published itself.
func (s *Server) coordTable(name string) *nodeTable {
	if nt := s.nodeFor(name); nt != nil && !nt.local {
		return nt
	}
	return nil
}

// openTable returns the relation's node table with nt.mu held, creating
// it from spec and sr's params and schema when the relation has none —
// the one table-creation path of InstallShard, recoverSlice, AddPartition
// and AddRelation. A local table (hostAll's) is created only fresh, and
// an install or recovery into one is refused. nodeMu is held across the
// check and the insert.
func (s *Server) openTable(name string, spec partition.Spec, sr *core.SignedRelation, local bool) (*nodeTable, error) {
	s.nodeMu.Lock()
	defer s.nodeMu.Unlock()
	nt := s.nodeRels[name]
	if nt != nil && (local || nt.local) {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyHosted, name)
	}
	if nt == nil {
		nt = &nodeTable{spec: spec, params: sr.Params, schema: sr.Schema, local: local, hosted: map[int]*hostedShard{}}
		s.nodeRels[name] = nt
	}
	nt.mu.Lock()
	return nt, nil
}

// served returns the relation's node table with nt.mu held when it hosts
// every shard of its spec — the one condition under which the server
// answers /stream and /delta from it — and nil otherwise, so a partial
// host refuses both as it refuses a relation it never heard of.
func (s *Server) served(name string) *nodeTable {
	nt := s.nodeFor(name)
	if nt == nil {
		return nil
	}
	nt.mu.Lock()
	if nt.servesAll() {
		return nt
	}
	nt.mu.Unlock()
	return nil
}

// servesAll reports whether every shard of the spec is hosted. Caller
// holds nt.mu.
func (nt *nodeTable) servesAll() bool {
	for i := range nt.spec.K() {
		if nt.hosted[i] == nil {
			return false
		}
	}
	return true
}

// AddPartition publishes a partitioned relation: a fresh node table that
// hosts every shard slice, each with an independent epoch. With validate
// set, the whole set is checked first — hand-off agreement, span
// containment, and the full digest/signature validation of the stitched
// global sequence — exactly what a publisher owes an untrusted owner
// feed.
func (s *Server) AddPartition(set *partition.Set, validate bool) error {
	if validate {
		if err := set.Validate(s.h, s.pub); err != nil {
			return err
		}
	} else if err := set.Spec.Validate(); err != nil {
		return err
	}
	if len(set.Slices) != set.Spec.K() {
		return fmt.Errorf("%w: %d slices for %d shards", partition.ErrSetInvalid, len(set.Slices), set.Spec.K())
	}
	return s.hostAll(set.Spec, set.Slices)
}

// hostAll publishes every slice of spec into a fresh local table —
// AddPartition's and AddRelation's one hosting step.
func (s *Server) hostAll(spec partition.Spec, sls []*core.SignedRelation) error {
	for i, sl := range sls {
		if err := sl.EnsureAggIndex(s.h, s.pub); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	nt, err := s.openTable(spec.Relation, spec, sls[0], true)
	if err != nil {
		return err
	}
	defer nt.mu.Unlock()
	for i, sl := range sls {
		dg := partition.SliceDigest(s.h, sl)
		nt.hosted[i] = &hostedShard{installDigest: dg}
		s.publish(nt.hosted[i], sl, dg, nil)
	}
	return nil
}

// publish swaps sl in as hs's slice at a fresh epoch, with its digest
// (nil: viewHosted computes it on first use) and its running digests
// (nil: the next commit hashes the whole slice; dropped with a nil
// digest). It is the one writer of hs.run. sl carries a crypto index
// (core.AggIndex) current for the server's key, the one source of every
// condensed signature served from it: ingest, install and recovery build
// it before anything is logged or published (SignedRelation.EnsureAggIndex,
// which refuses a slice that cannot be indexed), and a delta's ApplyOps and
// mirror stitches keep it current or refuse the delta. The caller holds
// nt.mu.
func (s *Server) publish(hs *hostedShard, sl *core.SignedRelation, digest hashx.Digest, run []byte) uint64 {
	if digest == nil {
		run = nil
	}
	hs.sl, hs.digest, hs.run, hs.epoch = sl, digest, run, s.epochs.Add(1)
	return hs.epoch
}

// hostedStream answers q from a table served returned locked: it plans
// and pins every covering slice, plus the one preceding the cover (the
// empty-range predecessor material), in that one critical section, then
// releases it and launches the fan-out. Deltas stage and publish under
// the same lock, so the pinned slices are one cut of the chain and no
// hand-off needs re-checking.
func (s *Server) hostedStream(nt *nodeTable, roleName string, q engine.Query, opts engine.StreamOpts) (engine.ResultStream, error) {
	role, eff, err := engine.PlanQuery(s.policy, nt.params, nt.schema, roleName, q)
	if err != nil {
		nt.mu.Unlock()
		return nil, err
	}
	sub := nt.spec.Decompose(eff.KeyLo, eff.KeyHi)
	cover := make([]engine.ShardSlice, len(sub))
	for i, sr := range sub {
		hs := nt.hosted[sr.Shard]
		cover[i] = engine.ShardSlice{Shard: sr.Shard, SR: hs.sl, Lo: sr.Lo, Hi: sr.Hi}
		hs.streams.Add(1)
	}
	var prev engine.PrevPin
	if first := sub[0].Shard; first > 0 {
		sl := nt.hosted[first-1].sl
		prev = func() (*core.SignedRelation, bool) { return sl, true }
	}
	nt.mu.Unlock()
	return s.exec.FanoutStream(role, eff, cover, prev, opts)
}

// applyHostedDelta runs the node tier's delta protocol with every shard
// hosted here, under the nt.mu served took: prepare (stageDelta — every
// mirror stitch is local and every touched neighbourhood validates
// against fresh mirrors), the coordinator's seam check over the staged
// edge material, then the node's commit. A failure anywhere publishes
// nothing.
func (s *Server) applyHostedDelta(nt *nodeTable, d delta.Delta) (uint64, error) {
	defer nt.mu.Unlock()
	news, err := s.stageDelta(nt, d)
	if err != nil {
		return 0, err
	}
	// Per-shard validation skipped the signatures of context records (each
	// slice sees only its side of a hand-off). Re-prove both hand-off
	// signatures of every seam beside a modified shard: a delta that
	// re-signed one side of a boundary without the matching neighbour op
	// dies here, before anything publishes.
	edges := func(i int) partition.Edges {
		if sl := news[i]; sl != nil {
			return partition.EdgesOf(sl)
		}
		return partition.EdgesOf(nt.hosted[i].sl)
	}
	for x := 0; x+1 < nt.spec.K(); x++ { // seam x is between shards x and x+1
		if news[x] == nil && news[x+1] == nil {
			continue
		}
		if err := partition.CheckSeam(s.h, s.pub, nt.params, edges(x), edges(x+1)); err != nil {
			return 0, fmt.Errorf("server: delta rejected: seam %d-%d: %w", x, x+1, err)
		}
	}
	nt.dropStaged() // whatever a coordinator staged is stale after this commit
	return s.commitSlices(nt, d.Relation, news, nil)
}

// InstallShard hosts one shard slice received over a transfer stream.
// The slice is validated as far as a slice can be: span containment,
// delimiter placement, every entry's digest material, and the signature
// of every record whose chain neighbours travel with the slice (all but
// the two context records — their signatures bind records on other
// shards and are re-checked at seam level by the control plane).
// Reinstalling a hosted shard replaces it (migration catch-up);
// in-flight streams keep their pinned epochs.
func (s *Server) InstallShard(man wire.ShardManifest, sr *core.SignedRelation) error {
	if err := man.Spec.Validate(); err != nil {
		return err
	}
	if man.Shard < 0 || man.Shard >= man.Spec.K() {
		return fmt.Errorf("%w: shard %d of %d", ErrInstallInvalid, man.Shard, man.Spec.K())
	}
	if err := s.validateSlice(man.Spec, man.Shard, sr); err != nil {
		return fmt.Errorf("%w: %v", ErrInstallInvalid, err)
	}
	if err := sr.EnsureAggIndex(s.h, s.pub); err != nil {
		return fmt.Errorf("%w: %w", ErrInstallInvalid, err)
	}
	name := man.Spec.Relation
	// The spec check-and-adopt and the hosting write share one nt.mu
	// critical section: every other reader of nt.spec holds nt.mu too.
	nt, err := s.openTable(name, man.Spec, sr, false)
	if err != nil {
		return err
	}
	defer nt.mu.Unlock()
	if !nt.spec.Same(man.Spec) {
		if man.Spec.Version <= nt.spec.Version {
			return fmt.Errorf("%w: hosting v%d, install carries v%d", ErrSpecVersion, nt.spec.Version, man.Spec.Version)
		}
		if len(nt.hosted) > 1 || (len(nt.hosted) == 1 && nt.hosted[man.Shard] == nil) {
			// Slices of the old layout cannot coexist with the new one.
			return fmt.Errorf("%w: still hosting v%d slices", ErrSpecVersion, nt.spec.Version)
		}
		nt.spec = man.Spec
	}
	// Append-before-acknowledge: the install lands in the durable WAL
	// (synced) before it is published or the coordinator hears success.
	// A failed append refuses the install — the node never acknowledges
	// state a SIGKILL would lose.
	dg := partition.SliceDigest(s.h, sr)
	if s.nstore != nil {
		if err := s.nstore.LogInstall(name, man.Spec, man.Shard, sr, dg); err != nil {
			return fmt.Errorf("server: install not durable: %w", err)
		}
	}
	nt.hosted[man.Shard] = &hostedShard{installDigest: dg}
	s.publish(nt.hosted[man.Shard], sr, dg, nil)
	s.installs.Add(1)
	return nil
}

// validateSlice checks what a slice can prove about itself: structural
// shape, span containment, digest material everywhere, and every
// locally-checkable signature.
func (s *Server) validateSlice(spec partition.Spec, shard int, sr *core.SignedRelation) error {
	n := len(sr.Recs)
	if n < 3 {
		return fmt.Errorf("slice has %d entries", n)
	}
	if shard == 0 && sr.Recs[0].Kind != core.KindDelimLeft {
		return fmt.Errorf("first shard without left delimiter")
	}
	if shard == spec.K()-1 && sr.Recs[n-1].Kind != core.KindDelimRight {
		return fmt.Errorf("last shard without right delimiter")
	}
	lo, hi := spec.Span(shard)
	for j := 1; j < n-1; j++ {
		if sr.Recs[j].Kind != core.KindRecord {
			return fmt.Errorf("interior entry %d is a %v", j, sr.Recs[j].Kind)
		}
		if k := sr.Recs[j].Key(); k < lo || k > hi {
			return fmt.Errorf("owned key %d outside span [%d,%d]", k, lo, hi)
		}
	}
	// A context record's signature binds records on other shards.
	return sr.CheckEntries(s.h, s.pub, func(j int) bool {
		return (j != 0 && j != n-1) || sr.Recs[j].Kind != core.KindRecord
	})
}

// RemoveShard drops a hosted slice. In-flight streams keep their pinned
// epochs; new requests for the shard get the not-hosting refusal.
func (s *Server) RemoveShard(ref wire.ShardRef) error {
	nt := s.coordTable(ref.Relation)
	if nt == nil {
		return fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.hosted[ref.Shard] == nil {
		return fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	if s.nstore != nil {
		if err := s.nstore.LogRemove(ref.Relation, ref.Shard); err != nil {
			return fmt.Errorf("server: remove not durable: %w", err)
		}
	}
	delete(nt.hosted, ref.Shard)
	s.epochs.Add(1)
	return nil
}

// viewHosted pins a slice of a coordinator's table, returning its
// bookkeeping, the pinned snapshot, its epoch and its slice digest as one
// consistent set: every publish swaps slice, epoch and digest inside the
// same nt.mu critical section this read holds, so the digest always names
// exactly the returned slice. It is the digest's one reader, so it hashes
// a slice whose publish left the digest unset, once per publish.
func (s *Server) viewHosted(ref wire.ShardRef) (*hostedShard, *core.SignedRelation, uint64, hashx.Digest, error) {
	nt := s.coordTable(ref.Relation)
	if nt == nil {
		return nil, nil, 0, nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	hs := nt.hosted[ref.Shard]
	if hs == nil {
		return nil, nil, 0, nil, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, ref.Shard, ref.Relation)
	}
	if hs.digest == nil {
		hs.digest = partition.SliceDigest(s.h, hs.sl)
	}
	return hs, hs.sl, hs.epoch, hs.digest, nil
}

// ShardEdges returns a hosted slice's seam material.
func (s *Server) ShardEdges(ref wire.ShardRef) (wire.EdgeResponse, error) {
	_, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return wire.EdgeResponse{}, err
	}
	return wire.EdgeResponse{Epoch: epoch, Edges: partition.EdgesOf(sl)}, nil
}

// ShardDigestInfo returns a hosted slice's digest summary.
func (s *Server) ShardDigestInfo(ref wire.ShardRef) (wire.DigestResponse, error) {
	hs, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return wire.DigestResponse{}, err
	}
	return wire.DigestResponse{
		Epoch:         epoch,
		Digest:        partition.SliceDigest(s.h, sl),
		InstallDigest: hs.installDigest,
		Records:       sl.Len(),
		Deltas:        hs.deltas.Load(),
	}, nil
}

// HostedInventory lists everything this node hosts, with per-slice
// digests — the discovery input of coordinator recovery.
func (s *Server) HostedInventory() wire.HostedResponse {
	out := wire.HostedResponse{Relations: map[string]wire.HostedInfo{}}
	s.nodeMu.RLock()
	names := slices.Sorted(maps.Keys(s.nodeRels))
	s.nodeMu.RUnlock()
	for _, name := range names {
		nt := s.coordTable(name)
		if nt == nil {
			continue
		}
		nt.mu.Lock()
		shards := slices.Sorted(maps.Keys(nt.hosted))
		spec := nt.spec
		nt.mu.Unlock()
		info := wire.HostedInfo{Spec: spec}
		for _, i := range shards {
			dg, err := s.ShardDigestInfo(wire.ShardRef{Relation: name, Shard: i})
			if err != nil {
				continue // removed between listing and probing
			}
			info.Shards = append(info.Shards, wire.HostedShard{
				Shard: i, Epoch: dg.Epoch, Digest: dg.Digest, InstallDigest: dg.InstallDigest,
				Records: dg.Records, Deltas: dg.Deltas,
			})
		}
		out.Relations[name] = info
	}
	return out
}

// WriteShardTo streams a hosted slice as transfer frames — the fetch
// half of a migration.
func (s *Server) WriteShardTo(w io.Writer, ref wire.ShardRef) error {
	hs, sl, epoch, _, err := s.viewHosted(ref)
	if err != nil {
		return err
	}
	nt := s.nodeFor(ref.Relation)
	nt.mu.Lock()
	spec := nt.spec
	nt.mu.Unlock()
	man := wire.ShardManifest{Spec: spec, Shard: ref.Shard, Epoch: epoch, Deltas: hs.deltas.Load()}
	return wire.WriteShardTransfer(w, s.h, man, sl)
}

// --- leases / heartbeats ----------------------------------------------

// nodeLease is the node's view of its most recent coordinator lease.
// Leases are purely advisory on the node: it serves whatever it hosts
// regardless (an expired lease means the *coordinator* stops routing
// here, not that the node goes dark), so this state exists for /statsz
// and operators, never for admission control.
type nodeLease struct {
	mu          sync.Mutex
	coordinator string
	epoch       uint64
	seq         uint64
	ttl         time.Duration
	granted     time.Time
	renewals    uint64
}

// NodeLeaseStat is the /statsz rendering of the node's lease view.
type NodeLeaseStat struct {
	// Coordinator identifies the granting coordinator; Epoch is the
	// routing epoch the last heartbeat carried.
	Coordinator string
	Epoch       uint64
	Seq         uint64
	TTLMillis   int64
	// Renewals counts accepted heartbeats; Live reports whether the
	// lease TTL has elapsed since the last one.
	Renewals uint64
	Live     bool
}

// RecordLease ingests one coordinator heartbeat and returns the load
// acknowledgement. Heartbeats from the recorded coordinator must move
// Seq forward — a delayed, re-ordered heartbeat cannot roll the lease
// view backwards; a different coordinator (failover of the control
// plane itself) always takes over.
func (s *Server) RecordLease(req wire.LeaseRequest) wire.LeaseResponse {
	s.lease.mu.Lock()
	if req.Coordinator != s.lease.coordinator || req.Seq > s.lease.seq {
		s.lease.coordinator = req.Coordinator
		s.lease.epoch = req.Epoch
		s.lease.seq = req.Seq
		s.lease.ttl = time.Duration(req.TTLMillis) * time.Millisecond
		s.lease.granted = time.Now()
		s.lease.renewals++
	}
	epoch := s.lease.epoch
	s.lease.mu.Unlock()

	hosted := 0
	s.nodeMu.RLock()
	names := make([]string, 0, len(s.nodeRels))
	for name := range s.nodeRels {
		names = append(names, name)
	}
	s.nodeMu.RUnlock()
	for _, name := range names {
		nt := s.nodeFor(name)
		nt.mu.Lock()
		hosted += len(nt.hosted)
		nt.mu.Unlock()
	}
	inflight := s.subInflight.Load()
	if inflight < 0 {
		inflight = 0
	}
	return wire.LeaseResponse{Epoch: epoch, Hosted: hosted, Inflight: uint64(inflight)}
}

// leaseStat snapshots the lease view for Stats; nil when no coordinator
// has ever heartbeated this process.
func (s *Server) leaseStat() *NodeLeaseStat {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	if s.lease.coordinator == "" && s.lease.renewals == 0 {
		return nil
	}
	return &NodeLeaseStat{
		Coordinator: s.lease.coordinator,
		Epoch:       s.lease.epoch,
		Seq:         s.lease.seq,
		TTLMillis:   s.lease.ttl.Milliseconds(),
		Renewals:    s.lease.renewals,
		Live:        s.lease.ttl <= 0 || time.Since(s.lease.granted) < s.lease.ttl,
	}
}

// --- shard sub-streams ------------------------------------------------

// serveShardPartial answers one fan-out sub-query as node frames: hello
// (pinned epoch + seam material + left proof when first), entry chunks,
// foot (partial signature + right proof when last). The slice's epoch is
// pinned for the stream's whole lifetime, exactly like a user-facing
// stream.
func (s *Server) serveShardPartial(w io.Writer, flush func(), req wire.ShardStreamRequest) error {
	// The span carries the coordinator's trace ID (advisory, propagated in
	// an optional wire field) so one trace stitches the fan-out together
	// across processes; assembleNS isolates chunk-building time from the
	// write/flush share.
	span := obs.StartSpan(req.Trace)
	var assembleNS int64
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		span.AddNS(obs.StageVOAssemble, assembleNS)
		s.obs.Hist(obs.StageSubStream).ObserveSince(span.Start())
		s.obs.Slow.Finish(span, "substream",
			fmt.Sprintf("relation=%s shard=%d", req.Query.Relation, req.Shard))
	}
	defer finish()
	ref := wire.ShardRef{Relation: req.Query.Relation, Shard: req.Shard}
	hs, sl, epoch, dg, err := s.viewHosted(ref)
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	sp, err := s.exec.ShardPartial(sl, req.Role, req.Query, req.Shard, req.Lo, req.Hi, req.First, req.Last,
		engine.StreamOpts{ChunkRows: req.ChunkRows, ReuseChunks: true})
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	t0 := time.Now()
	head, err := sp.Head()
	assembleNS += int64(time.Since(t0))
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	hs.streams.Add(1)
	s.shardStreams.Add(1)
	s.subInflight.Add(1)
	defer s.subInflight.Add(-1)
	hello := wire.NodeHello{Shard: req.Shard, Epoch: epoch, Edges: partition.EdgesOf(sl), Left: head.Left, Digest: dg,
		NeedPrevG: sp.NeedPrevG()}
	if err := wire.WriteNodeFrame(w, &wire.NodeFrame{Hello: &hello}); err != nil {
		return err
	}
	flush()
	var frame wire.NodeFrame // one per sub-stream, not one per chunk
	for {
		tn := time.Now()
		c, err := sp.Next()
		assembleNS += int64(time.Since(tn))
		if err == io.EOF {
			break
		}
		if err != nil {
			writeNodeErr(w, flush, err)
			return err
		}
		frame.Chunk = c
		if err := wire.WriteNodeFrame(w, &frame); err != nil {
			return err
		}
		flush()
	}
	t0 = time.Now()
	foot, err := sp.Foot()
	assembleNS += int64(time.Since(t0))
	if err != nil {
		writeNodeErr(w, flush, err)
		return err
	}
	nf := wire.NodeFoot{
		Entries: foot.Entries, Partial: foot.Partial,
		Right: foot.Right, PredSig: foot.PredSig, PredPrevG: foot.PredPrevG, NeedPrevG: foot.NeedPrevG,
		// Advisory per-stage breakdown, outside every digest and signature:
		// the coordinator folds it into its trace and /metrics aggregate.
		Timing: []obs.StageDur{
			{Stage: obs.StageSubStream, NS: int64(span.Elapsed())},
			{Stage: obs.StageVOAssemble, NS: assembleNS},
		},
	}
	// The span closes before the foot leaves: once the coordinator holds
	// the foot, and the client its footer, this node's slow log and
	// histogram already have the sub-stream.
	finish()
	if err := wire.WriteNodeFrame(w, &wire.NodeFrame{Foot: &nf}); err != nil {
		return err
	}
	flush()
	return nil
}

func writeNodeErr(w io.Writer, flush func(), err error) {
	if wire.WriteNodeFrame(w, &wire.NodeFrame{Err: err.Error()}) == nil {
		flush()
	}
}

// --- two-phase distributed delta -------------------------------------

// PrepareNodeDelta stages an update batch against this node's hosted
// shards (stageDelta). Nothing publishes; the staged slices wait for
// mirror fixes and a commit. A previous staged transaction (crashed
// coordinator) is discarded. The reply carries the edges of every staged
// slice and of every neighbour shard the request names, as this staging
// left them, all read under the one nt.mu hold: that is what spares the
// coordinator a probe of this node's neighbour replicas. On a durable
// node the commit plan starts building as the reply leaves (stagedTx).
func (s *Server) PrepareNodeDelta(req wire.NodeDeltaRequest) (wire.NodeDeltaResponse, error) {
	d := req.Delta
	nt := s.coordTable(d.Relation)
	if nt == nil {
		return wire.NodeDeltaResponse{}, fmt.Errorf("%w 0 of %q", ErrNodeNotHosting, d.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.dropStaged() // discard any crashed coordinator's leftovers
	for _, i := range req.Neighbours {
		if nt.hosted[i] == nil {
			return wire.NodeDeltaResponse{}, fmt.Errorf("%w %d of %q (neighbour edges)", ErrNodeNotHosting, i, d.Relation)
		}
	}

	news, err := s.stageDelta(nt, d)
	if err != nil {
		return wire.NodeDeltaResponse{}, err
	}
	tx := newStagedTx(s.stagedTokens.Add(1), news)
	nt.staged = tx
	resp := wire.NodeDeltaResponse{Token: tx.token}
	staged := slices.Sorted(maps.Keys(news))
	for _, i := range staged {
		resp.Modified = append(resp.Modified, wire.ModifiedShard{Shard: i, Edges: partition.EdgesOf(news[i])})
	}
	for _, i := range req.Neighbours {
		sl := news[i]
		if sl == nil {
			sl = nt.hosted[i].sl
		}
		resp.Neighbours = append(resp.Neighbours, wire.ModifiedShard{Shard: i, Edges: partition.EdgesOf(sl)})
	}
	s.replan(nt, tx, staged...)
	return resp, nil
}

// replan waits for tx's plan goroutine, then, on a durable node, starts
// one that plans the listed staged shards against their published slices
// (planShard). Its inputs are read here, under nt.mu, which the caller
// holds; the staged slices it reads stay untouched until the next wait.
func (s *Server) replan(nt *nodeTable, tx *stagedTx, shards ...int) {
	tx.wait()
	if s.nstore == nil {
		return
	}
	type job struct {
		shard       int
		old, staged *core.SignedRelation
		run         []byte
	}
	jobs := make([]job, 0, len(shards))
	for _, i := range shards {
		if hs := nt.hosted[i]; hs != nil {
			jobs = append(jobs, job{i, hs.sl, tx.slices[i], hs.run})
		}
	}
	done := make(chan struct{})
	tx.planned = done
	go func() {
		defer close(done)
		for _, j := range jobs {
			tx.plans[j.shard] = s.planShard(j.shard, j.old, j.run, j.staged)
		}
	}()
}

// planShard is the one commit planner, the plan goroutine's and the
// in-process /delta's: it resumes the staged slice's digest at the first
// entry it changed from the published slice's running digests when its
// publish kept them (the first commit after an install hashes the whole
// slice), and builds the WAL record (store.PlanShard).
func (s *Server) planShard(shard int, old *core.SignedRelation, run []byte, staged *core.SignedRelation) *commitPlan {
	from := 0
	if run != nil {
		from = partition.FirstDiff(old, staged)
	}
	p := &commitPlan{old: old}
	p.digest, p.run = partition.SliceDigestFrom(s.h, staged, run, from)
	p.rec = store.PlanShard(store.CommitShard{Shard: shard, Old: old, New: staged, PostDigest: p.digest})
	return p
}

// stageDelta is the one delta stager. It routes the batch to the owning
// shards (delta.Route), applies each sub-batch on a clone of that shard
// alone, stitches the hand-off mirrors between slices hosted in this
// process, and validates every touched neighbourhood that can be checked
// here — publishing nothing. An in-process /delta runs on a table that
// hosts all K, so every stitch is local and every validation runs against
// fresh mirrors; a shard node hosts what its coordinator installed, and a
// signature adjacent to an off-node mirror is deferred to the
// coordinator's mirror fixes and seam checks. The caller holds nt.mu.
// Returned are the staged slices by shard (ops shards plus stitched
// neighbours).
func (s *Server) stageDelta(nt *nodeTable, d delta.Delta) (map[int]*core.SignedRelation, error) {
	spec := nt.spec
	hosted := func(i int) bool { return nt.hosted[i] != nil }
	groups, err := delta.Route(spec, d)
	if err != nil {
		return nil, fmt.Errorf("server: delta rejected: %w", err)
	}
	affected := slices.Sorted(maps.Keys(groups))
	for _, i := range affected {
		if !hosted(i) {
			return nil, fmt.Errorf("%w %d of %q (delta misrouted)", ErrNodeNotHosting, i, d.Relation)
		}
	}
	k := spec.K()
	if err := delta.CheckOpSigs(s.pub, d); err != nil {
		return nil, fmt.Errorf("server: delta rejected: %w", err)
	}

	// Phase 1: apply each shard's sub-batch on a clone with validation
	// deferred — near-edge neighbourhoods cannot be checked until the
	// hand-off mirrors are restitched below.
	news := map[int]*core.SignedRelation{}
	touched := map[int][]int{}
	for _, i := range affected {
		next := nt.hosted[i].sl.Clone()
		idxs, err := delta.ApplyOps(next, delta.Delta{Relation: d.Relation, Ops: groups[i]})
		if err != nil {
			return nil, fmt.Errorf("server: delta rejected: %w", err)
		}
		// A K = 1 slice's edges are the delimiters: with no hand-off to
		// protect, it may empty like any relation.
		if k > 1 && next.Len() < 1 {
			return nil, fmt.Errorf("%w: shard %d", ErrShardUnderflow, i)
		}
		news[i] = next
		touched[i] = idxs
	}

	// Phase 2: stitch mirrors. An affected shard's edge records are
	// mirrored by its neighbours; refresh any hosted here that drifted
	// (cross-node mirrors arrive later as MirrorRequests from the
	// coordinator). Clones are made lazily so an interior delta touches
	// exactly one shard.
	stitch := func(i int, rightContext bool, want *core.SignedRecord) error {
		sl := news[i]
		if sl == nil {
			sl = nt.hosted[i].sl
		}
		pos := 0
		if rightContext {
			pos = len(sl.Recs) - 1
		}
		if partition.SameRecord(sl.Recs[pos], want) {
			return nil
		}
		if news[i] == nil {
			news[i] = sl.Clone()
		}
		// The stitch bypasses delta.ApplyOps' index bookkeeping, so it
		// refreshes the crypto-index leaves around pos itself (as
		// StageMirror does) before anything validates against them. The
		// mirror shares the staged edge record: neither slice writes it.
		news[i].Recs[pos] = want
		if err := news[i].RefreshAggIndex([]int{pos}); err != nil {
			return fmt.Errorf("server: delta rejected: shard %d: %w", i, err)
		}
		touched[i] = append(touched[i], pos)
		return nil
	}
	for _, i := range affected {
		sl := news[i]
		if i > 0 && hosted(i-1) {
			// The left neighbour's right context mirrors shard i's first
			// owned record.
			if err := stitch(i-1, true, sl.Recs[1]); err != nil {
				return nil, err
			}
		}
		if i < k-1 && hosted(i+1) {
			// The right neighbour's left context mirrors shard i's last
			// owned record.
			if err := stitch(i+1, false, sl.Recs[len(sl.Recs)-2]); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3: validate every touched neighbourhood that is checkable
	// here, against index leaves ApplyOps and the stitches kept current,
	// re-proving only the digest material that differs from the published
	// slice's.
	for i, sl := range news {
		leftFresh := i == 0 || hosted(i-1)
		rightFresh := i == k-1 || hosted(i+1)
		if err := delta.ValidateStaged(s.h, s.pub, nt.hosted[i].sl, sl, touched[i], leftFresh, rightFresh); err != nil {
			return nil, fmt.Errorf("server: delta rejected: shard %d: %w", i, err)
		}
	}
	return news, nil
}

// commitSlices is the one delta commit, FinishNodeDelta's and the
// in-process /delta's. Append-before-acknowledge: with a durable store
// configured, the delta lands in the WAL before any slice publishes, and
// a failed append refuses the commit with nothing published — so the
// served state never disagrees with what a restart would recover. Then
// each staged slice of a still-hosted shard swaps in as one epoch, in
// shard order, and its delta counter moves with it. Only the WAL record
// needs the post-commit digests, so only a durable commit plans its
// slices (planShard); otherwise viewHosted hashes one when it is first
// asked. plans holds what the staged transaction's goroutine built; a
// shard without one (the in-process /delta passes none), or whose
// published or staged slice is no longer the one it was planned from (a
// reinstall since prepare), is planned here, inline, by the same
// function. The staged slice's running digests are kept for the next
// commit. It returns the highest epoch. The caller holds nt.mu, which
// every pin takes too, so no reader sees the swaps half done.
func (s *Server) commitSlices(nt *nodeTable, rel string, staged map[int]*core.SignedRelation, plans map[int]*commitPlan) (uint64, error) {
	shards := slices.DeleteFunc(slices.Sorted(maps.Keys(staged)), func(i int) bool { return nt.hosted[i] == nil })
	digests := make(map[int]hashx.Digest, len(shards))
	runs := make(map[int][]byte, len(shards))
	if s.nstore != nil {
		planned := make([]store.PlannedShard, 0, len(shards))
		for _, i := range shards {
			hs := nt.hosted[i]
			p := plans[i]
			if p == nil || p.old != hs.sl || p.rec.New != staged[i] {
				p = s.planShard(i, hs.sl, hs.run, staged[i])
			}
			digests[i], runs[i] = p.digest, p.run
			planned = append(planned, p.rec)
		}
		if err := s.nstore.AppendCommit(rel, planned); err != nil {
			return 0, fmt.Errorf("server: delta commit not durable: %w", err)
		}
	}
	var epoch uint64
	for _, i := range shards {
		hs := nt.hosted[i]
		epoch = max(epoch, s.publish(hs, staged[i], digests[i], runs[i]))
		hs.deltas.Add(1)
	}
	return epoch, nil
}

// StageMirror applies one cross-node mirror fix to the staged delta:
// the named context record is replaced with the neighbour shard's staged
// edge record, and the adjacent owned record — whose signature binds the
// new context digest — is validated in full. The context record's digest
// material is re-proved as a staged entry's is (delta.CheckEntryDigests:
// chain digests the published context record of the same identity
// already proved are reused). Token 0 opens a fresh
// staging transaction (the fixed shard had no local ops).
func (s *Server) StageMirror(req wire.MirrorRequest) (wire.MirrorResponse, error) {
	nt := s.coordTable(req.Relation)
	if nt == nil {
		return wire.MirrorResponse{}, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, req.Shard, req.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.hosted[req.Shard] == nil {
		return wire.MirrorResponse{}, fmt.Errorf("%w %d of %q", ErrNodeNotHosting, req.Shard, req.Relation)
	}
	switch {
	case req.Token == 0:
		// Opening a new transaction; leftovers from a crashed
		// coordinator's unfinished delta must not ride along.
		nt.dropStaged()
		nt.staged = newStagedTx(s.stagedTokens.Add(1), map[int]*core.SignedRelation{})
	case nt.staged == nil || nt.staged.token != req.Token:
		return wire.MirrorResponse{}, ErrStagedToken
	}
	tx := nt.staged
	tx.wait() // the plan goroutine reads the staged slices this fix edits
	sl := tx.slices[req.Shard]
	if sl == nil {
		sl = nt.hosted[req.Shard].sl.Clone()
		tx.slices[req.Shard] = sl
	}
	pos, adj := 0, 1
	if !req.Left {
		pos, adj = len(sl.Recs)-1, len(sl.Recs)-2
	}
	rec := req.Rec.Clone()
	sl.Recs[pos] = &rec
	// The plan follows the edited slice, accepted or not; the deferred
	// replan runs before nt.mu is released.
	defer s.replan(nt, tx, req.Shard)
	if err := sl.RefreshAggIndex([]int{pos}); err != nil {
		return wire.MirrorResponse{}, fmt.Errorf("server: mirror fix rejected: %w", err)
	}
	if err := delta.CheckEntryDigests(s.h, nt.hosted[req.Shard].sl, sl, pos); err != nil {
		return wire.MirrorResponse{}, fmt.Errorf("server: mirror fix rejected: %w", err)
	}
	if !sl.VerifyEntrySig(s.h, s.pub, adj) {
		return wire.MirrorResponse{}, fmt.Errorf("server: mirror fix rejected: %w: entry %d signature", delta.ErrValidation, adj)
	}
	return wire.MirrorResponse{Token: tx.token, Edges: partition.EdgesOf(sl)}, nil
}

// FinishNodeDelta commits (commitSlices) or aborts the staged
// transaction. The transaction is discarded either way, so a commit the
// WAL refuses is re-driven by the coordinator from a fresh prepare.
func (s *Server) FinishNodeDelta(req wire.TxRequest) (uint64, error) {
	nt := s.coordTable(req.Relation)
	if nt == nil {
		return 0, fmt.Errorf("%w 0 of %q", ErrNodeNotHosting, req.Relation)
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.staged == nil || nt.staged.token != req.Token {
		return 0, ErrStagedToken
	}
	tx := nt.staged
	nt.dropStaged()
	if !req.Commit {
		return 0, nil
	}
	epoch, err := s.commitSlices(nt, req.Relation, tx.slices, tx.plans)
	if err != nil {
		return 0, err
	}
	s.deltasApplied.Add(1)
	return epoch, nil
}

// --- HTTP wiring ------------------------------------------------------

// nodeHandlers registers the coordinator-facing endpoints on their rows
// of the wire endpoint table. Every refusal counts as a serving error.
func (s *Server) nodeHandlers(mux *http.ServeMux) {
	wire.ShardEdgesRPC.Mount(mux, s.ShardEdges, &s.errors)
	wire.ShardDigestRPC.Mount(mux, s.ShardDigestInfo, &s.errors)
	wire.ShardRemoveRPC.Mount(mux, func(ref wire.ShardRef) (wire.OKResponse, error) {
		return wire.OKResponse{}, s.RemoveShard(ref)
	}, &s.errors)
	wire.HostedRPC.Mount(mux, func(struct{}) (wire.HostedResponse, error) {
		return s.HostedInventory(), nil
	}, &s.errors)
	wire.NodeDeltaRPC.Mount(mux, s.PrepareNodeDelta, &s.errors)
	wire.NodeMirrorRPC.Mount(mux, s.StageMirror, &s.errors)
	wire.NodeTxRPC.Mount(mux, func(req wire.TxRequest) (wire.OKResponse, error) {
		epoch, err := s.FinishNodeDelta(req)
		return wire.OKResponse{Epoch: epoch}, err
	}, &s.errors)
	wire.NodeLeaseRPC.Mount(mux, func(req wire.LeaseRequest) (wire.LeaseResponse, error) {
		return s.RecordLease(req), nil
	}, &s.errors)
	wire.ShardInstallRPC.Mount(mux, func(body io.Reader) (wire.OKResponse, error) {
		man, sr, err := wire.ReadShardTransfer(body, s.h)
		if err == nil {
			err = s.InstallShard(man, sr)
		}
		return wire.OKResponse{}, err
	}, &s.errors)
	wire.ShardFetchEP.Mount(mux, func(w http.ResponseWriter, ref wire.ShardRef) {
		if err := s.WriteShardTo(w, ref); err != nil {
			// Pre-frame failures can still use the status line; mid-stream
			// ones surface as a truncated transfer at the receiver.
			s.errors.Add(1)
			http.Error(w, err.Error(), http.StatusNotFound)
		}
	})
	wire.ShardStreamEP.Mount(mux, func(w http.ResponseWriter, req wire.ShardStreamRequest) {
		flush := func() {}
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		if err := s.serveShardPartial(w, flush, req); err != nil {
			s.errors.Add(1)
		}
	})
}

// NodeShardStat is one hosted slice's line in /statsz.
type NodeShardStat struct {
	Shard   int
	Epoch   uint64
	Records int
	// Deltas counts committed deltas since install; Streams counts the
	// sub-streams served from the slice, to a coordinator or into a local
	// fan-out.
	Deltas, Streams uint64
}

// nodeStats snapshots the hosting state and adds the record total of
// every relation the server answers for (all shards hosted) to rels.
func (s *Server) nodeStats(rels map[string]int) map[string][]NodeShardStat {
	s.nodeMu.RLock()
	names := slices.Sorted(maps.Keys(s.nodeRels))
	s.nodeMu.RUnlock()
	if len(names) == 0 {
		return nil
	}
	out := map[string][]NodeShardStat{}
	for _, name := range names {
		nt := s.nodeFor(name)
		nt.mu.Lock()
		served := nt.servesAll()
		for _, i := range slices.Sorted(maps.Keys(nt.hosted)) {
			hs := nt.hosted[i]
			st := NodeShardStat{Shard: i, Epoch: hs.epoch, Records: hs.sl.Len(), Deltas: hs.deltas.Load(), Streams: hs.streams.Load()}
			if served {
				rels[name] += st.Records
			}
			out[name] = append(out[name], st)
		}
		nt.mu.Unlock()
	}
	return out
}
