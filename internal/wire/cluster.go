package wire

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"vcqr/internal/core"
	"vcqr/internal/delta"
	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/obs"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/sig"
)

// This file is the coordinator/node half of the wire protocol
// (internal/cluster): per-shard sub-streams, shard slice transfer, edge
// and digest probes, and the two-phase distributed delta. Everything
// here rides the same frames and field codec as the user-facing chunk
// streams: sub-streams in codec.go, transfers, heartbeats and the unary
// RPC bodies in body.go. As everywhere in this system nothing in the
// transport is trusted: a node that lies produces a merged stream the
// user's verifier rejects, a tampered transfer dies on the receiver's
// digest compare and signature validation.

// Cluster transport errors.
var (
	// ErrTransferDigest reports a shard transfer whose streamed records
	// do not fold to the digest its foot claims — a tampered or corrupted
	// transfer, rejected before any signature work.
	ErrTransferDigest = errors.New("wire: shard transfer digest mismatch")
	// ErrTransferTruncated reports a transfer stream that ended before
	// its foot frame.
	ErrTransferTruncated = errors.New("wire: shard transfer truncated")
)

// NotHostingMsg is the error-string marker a node uses when refusing a
// shard request for a shard it does not host. The coordinator detects it
// (IsNotHosting) and re-reads its routing table: the usual cause is a
// request raced with a migration's routing swing.
const NotHostingMsg = "not hosting shard"

// IsNotHosting reports whether a remote error is a node's stale-routing
// refusal.
func IsNotHosting(err error) bool {
	return err != nil && strings.Contains(err.Error(), NotHostingMsg)
}

// --- shard sub-streams ------------------------------------------------

// ShardStreamRequest asks a node for one shard's partial of a fan-out:
// the entries covering [Lo, Hi] on the named shard's pinned slice, plus
// the boundary proofs its cover position (First/Last) obliges. The node
// recomputes the effective rewrite from Role and Query exactly as the
// coordinator did, so the two cannot disagree without failing fast.
type ShardStreamRequest struct {
	Role  string
	Query engine.Query
	Shard int
	// Lo, Hi is the sub-range of the effective query this shard covers.
	Lo, Hi uint64
	// First and Last mark the cover's edge positions, which must supply
	// the left/right boundary proofs of the whole effective range.
	First, Last bool
	ChunkRows   int
	// RoutingEpoch is the coordinator's routing-table version when it
	// issued the request; echoed in errors for operator diagnostics.
	RoutingEpoch uint64
	// Trace is the coordinator-minted trace ID, propagated so the node's
	// slow-query log and sub-stream timing carry the same ID as the
	// coordinator's span. Empty when the coordinator has none. Advisory
	// only — never part of the verified material.
	Trace string
}

// NodeHello is the first frame of a shard sub-stream: the pinned slice's
// epoch and seam material (the digest-compare input for cross-node
// hand-off checks), plus the left boundary proof when First.
type NodeHello struct {
	Shard int
	Epoch uint64
	Edges partition.Edges
	Left  *core.BoundaryProof
	// Digest is the pinned slice's identity (partition.SliceDigest) as
	// the node claims it. The coordinator uses it to pick a replica
	// hosting the byte-identical slice when a sub-stream fails over
	// mid-flight, and to attribute seam failures to a lying replica via
	// cross-replica compare. Like Edges it is a claim, not a proof: the
	// user's verifier is what catches a node lying here. May be empty,
	// which simply disables digest-pinned failover for that sub-stream.
	Digest hashx.Digest
	// NeedPrevG announces, before any entry, what the foot's NeedPrevG
	// will say (engine.ShardPartial.NeedPrevG): the sub-range is empty on
	// this slice and its predecessor is the slice's left context, so a
	// globally empty range needs the preceding shard's edge material. The
	// coordinator probes that shard only when the first feed's hello sets
	// it; a foot that needs it unannounced is refused by name.
	NeedPrevG bool
}

// NodeFoot is the last frame of a shard sub-stream: the shard's entry
// count and partial condensed signature, the right boundary proof when
// Last, and the empty-range predecessor material when First and empty
// (see engine.ShardFeedFoot, which this mirrors on the wire).
type NodeFoot struct {
	Entries   uint64
	Partial   sig.Signature
	Right     *core.BoundaryProof
	PredSig   sig.Signature
	PredPrevG hashx.Digest
	NeedPrevG bool

	// Timing is the node's advisory per-stage breakdown for this
	// sub-stream (assembly, agg-index lookups...), echoed so the
	// coordinator can attribute a slow merged stream to the node at
	// fault. May be empty; outside every digest and signature — the seam
	// material above it is what hand-off checks compare.
	Timing []obs.StageDur
}

// NodeFrame is one frame of a shard sub-stream: exactly one field set.
type NodeFrame struct {
	Hello *NodeHello
	Chunk *engine.Chunk
	Foot  *NodeFoot
	Err   string
}

// WriteNodeFrame writes one sub-stream frame; ReadNodeFrame is its
// counterpart (the client's NodeStream wraps it).
func WriteNodeFrame(w io.Writer, f *NodeFrame) error {
	return encodeFrame(w, f, MaxChunkFrame, appendNodeFrame)
}

// ReadNodeFrame reads one sub-stream frame, with ReadChunkFrame's
// end-of-stream and ownership contracts: a one-shot use of the frame
// reader, so the returned frame owns one buffer, and retaining any
// digest of it retains the frame.
func ReadNodeFrame(r io.Reader) (*NodeFrame, error) {
	f := new(NodeFrame)
	if err := new(frameReader).readNode(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// readNode reads one sub-stream frame into f through fr: an entries
// chunk into fr's recycled memory, valid until fr's next read; any other
// frame fresh.
func (fr *frameReader) readNode(r io.Reader, f *NodeFrame) error {
	p, err := fr.open(r, MaxChunkFrame)
	if err != nil {
		return err
	}
	d := fr.decoder(p, tagNodeChunk)
	d.nodeFrame(f)
	return d.done()
}

// NodeStream is a client-side shard sub-stream in consumption order:
// Hello (already read), Next until io.EOF, Foot, Close. Opened to drain
// (ShardStream's reuse), it reads through one recycling frame reader: a
// chunk from Next, and everything it aliases, is valid until the next
// Next. Otherwise each chunk owns its frame, as ReadNodeFrame's do.
type NodeStream struct {
	body  io.ReadCloser
	fr    *frameReader // nil: every chunk decodes fresh
	hello NodeHello
	foot  *NodeFoot
	err   error
}

// ShardStream opens one shard sub-stream against a node. The hello frame
// is consumed before returning, so a stale-routing refusal surfaces here
// (IsNotHosting) rather than mid-merge.
//
// reuse is engine.StreamOpts.ReuseChunks's contract carried to the feed:
// the stream's entries chunks decode into one recycling frame reader, so
// a chunk Next returns, and everything it aliases, is valid only until
// the next Next. A caller that drains each chunk to a writer before
// pulling the next — the coordinator's /stream handler — sets it; one
// that keeps chunks, like in-process Coordinator.QueryStream consumers,
// leaves it off and gets chunks that own their frames.
func (c *Client) ShardStream(req ShardStreamRequest, reuse bool) (*NodeStream, error) {
	rbody, err := ShardStreamEP.open(c, req)
	if err != nil {
		return nil, err
	}
	ns := &NodeStream{body: rbody}
	if reuse {
		ns.fr = new(frameReader)
	}
	var f NodeFrame
	err = ns.reader().readNode(rbody, &f)
	if err == nil {
		err = remoteErr(node, f.Err)
	}
	if err == nil && f.Hello == nil {
		err = fmt.Errorf("wire: shard sub-stream did not open with a hello frame")
	}
	if err != nil {
		rbody.Close()
		return nil, err
	}
	ns.hello = *f.Hello
	return ns, nil
}

// reader is the frame reader for the stream's next frame.
func (ns *NodeStream) reader() *frameReader {
	if ns.fr == nil {
		return new(frameReader)
	}
	return ns.fr
}

// Hello returns the sub-stream's opening frame.
func (ns *NodeStream) Hello() NodeHello { return ns.hello }

// Next returns the next entries chunk, io.EOF once the foot frame has
// arrived.
func (ns *NodeStream) Next() (*engine.Chunk, error) {
	if ns.err != nil {
		return nil, ns.err
	}
	if ns.foot != nil {
		return nil, io.EOF
	}
	var f NodeFrame
	if err := ns.reader().readNode(ns.body, &f); err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: sub-stream ended before its foot", ErrFrameTruncated)
		}
		ns.err = err
		return nil, err
	}
	if ns.err = remoteErr(node, f.Err); ns.err != nil {
		return nil, ns.err
	}
	switch {
	case f.Foot != nil:
		ns.foot = f.Foot
		return nil, io.EOF
	case f.Chunk != nil:
		return f.Chunk, nil
	}
	ns.err = fmt.Errorf("wire: empty sub-stream frame")
	return nil, ns.err
}

// Foot returns the sub-stream's summary; valid once Next returned io.EOF.
func (ns *NodeStream) Foot() (NodeFoot, error) {
	if ns.err != nil {
		return NodeFoot{}, ns.err
	}
	if ns.foot == nil {
		return NodeFoot{}, fmt.Errorf("wire: sub-stream foot before drain")
	}
	return *ns.foot, nil
}

// Close releases the underlying response body.
func (ns *NodeStream) Close() error { return ns.body.Close() }

// --- shard transfer ---------------------------------------------------

// ShardManifest opens a shard transfer: which slice of which layout is
// being shipped, with everything the receiver needs to reconstruct a
// servable SignedRelation.
type ShardManifest struct {
	Spec   partition.Spec
	Shard  int
	Params core.Params
	Schema relation.Schema
	// Records is the total entry count (owned + both context records).
	Records int
	// Epoch and Deltas are source-side bookkeeping: the store epoch the
	// slice was read at and the deltas it had absorbed since install.
	Epoch  uint64
	Deltas uint64
}

// TransferFoot closes a shard transfer with the slice digest
// (partition.SliceDigest) of everything that was streamed.
type TransferFoot struct {
	Digest hashx.Digest
}

// TransferFrame is one frame of a shard transfer: exactly one field set.
type TransferFrame struct {
	Manifest *ShardManifest
	Recs     []*core.SignedRecord
	Foot     *TransferFoot
	Err      string
}

// transferBatch bounds records per transfer frame: large enough to
// amortize framing, small enough to keep frames well under the cap.
const transferBatch = 256

// WriteShardTransfer streams one shard slice as transfer frames:
// manifest, record batches, foot with the slice digest.
func WriteShardTransfer(w io.Writer, h *hashx.Hasher, man ShardManifest, sr *core.SignedRelation) error {
	if err := sliceFrames(man, sr, func(f *TransferFrame) error { return writeTransferFrame(w, f) }); err != nil {
		return err
	}
	return writeTransferFrame(w, &TransferFrame{Foot: &TransferFoot{Digest: partition.SliceDigest(h, sr)}})
}

// sliceFrames passes put a slice's transfer frames, the one encoding of
// a slice on the wire and on disk (disk.go): the manifest, stamped with
// the slice's params, schema and record count, then the records in
// batches of transferBatch.
func sliceFrames(man ShardManifest, sr *core.SignedRelation, put func(*TransferFrame) error) error {
	man.Records, man.Params, man.Schema = len(sr.Recs), sr.Params, sr.Schema
	if err := put(&TransferFrame{Manifest: &man}); err != nil {
		return err
	}
	for off := 0; off < len(sr.Recs); off += transferBatch {
		if err := put(&TransferFrame{Recs: sr.Recs[off:min(off+transferBatch, len(sr.Recs))]}); err != nil {
			return err
		}
	}
	return nil
}

// ReadShardTransfer consumes a transfer stream and reconstructs the
// slice, verifying the streamed records against the foot's slice digest
// — the transfer-integrity half of the trust story; the receiver still
// owes the signature validation of an untrusted feed.
func ReadShardTransfer(r io.Reader, h *hashx.Hasher) (ShardManifest, *core.SignedRelation, error) {
	next := func(f *TransferFrame) error {
		err := readTransferFrame(r, f)
		if err == io.EOF {
			return ErrTransferTruncated
		}
		if err != nil {
			return err
		}
		return remoteErr(node, f.Err)
	}
	man, sr, err := readSlice(next)
	if err != nil {
		return man, nil, err
	}
	var f TransferFrame
	if err := next(&f); err != nil {
		return man, nil, err
	}
	if f.Foot == nil {
		return man, nil, fmt.Errorf("wire: transfer overran its manifest record count")
	}
	if !partition.SliceDigest(h, sr).Equal(f.Foot.Digest) {
		return man, nil, ErrTransferDigest
	}
	return man, sr, nil
}

// readSlice reads a slice's transfer frames through next — off a
// transfer stream, or out of a file (disk.go): the manifest, then record
// batches of transferBatch records, the last one short, until the
// manifest's count has arrived.
func readSlice(next func(*TransferFrame) error) (ShardManifest, *core.SignedRelation, error) {
	var f TransferFrame
	if err := next(&f); err != nil {
		return ShardManifest{}, nil, err
	}
	if f.Manifest == nil {
		return ShardManifest{}, nil, fmt.Errorf("wire: shard transfer did not open with a manifest")
	}
	man := *f.Manifest
	if man.Records < 3 || man.Records > MaxChunkFrame {
		return man, nil, fmt.Errorf("wire: implausible transfer record count %d", man.Records)
	}
	// The manifest is a claim from an untrusted peer: reserve a few
	// batches and let the slice grow as records actually arrive.
	sr := &core.SignedRelation{Params: man.Params, Schema: man.Schema,
		Recs: make([]*core.SignedRecord, 0, min(man.Records, 4*transferBatch))}
	for len(sr.Recs) < man.Records {
		f = TransferFrame{}
		if err := next(&f); err != nil {
			return man, nil, err
		}
		if len(f.Recs) != min(transferBatch, man.Records-len(sr.Recs)) {
			return man, nil, fmt.Errorf("%w: a batch of %d records after %d of the manifest's %d", ErrTransferTruncated, len(f.Recs), len(sr.Recs), man.Records)
		}
		sr.Recs = append(sr.Recs, f.Recs...)
	}
	return man, sr, nil
}

// --- control-plane requests ------------------------------------------

// ShardRef names one shard of one relation.
type ShardRef struct {
	Relation string
	Shard    int
}

// EdgeResponse returns a hosted slice's seam material and epoch.
type EdgeResponse struct {
	Epoch uint64
	Edges partition.Edges
	Err   string
}

// DigestResponse returns a hosted slice's identity summary — the digest
// compare primitive of migration cutover and crash recovery.
type DigestResponse struct {
	Epoch  uint64
	Digest hashx.Digest
	// InstallDigest is the slice digest as it was when this copy was
	// installed on the node. Digest != InstallDigest means the copy has
	// absorbed writes since — the signal recovery uses to pick the
	// written-to copy of a double-hosted shard.
	InstallDigest hashx.Digest
	Records       int
	// Deltas counts update batches the slice absorbed since it was
	// installed on this node.
	Deltas uint64
	Err    string
}

// HostedShard is one hosted slice in a node's inventory.
type HostedShard struct {
	Shard         int
	Epoch         uint64
	Digest        hashx.Digest
	InstallDigest hashx.Digest
	Records       int
	Deltas        uint64
}

// HostedInfo is one relation's hosting state on a node.
type HostedInfo struct {
	Spec   partition.Spec
	Shards []HostedShard
}

// HostedResponse inventories everything a node hosts.
type HostedResponse struct {
	Relations map[string]HostedInfo
	Err       string
}

// OKResponse acknowledges a control operation.
type OKResponse struct {
	Epoch uint64
	Err   string
}

// --- leases / heartbeats ----------------------------------------------

// LeaseRequest is one coordinator→node heartbeat: the grant of a serving
// lease for TTLMillis, carrying the coordinator's current routing epoch
// so a node can detect it is being driven by a stale coordinator. Leases
// are an availability mechanism only — nothing in the verified material
// depends on them; a node serving past its lease can at worst waste a
// client's time, never forge a result.
type LeaseRequest struct {
	// Coordinator identifies the granting coordinator (its advertised
	// URL, or a process tag in tests) for the node's /statsz.
	Coordinator string
	// Epoch is the coordinator's routing epoch at grant time.
	Epoch uint64
	// TTLMillis is the lease duration; the node treats its lease as
	// expired TTLMillis after the last heartbeat it acknowledged.
	TTLMillis int64
	// Seq increments per heartbeat per coordinator, so a delayed
	// re-ordered heartbeat cannot roll a node's lease view backwards.
	Seq uint64
}

// LeaseResponse acknowledges a heartbeat with the node's load signals —
// the inputs to the coordinator's least-loaded replica selection.
type LeaseResponse struct {
	// Epoch echoes the highest routing epoch the node has seen.
	Epoch uint64
	// Hosted is the node's hosted-shard count across relations.
	Hosted int
	// Inflight is the node's count of active shard sub-streams.
	Inflight uint64
	Err      string
}

// --- two-phase distributed delta -------------------------------------

// NodeDeltaRequest asks a node to *stage* an update batch against the
// shards it hosts: apply, stitch co-hosted mirrors, validate everything
// checkable locally — but publish nothing. The coordinator follows with
// cross-node mirror fixes and seam checks, then commits or aborts.
// Neighbours names hosted shards next to the delta's ops shards whose
// edge material the reply must carry, so the coordinator need not probe
// them.
type NodeDeltaRequest struct {
	Delta      delta.Delta
	Neighbours []int
}

// ModifiedShard reports one staged slice's post-delta seam material.
type ModifiedShard struct {
	Shard int
	Edges partition.Edges
}

// NodeDeltaResponse returns the staging token and the staged edges.
// Neighbours answers the request's list in its order: each shard's edges
// as the prepare left them, read under the same lock as the staging —
// staged if the node stitched the shard (it is then in Modified too),
// published otherwise.
type NodeDeltaResponse struct {
	Token      uint64
	Modified   []ModifiedShard
	Neighbours []ModifiedShard
	Err        string
}

// MirrorRequest refreshes one staged slice's context record with the
// adjacent shard's (staged) edge record — the cross-node half of mirror
// stitching. Token 0 opens a new staging transaction on the node.
type MirrorRequest struct {
	Token    uint64
	Relation string
	Shard    int
	// Left selects which context record to refresh: the slice's left
	// (position 0) or right (last position).
	Left bool
	Rec  core.SignedRecord
}

// MirrorResponse acknowledges a mirror fix with the staging token (fresh
// when the request opened one) and the fixed slice's staged edges.
type MirrorResponse struct {
	Token uint64
	Edges partition.Edges
	Err   string
}

// TxRequest commits or aborts a node's staged delta.
type TxRequest struct {
	Relation string
	Token    uint64
	Commit   bool
}

// --- client methods ---------------------------------------------------

// ObsExport scrapes a peer's /metrics.json histogram snapshot — the
// coordinator uses it to fold node-level latency into its cluster-wide
// /metrics aggregate. The data is advisory monitoring state; a node that
// lies here can only corrupt dashboards, never results.
func (c *Client) ObsExport() (obs.Export, error) {
	const path = "/metrics.json"
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return obs.Export{}, fmt.Errorf("wire: get metrics: %w", err)
	}
	if err := statusOK(resp, node, path); err != nil {
		return obs.Export{}, err
	}
	defer resp.Body.Close()
	return obs.DecodeExport(io.LimitReader(resp.Body, 8<<20))
}

// ShardEdges fetches a hosted slice's seam material.
func (c *Client) ShardEdges(ref ShardRef) (EdgeResponse, error) { return ShardEdgesRPC.Call(c, ref) }

// ShardDigest fetches a hosted slice's digest summary.
func (c *Client) ShardDigest(ref ShardRef) (DigestResponse, error) {
	return ShardDigestRPC.Call(c, ref)
}

// ShardRemove drops a hosted slice from a node. In-flight streams keep
// their pinned snapshots; only new requests are refused.
func (c *Client) ShardRemove(ref ShardRef) error {
	_, err := ShardRemoveRPC.Call(c, ref)
	return err
}

// Hosted inventories the node.
func (c *Client) Hosted() (HostedResponse, error) { return HostedRPC.Call(c, struct{}{}) }

// ShardFetch opens a transfer stream for a hosted slice. The caller owns
// the returned body (positioned at the manifest frame) and must close it.
func (c *Client) ShardFetch(ref ShardRef) (io.ReadCloser, error) { return ShardFetchEP.open(c, ref) }

// ShardInstall streams transfer frames from r into a node's install
// endpoint. The reader is typically a ShardFetch body (migration) or a
// local WriteShardTransfer pipe (initial placement).
func (c *Client) ShardInstall(r io.Reader) (OKResponse, error) { return ShardInstallRPC.Call(c, r) }

// NodeDeltaPrepare stages an update batch on a node.
func (c *Client) NodeDeltaPrepare(req NodeDeltaRequest) (NodeDeltaResponse, error) {
	return NodeDeltaRPC.Call(c, req)
}

// NodeMirror applies one cross-node mirror fix to a staged delta.
func (c *Client) NodeMirror(req MirrorRequest) (MirrorResponse, error) {
	return NodeMirrorRPC.Call(c, req)
}

// NodeLease sends one heartbeat to a node's lease endpoint.
func (c *Client) NodeLease(req LeaseRequest) (LeaseResponse, error) { return NodeLeaseRPC.Call(c, req) }

// NodeTx commits or aborts a node's staged delta.
func (c *Client) NodeTx(req TxRequest) (OKResponse, error) { return NodeTxRPC.Call(c, req) }
