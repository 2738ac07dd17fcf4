// Package delta implements incremental owner-to-publisher
// synchronization for signed relations — the deployment counterpart of
// Section 6.3's update-cost argument. A record change invalidates only
// three signatures, so the owner ships just the touched records instead
// of a fresh snapshot; the publisher applies them and re-validates
// exactly the affected neighbourhood.
//
// # Where this package sits among the system invariants
//
// The one global signature chain is owned by internal/partition: a
// delta never re-signs anything itself — it *carries* the owner's
// re-signed records (neighbour re-signs appear as upserts of otherwise
// unchanged records), and ApplyOps only splices them into the record
// sequence, maintaining the crypto index in lock-step.
//
// Mirrored boundaries are the reason ValidateTouched takes a slice flag.
// A partition shard slice cannot validate its context records alone —
// their signatures bind records on neighbouring shards — so
// ValidateTouched(slice=true) checks all digest material but defers
// exactly those signatures. ValidateStaged is the same loop for a node's
// staged slice: it also defers the edge-most owned record's signature
// beside a mirror another node has yet to fix, and re-proves only the
// digest material that differs from the published slice's. Who picks them up depends on the
// deployment: the in-process partitioned server stitches mirrors across
// its co-resident slices and re-validates every affected seam before
// publishing (internal/server); the distributed tier stages per-node,
// pushes cross-node mirror fixes, and re-proves seams from shipped edge
// material at the coordinator (internal/cluster). Either way a delta is
// all-or-nothing: a rejected batch leaves the published epoch untouched.
//
// Epoch pinning is owned by the serving layer: it runs ApplyOps on a
// clone, validates, and swaps the result in as a fresh copy-on-write
// epoch, so in-flight queries keep verifying against the epoch they
// pinned — a delta can never invalidate a running stream.
package delta
