// Package store is the durable storage tier of the cluster: a per-node
// append-only WAL (NodeStore) and the coordinator's routing/staged-token
// log (CoordLog) — two owners of one log type, each with its own record
// kinds and in-memory state.
//
// The store is untrusted by construction — the same argument that lets
// the system add replicas, caches and peers without trusting them. A
// node restarting from disk replays its WAL and then self-checks every
// recovered slice against the owner's public key (AggIndex.VerifyRange over the owned region, plus
// the full install-time validation) before serving a byte of it. A
// corrupted, truncated or rolled-back disk therefore yields an honest
// refusal — the slice is dropped and the coordinator re-installs it —
// never a wrong answer. Nothing downstream changes: the unmodified
// client verifier remains the only trust boundary.
//
// Durability discipline: every mutation appends to the WAL (and syncs)
// BEFORE the node acknowledges it — append-before-acknowledge — so an
// acknowledged install or delta commit survives a SIGKILL. Compaction
// rewrites a log as its owner's current state (a node: one slice record
// per hosted shard) to a temp file, fsyncs it and renames it over the
// log: a crash leaves the old log or the new one, each whole, so no
// record needs a sequence number and no replay has to skip any.
package store

import (
	"errors"
	"sync"
)

// CrashPoint names one injection site in the write path. The five
// points cover every distinct durability state a crash can leave:
// before anything hit disk, mid-record (a torn tail), after the record
// is durable but before the caller was acknowledged, and either side
// of a compaction's atomic rename.
type CrashPoint int

// Crash points, in write-path order.
const (
	// CrashNone is the zero value: nothing armed.
	CrashNone CrashPoint = iota
	// CrashBeforeAppend dies before any byte of the record is written.
	CrashBeforeAppend
	// CrashMidRecord dies with the record's header and half its payload
	// on disk — the torn tail recovery must truncate away.
	CrashMidRecord
	// CrashAfterAppend dies after the record is durable (synced) but
	// before the store's in-memory state or the caller saw it — the
	// acknowledged-or-not ambiguity window.
	CrashAfterAppend
	// CrashBeforeRename dies with the compacted log fully written to
	// its temp file but not yet renamed over the log.
	CrashBeforeRename
	// CrashAfterRename dies with the compacted log renamed in and the
	// handle not yet reopened.
	CrashAfterRename
)

// Faults a process survives: the append returns ErrFault and the owner
// keeps running, so they are not in CrashPoints.
const (
	// FaultShortWrite writes the record's header and half its payload,
	// as a write cut short by a full disk does.
	FaultShortWrite CrashPoint = CrashAfterRename + 1 + iota
	// FaultSync writes the whole record and fails its fsync.
	FaultSync
)

// CrashPoints lists every injectable crash point, for matrix tests.
var CrashPoints = []CrashPoint{
	CrashBeforeAppend, CrashMidRecord, CrashAfterAppend,
	CrashBeforeRename, CrashAfterRename,
}

// crashNames are the points' names, in constant order.
var crashNames = [...]string{"none", "before-append", "mid-record", "after-append",
	"before-rename", "after-rename", "short-write", "failed-sync"}

func (p CrashPoint) String() string {
	if p < 0 || int(p) >= len(crashNames) {
		return "unknown"
	}
	return crashNames[p]
}

// ErrCrash is the injected-death error: a write path that hits an armed
// crash point stops exactly there, as a SIGKILL at that instant would.
var ErrCrash = errors.New("store: injected crash")

// ErrFault is the injected I/O failure of FaultShortWrite and FaultSync.
var ErrFault = errors.New("store: injected I/O fault")

// Crasher is the deterministic crash-point seam, in the spirit of
// cluster.Injector: production code never constructs one — a nil
// *Crasher never fires — it is exported because the recovery matrix
// tests in other packages drive the same seam the real write path runs
// through. Arming is one-shot: the first write that reaches the armed
// point consumes it, so a test kills exactly one operation.
type Crasher struct {
	mu    sync.Mutex
	armed CrashPoint
	fired int
}

// Arm sets the next crash point. CrashNone disarms.
func (c *Crasher) Arm(p CrashPoint) {
	c.mu.Lock()
	c.armed = p
	c.mu.Unlock()
}

// Fired reports how many injected crashes have fired.
func (c *Crasher) Fired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// hit consumes the armed point if it matches. Nil-safe: the production
// path passes a nil Crasher and never fires.
func (c *Crasher) hit(p CrashPoint) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed != p {
		return false
	}
	c.armed = CrashNone
	c.fired++
	return true
}
