package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Coordinator log record: exactly one of the three kinds. The log
// compacts by rewriting itself as the latest routing plus the
// still-open staged transactions (wal.rewrite, the node log's idiom).
type coordRecord struct {
	Routing     *routingRecord
	StagedBegin *stagedBeginRecord
	StagedEnd   *stagedEndRecord
}

type routingRecord struct {
	Epoch uint64
	Route [][]string
}

// stagedBeginRecord is written before phase 4 (commit fan-out) of a
// distributed delta: the relation and every node's staged token. If
// the coordinator dies inside the commit fan-out, recovery finds the
// open transaction here and knows the ambiguity is real — some nodes
// may have committed — instead of guessing from digests alone.
type stagedBeginRecord struct {
	Relation string
	Tokens   map[string]uint64
}

type stagedEndRecord struct {
	Relation  string
	Committed bool
}

// DefaultCompactEvery is how many appends trigger an atomic rewrite of
// the coordinator log.
const DefaultCompactEvery = 128

// CoordOptions parameterizes OpenCoord.
type CoordOptions struct {
	// Crash is the injection seam; nil (production) never fires.
	Crash *Crasher
}

// CoordReport describes what OpenCoord recovered.
type CoordReport struct {
	// TornTail is the ErrWALTorn-wrapped reason the log tail was
	// truncated, when it was.
	TornTail error
	// Replayed counts log records applied.
	Replayed int
	// RoutingEpoch is the recovered routing epoch (0 if none logged).
	RoutingEpoch uint64
	// OpenStaged lists relations whose two-phase delta was begun but
	// never resolved before the crash — the ambiguous commit windows.
	OpenStaged []string
}

// CoordLog is the coordinator's durable state: the latest routing
// table (with its epoch) and the set of in-flight two-phase delta
// commits. All methods are goroutine-safe.
type CoordLog struct {
	mu     sync.Mutex
	log    *wal
	repoch uint64
	route  [][]string
	haveRt bool
	staged map[string]map[string]uint64
}

// OpenCoord opens (creating if needed) a coordinator log in dir and
// replays it. A torn tail is truncated (reported, not fatal); a log
// damaged otherwise fails the open with ErrWALCorrupt and is left as it
// was, as are environmental I/O failures. If the replayed log had grown,
// it is compacted before returning.
func OpenCoord(dir string, opts CoordOptions) (*CoordLog, *CoordReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "coord.wal")
	img, err := readLog(path)
	if err != nil {
		return nil, nil, err
	}
	cl := &CoordLog{staged: map[string]map[string]uint64{}}
	rep := &CoordReport{TornTail: img.torn}
	for i, r := range img.recs {
		var rec coordRecord
		if derr := gob.NewDecoder(bytes.NewReader(r.payload)).Decode(&rec); derr != nil {
			return nil, nil, fmt.Errorf("store: %s: %w", path, r.corrupt(i, derr))
		}
		cl.applyRecord(&rec)
		rep.Replayed++
	}
	w, err := img.open(DefaultCompactEvery, opts.Crash)
	if err != nil {
		return nil, nil, err
	}
	cl.log = w
	rep.RoutingEpoch = cl.repoch
	rep.OpenStaged = cl.openStagedLocked()
	// Compact what we replayed so restart cost stays bounded; failure
	// here is an I/O problem worth surfacing at open.
	if rep.Replayed > 1 {
		if err := w.rewrite(cl.image); err != nil {
			w.close()
			return nil, nil, err
		}
	}
	return cl, rep, nil
}

func (cl *CoordLog) applyRecord(rec *coordRecord) {
	switch {
	case rec.Routing != nil:
		cl.repoch = rec.Routing.Epoch
		cl.route = cloneRoute(rec.Routing.Route)
		cl.haveRt = true
	case rec.StagedBegin != nil:
		toks := make(map[string]uint64, len(rec.StagedBegin.Tokens))
		for k, v := range rec.StagedBegin.Tokens {
			toks[k] = v
		}
		cl.staged[rec.StagedBegin.Relation] = toks
	case rec.StagedEnd != nil:
		delete(cl.staged, rec.StagedEnd.Relation)
	}
}

func (cl *CoordLog) append(rec *coordRecord) error {
	payload, err := gobRecord(rec)
	if err != nil {
		return err
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.log.append(payload); err != nil {
		return err
	}
	cl.applyRecord(rec)
	cl.log.compactIfDue(cl.image)
	return nil
}

// LogRouting durably records a routing table at a given epoch.
func (cl *CoordLog) LogRouting(epoch uint64, route [][]string) error {
	return cl.append(&coordRecord{Routing: &routingRecord{Epoch: epoch, Route: cloneRoute(route)}})
}

// LogStagedBegin durably records that a two-phase delta for rel is
// about to enter its commit fan-out, with every node's staged token.
// Call before the first NodeTx commit is sent.
func (cl *CoordLog) LogStagedBegin(rel string, tokens map[string]uint64) error {
	toks := make(map[string]uint64, len(tokens))
	for k, v := range tokens {
		toks[k] = v
	}
	return cl.append(&coordRecord{StagedBegin: &stagedBeginRecord{Relation: rel, Tokens: toks}})
}

// LogStagedEnd durably records that the delta for rel resolved
// (committed or aborted everywhere).
func (cl *CoordLog) LogStagedEnd(rel string, committed bool) error {
	return cl.append(&coordRecord{StagedEnd: &stagedEndRecord{Relation: rel, Committed: committed}})
}

// Routing returns the recovered routing table and epoch; ok is false
// if no routing was ever logged.
func (cl *CoordLog) Routing() (epoch uint64, route [][]string, ok bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if !cl.haveRt {
		return 0, nil, false
	}
	return cl.repoch, cloneRoute(cl.route), true
}

// OpenStaged returns the two-phase deltas that were begun but never
// resolved, keyed by relation: the crash windows Recover must treat as
// possibly-committed.
func (cl *CoordLog) OpenStaged() map[string]map[string]uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make(map[string]map[string]uint64, len(cl.staged))
	for rel, toks := range cl.staged {
		cp := make(map[string]uint64, len(toks))
		for k, v := range toks {
			cp[k] = v
		}
		out[rel] = cp
	}
	return out
}

func (cl *CoordLog) openStagedLocked() []string {
	out := make([]string, 0, len(cl.staged))
	for rel := range cl.staged {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// Compact forces an atomic log rewrite now.
func (cl *CoordLog) Compact() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.log.rewrite(cl.image)
}

// image is the compacted log: [latest routing][open staged begins].
func (cl *CoordLog) image() ([][]byte, error) {
	var recs []*coordRecord
	if cl.haveRt {
		recs = append(recs, &coordRecord{Routing: &routingRecord{Epoch: cl.repoch, Route: cl.route}})
	}
	for _, rel := range cl.openStagedLocked() {
		recs = append(recs, &coordRecord{StagedBegin: &stagedBeginRecord{Relation: rel, Tokens: cl.staged[rel]}})
	}
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		p, err := gobRecord(rec)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// CoordStats is the log's observability view.
type CoordStats struct {
	Appends, Compactions, CompactFailures uint64
	OpenStaged                            int
}

// Stats snapshots the counters.
func (cl *CoordLog) Stats() CoordStats {
	cl.mu.Lock()
	open := len(cl.staged)
	cl.mu.Unlock()
	return CoordStats{
		Appends:         cl.log.appends.Load(),
		Compactions:     cl.log.rewrites.Load(),
		CompactFailures: cl.log.rewriteFailures.Load(),
		OpenStaged:      open,
	}
}

// Close releases the log file handle.
func (cl *CoordLog) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.log.close()
}

func cloneRoute(route [][]string) [][]string {
	out := make([][]string, len(route))
	for i, set := range route {
		out[i] = append([]string(nil), set...)
	}
	return out
}
