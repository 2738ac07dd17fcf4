package store

import (
	"maps"
	"slices"

	"vcqr/internal/wire"
)

// coordMagic names a coordinator's log in its header (wire.FileHeader).
// Its records (wire.CoordRecord) are a routing table, and the begin and
// end of a two-phase delta's commit fan-out: a begin is written before
// the fan-out with every node's staged token, so if the coordinator dies
// inside it, recovery finds the open transaction and knows the ambiguity
// is real — some nodes may have committed — instead of guessing from
// digests alone. The log compacts by rewriting itself as the latest
// routing plus the still-open begins (wal.rewrite, the node log's idiom).
const coordMagic = "vcqr coordinator log\n"

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
	logged
	rt     *wire.RoutingRecord // nil until a routing is logged
	staged map[string]*wire.StagedBegin
}

// OpenCoord opens (creating if needed) a coordinator log in dir and
// replays it. A torn tail is truncated (reported, not fatal); a log
// damaged otherwise fails the open with ErrWALCorrupt and is left as it
// was, as are environmental I/O failures. If the replayed log had grown,
// it is compacted before returning.
func OpenCoord(dir string, opts CoordOptions) (*CoordLog, *CoordReport, error) {
	cl := &CoordLog{staged: map[string]*wire.StagedBegin{}}
	cl.compacted = cl.image
	w, n, torn, err := replay(dir, "coord.wal", coordMagic, DefaultCompactEvery, opts.Crash, wire.DecodeCoordRecord,
		func(rec *wire.CoordRecord) error { cl.applyRecord(rec); return nil })
	if err != nil {
		return nil, nil, err
	}
	cl.log = w
	rep := &CoordReport{TornTail: torn, Replayed: n, OpenStaged: slices.Sorted(maps.Keys(cl.staged))}
	if cl.rt != nil {
		rep.RoutingEpoch = cl.rt.Epoch
	}
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

// applyRecord adopts a record, which the log owns from then on.
func (cl *CoordLog) applyRecord(rec *wire.CoordRecord) {
	switch {
	case rec.Routing != nil:
		cl.rt = rec.Routing
	case rec.StagedBegin != nil:
		cl.staged[rec.StagedBegin.Relation] = rec.StagedBegin
	case rec.StagedEnd != nil:
		delete(cl.staged, rec.StagedEnd.Relation)
	}
}

func (cl *CoordLog) append(rec *wire.CoordRecord) error {
	return cl.commit(wire.AppendCoordRecord(nil, rec), func() { cl.applyRecord(rec) })
}

// LogRouting durably records a routing table at a given epoch.
func (cl *CoordLog) LogRouting(epoch uint64, route [][]string) error {
	return cl.append(&wire.CoordRecord{Routing: &wire.RoutingRecord{Epoch: epoch, Route: cloneRoute(route)}})
}

// LogStagedBegin durably records that a two-phase delta for rel is
// about to enter its commit fan-out, with every node's staged token.
// Call before the first NodeTx commit is sent.
func (cl *CoordLog) LogStagedBegin(rel string, tokens map[string]uint64) error {
	return cl.append(&wire.CoordRecord{StagedBegin: &wire.StagedBegin{Relation: rel, Tokens: maps.Clone(tokens)}})
}

// LogStagedEnd durably records that the delta for rel resolved
// (committed or aborted everywhere).
func (cl *CoordLog) LogStagedEnd(rel string, committed bool) error {
	return cl.append(&wire.CoordRecord{StagedEnd: &wire.StagedEnd{Relation: rel, Committed: committed}})
}

// Routing returns the recovered routing table and epoch; ok is false
// if no routing was ever logged.
func (cl *CoordLog) Routing() (epoch uint64, route [][]string, ok bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.rt == nil {
		return 0, nil, false
	}
	return cl.rt.Epoch, cloneRoute(cl.rt.Route), true
}

// OpenStaged returns the two-phase deltas that were begun but never
// resolved, keyed by relation: the crash windows Recover must treat as
// possibly-committed.
func (cl *CoordLog) OpenStaged() map[string]map[string]uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make(map[string]map[string]uint64, len(cl.staged))
	for rel, b := range cl.staged {
		out[rel] = maps.Clone(b.Tokens)
	}
	return out
}

// image is the compacted log: [latest routing][open staged begins, in
// relation order].
func (cl *CoordLog) image() ([][]byte, error) {
	var out [][]byte
	if cl.rt != nil {
		out = append(out, wire.AppendCoordRecord(nil, &wire.CoordRecord{Routing: cl.rt}))
	}
	for _, rel := range slices.Sorted(maps.Keys(cl.staged)) {
		out = append(out, wire.AppendCoordRecord(nil, &wire.CoordRecord{StagedBegin: cl.staged[rel]}))
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

func cloneRoute(route [][]string) [][]string {
	out := make([][]string, len(route))
	for i, set := range route {
		out[i] = append([]string(nil), set...)
	}
	return out
}
