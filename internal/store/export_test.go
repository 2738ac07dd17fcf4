package store

import (
	"os"
	"path/filepath"

	"vcqr/internal/wire"
)

// LoggedShard is one shard's share of a logged commit as LogCommit wrote
// it: the ops it carries, or Full when it fell back to the whole slice.
type LoggedShard struct {
	Shard int
	Ops   int
	Full  bool
}

// LoggedCommits decodes the node WAL in dir and returns every commit
// record's shards in log order — how the tests see which branch of the
// round-trip check a commit took.
func LoggedCommits(dir string) ([][]LoggedShard, error) {
	data, err := os.ReadFile(filepath.Join(dir, "node.wal"))
	if err != nil {
		return nil, err
	}
	recs, _, _, err := scanWAL(data, int64(len(wire.FileHeader(nodeMagic))))
	if err != nil {
		return nil, err
	}
	var out [][]LoggedShard
	for _, r := range recs {
		rec, err := wire.DecodeNodeRecord(r.payload)
		if err != nil {
			return nil, err
		}
		if rec.Commit == nil {
			continue
		}
		var shards []LoggedShard
		for _, cs := range rec.Commit.Shards {
			shards = append(shards, LoggedShard{Shard: cs.Shard, Ops: len(cs.Ops), Full: cs.Full != nil})
		}
		out = append(out, shards)
	}
	return out, nil
}

// Compact forces an atomic coordinator-log rewrite now, as the crash
// drill does at a crash point.
func (cl *CoordLog) Compact() error { return cl.compact() }
