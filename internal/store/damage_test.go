package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/partition"
)

// logOwner is what the damage matrix drives of NodeStore and CoordLog:
// acknowledged record i, a frame appended through the owner's own log,
// and which acknowledged records the owner holds.
type logOwner interface {
	ack(t *testing.T, i int)
	raw(t *testing.T, payload []byte)
	held(t *testing.T) []int
	Close() error
}

type nodeOwner struct {
	*NodeStore
	set *partition.Set
}

// ack installs shard i.
func (n nodeOwner) ack(t *testing.T, i int) {
	t.Helper()
	if err := n.LogInstall("Uniform", n.set.Spec, i, n.set.Slices[i], partition.SliceDigest(n.h, n.set.Slices[i])); err != nil {
		t.Fatal(err)
	}
}

func (n nodeOwner) raw(t *testing.T, payload []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.log.append(payload); err != nil {
		t.Fatal(err)
	}
}

// held lists the recovered shards, each the slice installed.
func (n nodeOwner) held(t *testing.T) []int {
	var out []int
	for _, sh := range n.Recovered()["Uniform"].Shards {
		if !partition.SliceDigest(n.h, sh.Slice).Equal(partition.SliceDigest(n.h, n.set.Slices[sh.Shard])) {
			t.Fatalf("shard %d recovered a slice other than the one installed", sh.Shard)
		}
		out = append(out, sh.Shard)
	}
	return out
}

type coordOwner struct{ *CoordLog }

// ack begins a two-phase delta on relation i.
func (c coordOwner) ack(t *testing.T, i int) {
	t.Helper()
	if err := c.LogStagedBegin(fmt.Sprint(i), map[string]uint64{"http://n": uint64(i)}); err != nil {
		t.Fatal(err)
	}
}

func (c coordOwner) raw(t *testing.T, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.append(payload); err != nil {
		t.Fatal(err)
	}
}

// held lists the relations with a begun delta.
func (c coordOwner) held(t *testing.T) []int {
	var out []int
	for rel := range c.OpenStaged() {
		var i int
		fmt.Sscan(rel, &i)
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// frameStarts walks a log image's length prefixes, from the end of its
// header: the magic's line, then the format version byte.
func frameStarts(img []byte) []int {
	var out []int
	for off := bytes.IndexByte(img, '\n') + 2; off+walHeaderLen <= len(img); off += walHeaderLen + int(binary.BigEndian.Uint32(img[off:])) {
		out = append(out, off)
	}
	return out
}

// TestLogDamageMatrix: a log never drops a record it acknowledged. For
// both owners of a log, each row damages it in one way, and the log is
// reopened as it is, or — the way acknowledged records were once lost —
// reopened after one more acknowledged append: for a tear, the append
// follows the open that cut the tear off; for other damage, the append
// follows the damage while the owner is still open. Every row ends one
// of two ways: every acknowledged record replays, or the open fails with
// ErrWALCorrupt naming the damaged record and its offset, and leaves the
// data dir byte-identical.
func TestLogDamageMatrix(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 5)
	owners := []struct {
		name, file string
		open       func(dir string) (logOwner, error, error) // the owner, its tear, a refusal
	}{
		{"node", "node.wal", func(dir string) (logOwner, error, error) {
			ns, rep, err := OpenNode(dir, Options{Hasher: h, SnapshotEvery: -1})
			if err != nil {
				return nil, nil, err
			}
			return nodeOwner{ns, set}, rep.TornTail, nil
		}},
		{"coordinator", "coord.wal", func(dir string) (logOwner, error, error) {
			cl, rep, err := OpenCoord(dir, CoordOptions{})
			if err != nil {
				return nil, nil, err
			}
			return coordOwner{cl}, rep.TornTail, nil
		}},
	}
	const undecodable = -1 // a step: a whole, checksummed frame no owner decodes
	interrupted := frames([]byte("the record a crash interrupted"))
	rows := []struct {
		name  string
		steps []int               // acknowledged record numbers, in log order
		crash func([]byte) []byte // the closed log after a crash, or nil
		tear  bool
		at    int // the damaged record, when it is not a tear
	}{
		{"torn header", []int{0, 1, 2}, func(b []byte) []byte { return append(b, interrupted[:5]...) }, true, 0},
		{"torn payload", []int{0, 1, 2}, func(b []byte) []byte { return append(b, interrupted[:walHeaderLen+7]...) }, true, 0},
		{"zero-filled tail", []int{0, 1, 2}, func(b []byte) []byte { return append(b, make([]byte, 4096)...) }, true, 0},
		{"torn payload, zero-filled", []int{0, 1, 2}, func(b []byte) []byte {
			return append(append(b, interrupted[:walHeaderLen+7]...), make([]byte, 4096)...)
		}, true, 0},
		{"flipped last frame", []int{0, 1, 2}, func(b []byte) []byte {
			b = append(b, interrupted...)
			b[len(b)-3] ^= 0x20 // the interrupted record, written whole but not as sent
			return b
		}, true, 0},
		{"flipped middle frame", []int{0, 1, 2}, nil, false, 1},
		{"undecodable first", []int{undecodable, 0, 1, 2}, nil, false, 0},
		{"undecodable middle", []int{0, undecodable, 1, 2}, nil, false, 1},
		{"undecodable last", []int{0, 1, 2, undecodable}, nil, false, 3},
	}
	for _, ow := range owners {
		for _, row := range rows {
			for _, more := range []bool{false, true} {
				name := ow.name + "/" + row.name
				if more {
					name += "/after one more append"
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					path := filepath.Join(dir, ow.file)
					o, _, err := ow.open(dir)
					if err != nil {
						t.Fatal(err)
					}
					var acked []int
					for _, i := range row.steps {
						if i == undecodable {
							o.raw(t, []byte("not a record of any owner"))
							continue
						}
						o.ack(t, i)
						acked = append(acked, i)
					}
					if row.name == "flipped middle frame" {
						// Bit rot under the open owner: the bytes change in
						// place, the owner's handle stays where it was.
						img, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						at := frameStarts(img)[row.at] + walHeaderLen + 3
						img[at] ^= 0x08
						f, err := os.OpenFile(path, os.O_WRONLY, 0)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := f.WriteAt(img[at:at+1], int64(at)); err != nil {
							t.Fatal(err)
						}
						f.Close()
					}
					if more && !row.tear {
						o.ack(t, 3)
						acked = append(acked, 3)
					}
					o.Close()
					if row.crash != nil {
						img, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, row.crash(img), 0o644); err != nil {
							t.Fatal(err)
						}
					}

					if !row.tear {
						img, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						before := dirBytes(t, dir)
						_, _, err = ow.open(dir)
						var c *walCorrupt
						if !errors.As(err, &c) || !errors.Is(err, ErrWALCorrupt) {
							t.Fatalf("open = %v, want ErrWALCorrupt", err)
						}
						if want := int64(frameStarts(img)[row.at]); c.index != row.at || c.offset != want {
							t.Fatalf("refusal names record %d at offset %d, want record %d at offset %d", c.index, c.offset, row.at, want)
						}
						if dirBytes(t, dir) != before {
							t.Fatal("refused open changed the data dir")
						}
						return
					}

					o, torn, err := ow.open(dir)
					if err != nil {
						t.Fatal(err)
					}
					if !errors.Is(torn, ErrWALTorn) {
						t.Fatalf("tear reported as %v, want ErrWALTorn", torn)
					}
					if more {
						o.ack(t, 3)
						acked = append(acked, 3)
					}
					o.Close()
					o, torn, err = ow.open(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer o.Close()
					if torn != nil {
						t.Fatalf("the open after the tear reports another: %v", torn)
					}
					if got := o.held(t); !slices.Equal(got, acked) {
						t.Fatalf("holds records %v, acknowledged %v", got, acked)
					}
				})
			}
		}
	}
}
