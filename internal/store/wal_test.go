package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/wire"
)

// testMagic names the logs these tests write by hand.
const testMagic = "vcqr test log\n"

// logFile is a log file of testMagic holding frames.
func logFile(frames []byte) []byte { return append(wire.FileHeader(testMagic), frames...) }

func frames(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := appendWALFrame(&buf, p); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// reopen replays the log at path as an owner that decodes every record
// would, returning the payloads and the tear.
func reopen(path string) (*wal, [][]byte, error, error) {
	var payloads [][]byte
	w, _, torn, err := replay(filepath.Dir(path), filepath.Base(path), testMagic, 0, nil,
		func(p []byte) (*[]byte, error) { return &p, nil },
		func(p *[]byte) error { payloads = append(payloads, *p); return nil })
	return w, payloads, torn, err
}

func TestWALRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("a"), {}, []byte("third-record"), bytes.Repeat([]byte{0xAB}, 4096)}
	data := frames(want...)
	recs, valid, torn, err := scanWAL(data, 0)
	if err != nil || torn != nil || valid != int64(len(data)) {
		t.Fatalf("clean log: valid %d of %d, torn %v, corrupt %v", valid, len(data), torn, err)
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(recs[i].payload, w) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(recs[i].payload), len(w))
		}
	}
}

// A crash mid-append leaves a partial record at the tail: recovery must
// keep every whole record before the tear, name the tear ErrWALTorn,
// and truncate the file so the next append lands on a record boundary.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	whole := frames([]byte("one"), []byte("two"), []byte("three"))
	torn := frames([]byte("four"))
	partial := torn[:len(torn)-2] // header + most of the payload
	if err := os.WriteFile(path, logFile(append(append([]byte{}, whole...), partial...)), 0o644); err != nil {
		t.Fatal(err)
	}

	w, payloads, tornErr, err := reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if !errors.Is(tornErr, ErrWALTorn) {
		t.Fatalf("torn tail reported %v, want ErrWALTorn", tornErr)
	}
	if len(payloads) != 3 || string(payloads[2]) != "three" {
		t.Fatalf("kept %d records, want the 3 whole ones", len(payloads))
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(logFile(whole))) {
		t.Fatalf("file is %d bytes after truncation, want %d", fi.Size(), len(logFile(whole)))
	}

	// A second open finds a clean log.
	w, payloads, tornErr, err = reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if tornErr != nil || len(payloads) != 3 {
		t.Fatalf("reopen after truncation: torn=%v records=%d", tornErr, len(payloads))
	}
}

// A flipped bit in the final record is a CRC mismatch that reaches the
// end of the file, which is what a crash mid-append leaves: the record is
// refused by name as a tear, not a panic and not a silent skip, and
// earlier records survive.
func TestWALBitFlipFinalRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	img := frames([]byte("alpha"), []byte("beta"), []byte("gamma"))
	img[len(img)-1] ^= 0x40 // inside the final payload
	if err := os.WriteFile(path, logFile(img), 0o644); err != nil {
		t.Fatal(err)
	}
	w, payloads, tornErr, err := reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if !errors.Is(tornErr, ErrWALTorn) {
		t.Fatalf("bit flip reported %v, want ErrWALTorn", tornErr)
	}
	if len(payloads) != 2 || string(payloads[0]) != "alpha" || string(payloads[1]) != "beta" {
		t.Fatalf("kept %d records, want the 2 intact ones", len(payloads))
	}
}

func TestWALOversizeLengthPrefix(t *testing.T) {
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], maxWALRecord+1)
	if _, _, torn, err := scanWAL(hdr[:], 0); err != nil || !errors.Is(torn, ErrWALTorn) {
		t.Fatalf("oversize length prefix: torn %v, corrupt %v; want ErrWALTorn", torn, err)
	}
}

// An append that fails while the process lives on — a write cut short,
// a sync that fails — is cut back off the log before its error returns:
// the two good appends after both faults land where the last
// acknowledged record ended, and a reopen replays each of them exactly
// once and neither failed one.
func TestWALFailedAppendCutBack(t *testing.T) {
	h := hashx.New()
	set := buildSet(t, h, 24, 4)
	dir := t.TempDir()
	crash := &Crasher{}
	opts := Options{Hasher: h, SnapshotEvery: -1, Crash: crash}
	ns, _, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	logInstall := func(i int) error {
		return ns.LogInstall("Uniform", set.Spec, i, set.Slices[i], partition.SliceDigest(h, set.Slices[i]))
	}
	for i, fault := range []CrashPoint{FaultShortWrite, FaultSync} {
		crash.Arm(fault)
		if err := logInstall(i); !errors.Is(err, ErrFault) {
			t.Fatalf("%s: install = %v, want ErrFault", fault, err)
		}
	}
	for _, i := range []int{2, 3} {
		if err := logInstall(i); err != nil {
			t.Fatal(err)
		}
	}
	if crash.Fired() != 2 {
		t.Fatalf("faults fired %d times, want 2", crash.Fired())
	}
	ns.Close()

	ns, rep, err := OpenNode(dir, opts)
	if err != nil {
		t.Fatalf("reopen after two failed appends: %v", err)
	}
	defer ns.Close()
	if rep.Replayed != 2 || rep.TornTail != nil || len(rep.Refused) != 0 {
		t.Fatalf("replay report %+v, want the two good records and nothing else", rep)
	}
	var held []int
	for _, sh := range ns.Recovered()["Uniform"].Shards {
		held = append(held, sh.Shard)
	}
	if !slices.Equal(held, []int{2, 3}) {
		t.Fatalf("replayed shards %v, want [2 3]", held)
	}
}
