package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func frames(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := appendWALFrame(&buf, p); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// reopen reads the log at path and opens it as an owner that decodes
// every record would, returning the payloads and the tear.
func reopen(path string) (*wal, [][]byte, error, error) {
	img, err := readLog(path)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := img.open(0, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	var payloads [][]byte
	for _, r := range img.recs {
		payloads = append(payloads, r.payload)
	}
	return w, payloads, img.torn, nil
}

func TestWALRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("a"), {}, []byte("third-record"), bytes.Repeat([]byte{0xAB}, 4096)}
	data := frames(want...)
	recs, valid, torn, err := scanWAL(data)
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
	if err := os.WriteFile(path, append(append([]byte{}, whole...), partial...), 0o644); err != nil {
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
	if fi, _ := os.Stat(path); fi.Size() != int64(len(whole)) {
		t.Fatalf("file is %d bytes after truncation, want %d", fi.Size(), len(whole))
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
	if err := os.WriteFile(path, img, 0o644); err != nil {
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
	if _, _, torn, err := scanWAL(hdr[:]); err != nil || !errors.Is(torn, ErrWALTorn) {
		t.Fatalf("oversize length prefix: torn %v, corrupt %v; want ErrWALTorn", torn, err)
	}
}
