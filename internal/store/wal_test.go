package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

func TestWALRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("a"), {}, []byte("third-record"), bytes.Repeat([]byte{0xAB}, 4096)}
	r := bytes.NewReader(frames(want...))
	for i, w := range want {
		got, err := ReadWALRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(w))
		}
	}
	if _, err := ReadWALRecord(r); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
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

	w, payloads, tornErr, err := openLog(path, 0, nil)
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
	w, payloads, tornErr, err = openLog(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if tornErr != nil || len(payloads) != 3 {
		t.Fatalf("reopen after truncation: torn=%v records=%d", tornErr, len(payloads))
	}
}

// A flipped bit in the final record is a CRC mismatch, not a panic and
// not a silent skip: the record is refused by name and earlier records
// survive.
func TestWALBitFlipFinalRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	img := frames([]byte("alpha"), []byte("beta"), []byte("gamma"))
	img[len(img)-1] ^= 0x40 // inside the final payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, payloads, tornErr, err := openLog(path, 0, nil)
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
	_, err := ReadWALRecord(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrWALTorn) {
		t.Fatalf("oversize length prefix: got %v, want ErrWALTorn", err)
	}
}
