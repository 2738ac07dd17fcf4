package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// WAL record framing: [4-byte BE payload length][4-byte BE CRC-32C of
// the payload][payload]. The CRC makes a bit flip a named refusal
// instead of a gob decode surprise; the length prefix makes a torn
// write (partial record at the tail) detectable without trusting file
// size to be record-aligned.

// ErrWALTorn reports a WAL whose tail is a tear: a bad frame that reaches
// the end of the file — a short header, a length past the end, a CRC
// mismatch on the last frame — or a bad frame followed only by zero
// bytes (a file the filesystem extended but the append never filled).
// That is what a crash mid-append leaves, and the torn record was never
// acknowledged (the append syncs before the caller hears success), so
// recovery keeps every record before the tear and truncates the rest.
// The error is surfaced so operators see the tear rather than a silent
// skip.
var ErrWALTorn = errors.New("store: torn WAL record")

// ErrWALCorrupt refuses a WAL damaged other than by a tear: a bad frame
// with more log after it, or a whole, checksummed record that does not
// decode. Every record after the damage was acknowledged, so replaying
// the records before it — and appending after it — would lose them at
// the next open. The open fails instead, writes nothing, and names the
// record (walCorrupt); restore the file, or empty the data dir and let
// the coordinator re-install the node's slices.
var ErrWALCorrupt = errors.New("store: corrupt WAL record")

// walCorrupt is an ErrWALCorrupt naming the damaged record.
type walCorrupt struct {
	index  int   // how many records precede it
	offset int64 // its first byte in the file
	reason string
}

func (e *walCorrupt) Error() string {
	return fmt.Sprintf("%v: record %d at offset %d: %s", ErrWALCorrupt, e.index, e.offset, e.reason)
}

func (e *walCorrupt) Unwrap() error { return ErrWALCorrupt }

// maxWALRecord bounds one record's payload. Anything larger than this
// in a length prefix is corruption, not data: the largest legitimate
// record is a full slice install, bounded by the same 256 MiB the wire
// transfer cap enforces.
const maxWALRecord = 256 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

const walHeaderLen = 8

// appendWALFrame writes one framed record. The caller syncs.
func appendWALFrame(w io.Writer, payload []byte) error {
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// logRecord is one whole, checksummed record of a log image.
type logRecord struct {
	offset  int64
	payload []byte
}

// corrupt names record i, which does not decode, as the reason its log
// cannot open.
func (r logRecord) corrupt(i int, why error) error {
	return &walCorrupt{index: i, offset: r.offset, reason: why.Error()}
}

// scanWAL splits a log image into its whole records. At the first bad
// frame it stops: a tear (ErrWALTorn) returns the records before it and
// valid, the tear's offset, where the log is cut; any other bad frame is
// a walCorrupt error.
func scanWAL(data []byte) (recs []logRecord, valid int64, torn, err error) {
	for off := int64(0); off < int64(len(data)); {
		rest := data[off:]
		end, why := checkFrame(rest)
		if why == "" {
			recs = append(recs, logRecord{offset: off, payload: rest[walHeaderLen:end]})
			off += end
			continue
		}
		if zeroes(rest[end:]) {
			return recs, off, fmt.Errorf("%w: %s", ErrWALTorn, why), nil
		}
		return nil, 0, nil, &walCorrupt{index: len(recs), offset: off, reason: why + ", with more log after it"}
	}
	return recs, int64(len(data)), nil, nil
}

// checkFrame checks the frame rest opens with, returning its end within
// rest (at most len(rest)) and, when it is bad, why. A run of zero bytes
// to the end is bad as a whole: read as frames it would be empty
// payloads under a zero CRC, and no log ends in those but one the
// filesystem extended and the append never filled.
func checkFrame(rest []byte) (end int64, why string) {
	n := int64(len(rest))
	switch {
	case n < walHeaderLen:
		return n, fmt.Sprintf("short header (%d of %d bytes)", n, walHeaderLen)
	case zeroes(rest):
		return n, fmt.Sprintf("%d zero bytes", n)
	}
	size := int64(binary.BigEndian.Uint32(rest))
	switch end = walHeaderLen + size; {
	case end > n:
		return n, fmt.Sprintf("length prefix %d runs past the end (%d payload bytes left)", size, n-walHeaderLen)
	case size > maxWALRecord:
		return end, fmt.Sprintf("length prefix %d exceeds %d", size, maxWALRecord)
	}
	if got, want := crc32.Checksum(rest[walHeaderLen:end], walCRC), binary.BigEndian.Uint32(rest[4:8]); got != want {
		return end, fmt.Sprintf("payload CRC mismatch (got %08x want %08x)", got, want)
	}
	return end, ""
}

// zeroes reports whether b holds only zero bytes.
func zeroes(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// logImage is a log as read from disk, before anything is written: its
// whole records, the end of the last one, and the reason the tail after
// it is torn (nil for a clean log).
type logImage struct {
	path  string
	recs  []logRecord
	valid int64
	torn  error
}

// readLog reads and scans the log at path (absent: an empty log),
// writing nothing, so that an owner can refuse the log — a walCorrupt
// from scanWAL, a record that does not decode — and leave the file as it
// found it.
func readLog(path string) (*logImage, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	recs, valid, torn, err := scanWAL(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return &logImage{path: path, recs: recs, valid: valid, torn: torn}, nil
}

// wal is one durable log file — the store's only on-disk structure.
// NodeStore (node.wal) and CoordLog (coord.wal) each hold one and keep
// only their own record types and in-memory state. Every write is one of
// two kinds: append (one framed record, fsync'd before the caller hears
// success) and rewrite (the whole log replaced by the owner's compacted
// image: temp file, fsync, rename, directory fsync, reopen). A reader
// only ever sees the old log or the new one, never a mix, so compaction
// leaves no window in which two images overlap and records carry no
// sequence numbers. Not goroutine-safe: the owner's mutex guards every
// call.
type wal struct {
	path  string
	crash *Crasher
	every int // appends per automatic rewrite; <= 0 disables
	f     *os.File
	// pending counts records appended since the last rewrite — at open,
	// every record the log held — against the every cadence.
	pending int

	appends, rewrites, rewriteFailures atomic.Uint64
	lastRewriteUnix                    atomic.Int64
}

// open opens (creating if absent) the log its owner has replayed: it
// removes a crashed rewrite's leftover temp file (never authoritative —
// the rename is the commit point), and truncates a torn tail so the next
// append starts on a record boundary.
func (img *logImage) open(every int, crash *Crasher) (*wal, error) {
	os.Remove(img.path + ".tmp")
	f, err := os.OpenFile(img.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if img.torn != nil {
		if err := f.Truncate(img.valid); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: img.path, crash: crash, every: every, f: f, pending: len(img.recs)}, nil
}

// append writes one framed record through the crash seam and syncs it
// durable. On a mid-record injection the header and half the payload
// land on disk — exactly the torn tail recovery handles.
func (w *wal) append(payload []byte) error {
	if w.f == nil {
		return os.ErrClosed
	}
	if w.crash.hit(CrashBeforeAppend) {
		return ErrCrash
	}
	if w.crash.hit(CrashMidRecord) {
		var hdr [walHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRC))
		w.f.Write(hdr[:])
		w.f.Write(payload[:len(payload)/2])
		w.f.Sync()
		return ErrCrash
	}
	if err := appendWALFrame(w.f, payload); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.crash.hit(CrashAfterAppend) {
		return ErrCrash
	}
	w.pending++
	w.appends.Add(1)
	return nil
}

// rewrite replaces the log with image (one record per payload),
// threading the two rename-side crash points: a before-rename death
// leaves the old log, an after-rename death the new one — both whole,
// consistent images. Once the rename happened the open handle points at
// the replaced, unlinked file, where appends would vanish at the next
// open; every exit that does not reopen drops it, so later appends fail
// loudly (os.ErrClosed) until a rewrite succeeds.
func (w *wal) rewrite(image func() ([][]byte, error)) error {
	payloads, err := image()
	if err != nil {
		return err
	}
	tmp := w.path + ".tmp"
	if err := writeSynced(tmp, payloads); err != nil {
		return err
	}
	if w.crash.hit(CrashBeforeRename) {
		return ErrCrash
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return err
	}
	syncDir(filepath.Dir(w.path))
	w.close()
	if w.crash.hit(CrashAfterRename) {
		return ErrCrash
	}
	if w.f, err = os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		return err
	}
	w.pending = 0
	w.rewrites.Add(1)
	w.lastRewriteUnix.Store(time.Now().Unix())
	return nil
}

// compactIfDue rewrites the log once every appends have accumulated
// since the last rewrite. Compaction is best-effort: the log already
// holds every record, so a failure costs replay time, never durability —
// it is counted, not returned.
func (w *wal) compactIfDue(image func() ([][]byte, error)) {
	if w.every > 0 && w.pending >= w.every {
		if err := w.rewrite(image); err != nil {
			w.rewriteFailures.Add(1)
		}
	}
}

// close releases the file handle. No flush is needed: every append
// synced before acknowledging.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// writeSynced writes payloads as framed records to a fresh file at path
// and fsyncs it.
func writeSynced(path string, payloads [][]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range payloads {
		if err = appendWALFrame(f, p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// filesystems that refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
