package store

import (
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

// ErrWALTorn reports a WAL whose tail is not a whole, checksummed
// record: a crash mid-append, a truncated copy, or a flipped bit in
// the final record. Recovery keeps every record before the tear and
// truncates the rest — the torn record was never acknowledged (the
// append syncs before the caller hears success), so dropping it is the
// correct crash semantics, and the error is surfaced so operators see
// the tear rather than a silent skip.
var ErrWALTorn = errors.New("store: torn WAL record")

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

// ReadWALRecord reads one framed record from r. It returns io.EOF at a
// clean end of input and an ErrWALTorn-wrapped error for anything that
// is not a whole, checksummed record: a short header, an absurd length
// prefix, a short payload, or a CRC mismatch. Exported so the fuzz
// target drives exactly the production decode path.
func ReadWALRecord(r io.Reader) ([]byte, error) {
	var hdr [walHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: short header (%d of %d bytes)", ErrWALTorn, n, walHeaderLen)
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size > maxWALRecord {
		return nil, fmt.Errorf("%w: length prefix %d exceeds %d", ErrWALTorn, size, maxWALRecord)
	}
	payload := make([]byte, size)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload (%d of %d bytes)", ErrWALTorn, m, size)
	}
	if got, want := crc32.Checksum(payload, walCRC), binary.BigEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: payload CRC mismatch (got %08x want %08x)", ErrWALTorn, got, want)
	}
	return payload, nil
}

// scanWAL walks a WAL image record by record, returning every intact
// payload, the byte offset of the end of the last intact record (the
// truncation point), and the tear error if the tail was not clean.
func scanWAL(data []byte) (payloads [][]byte, valid int64, torn error) {
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		if int64(len(rest)) < walHeaderLen {
			return payloads, off, fmt.Errorf("%w: short header (%d of %d bytes)", ErrWALTorn, len(rest), walHeaderLen)
		}
		size := binary.BigEndian.Uint32(rest[0:4])
		if size > maxWALRecord || walHeaderLen+int64(size) > int64(len(rest)) {
			// Re-derive the precise reason through the shared reader so
			// the message matches what the stream path would report.
			_, err := ReadWALRecord(newByteReader(rest))
			return payloads, off, err
		}
		payload := rest[walHeaderLen : walHeaderLen+int64(size)]
		if got, want := crc32.Checksum(payload, walCRC), binary.BigEndian.Uint32(rest[4:8]); got != want {
			return payloads, off, fmt.Errorf("%w: payload CRC mismatch (got %08x want %08x)", ErrWALTorn, got, want)
		}
		payloads = append(payloads, payload)
		off += walHeaderLen + int64(size)
	}
	return payloads, off, nil
}

// newByteReader is a minimal bytes.Reader stand-in that avoids pulling
// bytes into the torn-tail error path's allocations.
func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
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

// openLog opens (creating if absent) the log at path: it removes a
// crashed rewrite's leftover temp file (never authoritative — the rename
// is the commit point), scans the frames, and truncates a torn tail so
// the next append starts on a record boundary. It returns the intact
// payloads and, when the tail was torn, the ErrWALTorn-wrapped reason.
func openLog(path string, every int, crash *Crasher) (*wal, [][]byte, error, error) {
	os.Remove(path + ".tmp")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, nil, err
	}
	payloads, valid, torn := scanWAL(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	if torn != nil {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return &wal{path: path, crash: crash, every: every, f: f, pending: len(payloads)}, payloads, torn, nil
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
