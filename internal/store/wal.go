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
	"sync"
	"sync/atomic"
	"time"

	"vcqr/internal/wire"
)

// A log file opens with its owner's header (wire.FileHeader: a magic
// naming the owner, then the format version), then holds framed records:
// [4-byte BE payload length][4-byte BE CRC-32C of the payload][payload],
// each payload one record in the field codec (wire.AppendNodeRecord,
// wire.AppendCoordRecord). The CRC makes a bit flip a named refusal
// instead of a decode surprise; the length prefix makes a torn write
// (partial record at the tail) detectable without trusting file size to
// be record-aligned. A log is created by the rewrite path (temp file,
// fsync, rename), so a log either has its header or does not exist.

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
func appendWALFrame(w io.Writer, payload []byte) error { return writeFrame(w, payload, len(payload)) }

// writeFrame writes payload's frame header, then its first n bytes: all
// of them, or fewer — what a write cut short leaves.
func writeFrame(w io.Writer, payload []byte, n int) error {
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload[:n])
	return err
}

// logRecord is one whole, checksummed record of a log image.
type logRecord struct {
	offset  int64
	payload []byte
}

// scanWAL splits a log image into its whole records, the first at from.
// At the first bad frame it stops: a tear (ErrWALTorn) returns the
// records before it and valid, the tear's offset, where the log is cut;
// any other bad frame is a walCorrupt error.
func scanWAL(data []byte, from int64) (recs []logRecord, valid int64, torn, err error) {
	for off := from; off < int64(len(data)); {
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

// replay opens the log file in dir for its owner and returns it with
// the number of records it held and the reason its tail was torn (nil
// for a clean log). It reads the log (absent: an empty one) and folds
// every record into the owner in log order — decode, then apply —
// before it writes anything, so an owner can refuse the log and leave
// the file as it found it: a log without magic's header
// (wire.ErrFileFormat: every log of an earlier build, whose records were
// gob), a walCorrupt from scanWAL, a whole, checksummed record that does
// not decode (a walCorrupt naming it: the records after it were
// acknowledged and may depend on its effect), or an apply error as it
// is. Only then does it open the log for appends: it removes a crashed
// rewrite's leftover temp file (never authoritative — the rename is the
// commit point), creates an absent log as a header alone, through the
// temp file and rename, and cuts a torn tail off so the next append
// starts on a record boundary.
func replay[T any](dir, file, magic string, every int, crash *Crasher, decode func([]byte) (*T, error), apply func(*T) error) (*wal, int, error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	path := filepath.Join(dir, file)
	w := &wal{path: path, header: wire.FileHeader(magic), crash: crash, every: every}
	var recs []logRecord
	var torn error
	data, err := os.ReadFile(path)
	if err == nil {
		if _, err = wire.CutFileHeader(data, magic); err == nil {
			recs, w.size, torn, err = scanWAL(data, int64(len(w.header)))
		}
		if err != nil {
			return nil, 0, nil, fmt.Errorf("store: %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, nil, err
	}
	for i, r := range recs {
		rec, err := decode(r.payload)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("store: %s: %w", path, &walCorrupt{index: i, offset: r.offset, reason: err.Error()})
		}
		if err := apply(rec); err != nil {
			return nil, 0, nil, fmt.Errorf("store: %s: %w", path, err)
		}
	}
	os.Remove(path + ".tmp")
	err = nil
	if w.size == 0 {
		w.size, err = w.replace(nil, nil)
	}
	if err == nil {
		w.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	}
	if err == nil && torn != nil {
		err = w.cut()
	}
	if err != nil {
		w.close()
		return nil, 0, nil, err
	}
	w.pending = len(recs)
	return w, len(recs), torn, nil
}

// logged is what both owners of a log share: the log, the mutex that
// guards it with the owner's state, and the way every record goes in.
type logged struct {
	mu  sync.Mutex
	log *wal
	// compacted is the owner's state as a compacted log (wal.rewrite).
	compacted func() ([][]byte, error)
}

// commit appends payload durably, then folds it into the owner's state
// with apply — only after the record is synced, so the state never gets
// ahead of the disk — and compacts once every appends have accumulated
// since the last rewrite. Compaction is best-effort: the log already
// holds every record, so a failure costs replay time, never durability;
// it is counted, not returned.
func (l *logged) commit(payload []byte, apply func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.append(payload); err != nil {
		return err
	}
	apply()
	if w := l.log; w.every > 0 && w.pending >= w.every && w.rewrite(l.compacted) != nil {
		w.rewriteFailures.Add(1)
	}
	return nil
}

// compact rewrites the log as the owner's compacted state now.
func (l *logged) compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.rewrite(l.compacted)
}

// Close releases the log's file handle. No flush is needed: every append
// synced before acknowledging.
func (l *logged) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
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
	path   string
	header []byte
	crash  *Crasher
	every  int // appends per automatic rewrite; <= 0 disables
	f      *os.File
	// size is the end of the last acknowledged record: where the next
	// append starts, and where a failed one is cut back to.
	size int64
	// pending counts records appended since the last rewrite — at open,
	// every record the log held — against the every cadence.
	pending int

	appends, rewrites, rewriteFailures atomic.Uint64
	lastRewriteUnix                    atomic.Int64
}

// append writes one framed record through the crash seam and syncs it
// durable. On a mid-record injection the header and half the payload
// land on disk — exactly the torn tail recovery handles. An append that
// fails while the process lives on (a short write, a failed sync) is cut
// back off the file before the error returns, so no later record lands
// behind bytes the caller was told failed.
func (w *wal) append(payload []byte) error {
	if w.f == nil {
		return os.ErrClosed
	}
	if w.crash.hit(CrashBeforeAppend) {
		return ErrCrash
	}
	if w.crash.hit(CrashMidRecord) {
		writeFrame(w.f, payload, len(payload)/2)
		w.f.Sync()
		return ErrCrash
	}
	if err := w.write(payload); err != nil {
		w.cut()
		return err
	}
	w.size += walHeaderLen + int64(len(payload))
	if w.crash.hit(CrashAfterAppend) {
		return ErrCrash
	}
	w.pending++
	w.appends.Add(1)
	return nil
}

// write writes one framed record and syncs it, through the seam's two
// faults a process survives.
func (w *wal) write(payload []byte) error {
	if w.crash.hit(FaultShortWrite) {
		writeFrame(w.f, payload, len(payload)/2)
		return fmt.Errorf("%w: short write", ErrFault)
	}
	if err := appendWALFrame(w.f, payload); err != nil {
		return err
	}
	if w.crash.hit(FaultSync) {
		return fmt.Errorf("%w: sync", ErrFault)
	}
	return w.f.Sync()
}

// cut truncates the file back to the end of the last acknowledged
// record, durably — a torn tail at open, a failed append's bytes. A
// handle it cannot cut back is dropped, as rewrite drops one it cannot
// reopen, so later appends fail loudly (os.ErrClosed) until a rewrite
// succeeds.
func (w *wal) cut() error {
	err := w.f.Truncate(w.size)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.close()
	}
	return err
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
	size, err := w.replace(payloads, w.crash)
	if err != nil {
		return err
	}
	w.close()
	if w.crash.hit(CrashAfterRename) {
		return ErrCrash
	}
	if w.f, err = os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		return err
	}
	w.size = size
	w.pending = 0
	w.rewrites.Add(1)
	w.lastRewriteUnix.Store(time.Now().Unix())
	return nil
}

// replace writes the header and payloads, as framed records, to a fresh
// temp file, fsyncs it and renames it over the log — the one way a log
// is created or rewritten — returning the new log's size; crash is the
// seam a rewrite threads.
func (w *wal) replace(payloads [][]byte, crash *Crasher) (int64, error) {
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	size := int64(len(w.header))
	_, err = f.Write(w.header)
	for _, p := range payloads {
		if err == nil {
			err = appendWALFrame(f, p)
			size += walHeaderLen + int64(len(p))
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if crash.hit(CrashBeforeRename) {
		return 0, ErrCrash
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return 0, err
	}
	syncDir(filepath.Dir(w.path))
	return size, nil
}

// close releases the file handle.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
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
