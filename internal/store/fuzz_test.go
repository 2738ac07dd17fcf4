package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadWALRecord drives the production log scan (scanWAL) with
// arbitrary bytes: every outcome is a run of whole records that tiles the
// image up to valid, then a clean end, a tear (ErrWALTorn) or a refusal
// naming the damaged record (ErrWALCorrupt) — never a panic, never a
// silent skip.
func FuzzReadWALRecord(f *testing.F) {
	f.Add(frames([]byte("seed-record")))
	f.Add(frames([]byte("one"), []byte("two")))
	f.Add(frames([]byte{})[:4])           // short header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length, short header
	f.Add(frames(bytes.Repeat([]byte{7}, 300))[:20])
	flipped := frames([]byte("one"), []byte("two"))
	flipped[walHeaderLen] ^= 0x01 // the first frame's payload: damage with more log after it
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn, err := scanWAL(data, 0)
		if err != nil {
			var c *walCorrupt
			if !errors.As(err, &c) || !errors.Is(err, ErrWALCorrupt) || torn != nil || recs != nil {
				t.Fatalf("refusal %v (torn %v, %d records) does not name a damaged record", err, torn, len(recs))
			}
			if c.offset < 0 || c.offset >= int64(len(data)) {
				t.Fatalf("damaged record at offset %d of a %d-byte log", c.offset, len(data))
			}
			return
		}
		if torn != nil && !errors.Is(torn, ErrWALTorn) || torn == nil && valid != int64(len(data)) {
			t.Fatalf("scan stopped at %d of %d bytes, tear %v", valid, len(data), torn)
		}
		// The records re-encode to exactly the bytes before the tear.
		var payloads [][]byte
		for _, r := range recs {
			payloads = append(payloads, r.payload)
		}
		if re := frames(payloads...); !bytes.Equal(re, data[:valid]) {
			t.Fatalf("records re-encode to %d bytes, the log holds %d before its tear", len(re), valid)
		}
	})
}
