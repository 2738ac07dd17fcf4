package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadWALRecord drives the production WAL decode path with
// arbitrary bytes: every outcome must be a whole record, io.EOF, or an
// ErrWALTorn-named refusal — never a panic, never a silent skip.
func FuzzReadWALRecord(f *testing.F) {
	f.Add(frames([]byte("seed-record")))
	f.Add(frames([]byte("one"), []byte("two")))
	f.Add(frames([]byte{})[:4])           // short header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length, short header
	f.Add(frames(bytes.Repeat([]byte{7}, 300))[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadWALRecord(r)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrWALTorn) {
					t.Fatalf("unnamed decode failure: %v", err)
				}
				return
			}
			// A record that decoded must re-encode to a frame that
			// decodes to itself.
			re, err := ReadWALRecord(bytes.NewReader(frames(payload)))
			if err != nil || !bytes.Equal(re, payload) {
				t.Fatalf("re-encode round trip broke: %v", err)
			}
		}
	})
}
