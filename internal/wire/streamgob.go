package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// This file is the one reader of gob left in serving code. It goes with
// ROADMAP item 1(f): once bench's traced client writes its request with
// WriteStreamRequest, readStreamRequest reads frames only and this file
// is deleted.

// readStreamRequest reads a /stream request body: a field-codec frame
// (WriteStreamRequest, what Client sends), or a gob-encoded StreamRequest
// as clients built before the field codec send it. The first byte tells
// them apart: a frame opens with its 4-byte big-endian length, which
// under MaxQueryBody starts with 0x00, and a gob stream opens with a
// message length, which never is 0. The gob branch is the one request
// format still read as gob; it goes once the last gob writer (bench's
// traced client) moves onto WriteStreamRequest.
func readStreamRequest(r io.Reader, req *StreamRequest) error {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return err
	}
	r = io.MultiReader(bytes.NewReader(first[:]), r)
	if first[0] == 0 {
		return streamRequestBody.r(r, req)
	}
	if err := gob.NewDecoder(r).Decode(req); err != nil {
		return fmt.Errorf("wire: decode gob stream request: %w", err)
	}
	return nil
}
