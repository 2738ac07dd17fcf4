package wire

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// endlessReply answers every request 200 with a gob message that claims
// a gigabyte and never ends, counting what the caller pulls from it.
type endlessReply struct{ read int64 }

func (e *endlessReply) RoundTrip(*http.Request) (*http.Response, error) {
	claim := []byte{0xfc, 0x3f, 0xff, 0xff, 0xff} // gob uint: 4 bytes follow, 1 GiB - 1
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(io.MultiReader(
		bytes.NewReader(claim), e))}, nil
}

func (e *endlessReply) Read(p []byte) (int, error) {
	clear(p)
	e.read += int64(len(p))
	return len(p), nil
}

// TestCallCapsUntrustedReply: a Byzantine peer answering with an endless
// reply costs the caller at most the row's ReplyCap (+1 byte to tell "at
// the cap" from "beyond it"), not gob's own gigabyte-scale message limit
// — and every row of the table declares such a cap, none above one frame
// (a reply that could be larger is a frame stream). The row under test is
// a scaled-down /shard/edges so the check itself stays small.
func TestCallCapsUntrustedReply(t *testing.T) {
	const replyCap = 4096
	peer := &endlessReply{}
	row := &RPC[ShardRef, EdgeResponse]{Endpoint: ShardEdgesRPC.Endpoint, ReplyCap: replyCap}
	_, err := row.Call(&Client{BaseURL: "http://node", HTTP: &http.Client{Transport: peer}}, ShardRef{Relation: "r"})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 4096-byte cap") {
		t.Fatalf("endless reply: %v, want the cap named", err)
	}
	if got := peer.read + 5; got > replyCap+1 {
		t.Fatalf("read %d bytes of an endless reply, cap is %d", got, replyCap)
	}

	for path, c := range map[string]int64{
		DeltaRPC.Path:      DeltaRPC.ReplyCap,
		ShardEdgesRPC.Path: ShardEdgesRPC.ReplyCap, ShardDigestRPC.Path: ShardDigestRPC.ReplyCap,
		ShardRemoveRPC.Path: ShardRemoveRPC.ReplyCap, HostedRPC.Path: HostedRPC.ReplyCap,
		NodeDeltaRPC.Path: NodeDeltaRPC.ReplyCap, NodeMirrorRPC.Path: NodeMirrorRPC.ReplyCap,
		NodeTxRPC.Path: NodeTxRPC.ReplyCap, ShardInstallRPC.Path: ShardInstallRPC.ReplyCap,
		NodeLeaseRPC.Path: NodeLeaseRPC.ReplyCap, CacheRPC.Path: CacheRPC.ReplyCap,
	} {
		if c <= 0 || c > MaxChunkFrame+frameHeader {
			t.Errorf("%s declares reply cap %d", path, c)
		}
	}
}
