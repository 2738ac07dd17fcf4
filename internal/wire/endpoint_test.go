package wire

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// endlessReply answers every request 200 with a frame whose length
// prefix claims a whole MaxChunkFrame and whose payload never ends,
// counting what the caller pulls from it.
type endlessReply struct{ read int64 }

func (e *endlessReply) RoundTrip(*http.Request) (*http.Response, error) {
	claim := []byte{0x04, 0x00, 0x00, 0x00} // 64 MiB == MaxChunkFrame
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
// the cap" from "beyond it"), not the frame's own claim — and every row
// of the table declares such a cap, none above one frame (a reply that
// could be larger is a frame stream). The row under test is a
// scaled-down /shard/edges so the check itself stays small.
func TestCallCapsUntrustedReply(t *testing.T) {
	const replyCap = 4096
	peer := &endlessReply{}
	row := &RPC[ShardRef, EdgeResponse]{Endpoint: ShardEdgesRPC.Endpoint, ReplyCap: replyCap,
		req: ShardEdgesRPC.req, resp: ShardEdgesRPC.resp}
	_, err := row.Call(&Client{BaseURL: "http://node", HTTP: &http.Client{Transport: peer}}, ShardRef{Relation: "r"})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 4096-byte cap") {
		t.Fatalf("endless reply: %v, want the cap named", err)
	}
	if got := peer.read + frameHeader; got > replyCap+1 {
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

// TestEveryRowHasACodec: the codec's zero value means nothing, so every
// row of the table must name both halves of its request codec and, on
// the unary rows, of its reply codec. All 14 rows are listed. The one
// writer left unset is /shard/install's: its request already is a byte
// stream, which requestBody passes through as it stands.
func TestEveryRowHasACodec(t *testing.T) {
	rows := map[string]bool{
		DeltaRPC.Path:        unarySet(DeltaRPC),
		ShardEdgesRPC.Path:   unarySet(ShardEdgesRPC),
		ShardDigestRPC.Path:  unarySet(ShardDigestRPC),
		ShardRemoveRPC.Path:  unarySet(ShardRemoveRPC),
		HostedRPC.Path:       unarySet(HostedRPC),
		NodeDeltaRPC.Path:    unarySet(NodeDeltaRPC),
		NodeMirrorRPC.Path:   unarySet(NodeMirrorRPC),
		NodeTxRPC.Path:       unarySet(NodeTxRPC),
		ShardInstallRPC.Path: ShardInstallRPC.req.r != nil && set(ShardInstallRPC.resp),
		NodeLeaseRPC.Path:    unarySet(NodeLeaseRPC),
		CacheRPC.Path:        unarySet(CacheRPC),
		StreamEP.Path:        set(StreamEP.req),
		ShardStreamEP.Path:   set(ShardStreamEP.req),
		ShardFetchEP.Path:    set(ShardFetchEP.req),
	}
	if len(rows) != 14 {
		t.Fatalf("%d distinct rows listed, the table has 14", len(rows))
	}
	for path, ok := range rows {
		if !ok {
			t.Errorf("%s leaves a codec unset", path)
		}
	}
}

func set[T any](c codec[T]) bool { return c.w != nil && c.r != nil }

func unarySet[Req, Resp any](e *RPC[Req, Resp]) bool { return set(e.req) && set(e.resp) }
