package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"vcqr/internal/wire"
)

// This file is the deterministic fault-injection seam the replication
// tier's tests are built on. An Injector is an http.RoundTripper that a
// test hands the coordinator (cluster.Config.HTTP); it can kill, hang,
// delay or corrupt traffic to a chosen node — either the whole round
// trip, or at a precise stage *inside* a shard sub-stream (before the
// hello, mid-chunk, before the foot) by parsing the node-frame protocol
// as it flows. Faults fire on exact frame boundaries, so every failover
// path is a table-driven test, not timing luck. It lives in a test file
// so no serving binary links it; it is exported for the external
// cluster_test package, whose replication and cache tests drive it.

// FaultStage selects where inside a matched exchange a fault fires.
type FaultStage int

const (
	// StageRoundTrip faults the whole exchange before any bytes move —
	// indistinguishable from a connection refused / dead host.
	StageRoundTrip FaultStage = iota
	// StageBeforeHello fires before the sub-stream's hello frame is
	// delivered: the stream opened at the transport level but dies (or
	// stalls, or lies) before the coordinator learns the slice identity.
	StageBeforeHello
	// StageMidChunk fires after the first entries chunk has been
	// delivered — the merge has consumed real bytes when the fault hits.
	StageMidChunk
	// StageBeforeFoot fires when the foot frame arrives, before it is
	// delivered: the stream dies with every chunk shipped but the
	// signature material missing.
	StageBeforeFoot
)

// FaultMode selects what happens at the chosen stage.
type FaultMode int

const (
	// Kill severs the exchange: a transport error at StageRoundTrip, an
	// unexpected EOF mid-body otherwise — what a SIGKILL'd node looks
	// like from the coordinator.
	Kill FaultMode = iota
	// Hang blocks until the request context is cancelled or the
	// injector's Release is called — what a wedged (not dead) node looks
	// like; the slow-vs-dead distinction leases exist for.
	Hang
	// Delay sleeps Fault.Delay once at the stage, then proceeds.
	Delay
	// Corrupt flips bytes in the frame at the stage — on a hello, the
	// claimed slice digest and seam material are mutated, the Byzantine
	// replica the quarantine path must catch. Other frames get a payload
	// byte flipped.
	Corrupt
	// Rewrite hands the node frame at the stage to Fault.Edit and
	// delivers what it leaves, re-encoded — a node that lies in one chosen
	// field of an otherwise well-formed frame.
	Rewrite
)

// Fault arms one fault. Zero values mean "match everything": an empty
// Node matches every node, an empty Path every endpoint.
type Fault struct {
	// Node matches targets whose URL starts with it (a node base URL).
	Node string
	// Path matches the request path exactly (wire.ShardStreamEP.Path, ...).
	Path  string
	Stage FaultStage
	Mode  FaultMode
	// Delay is the sleep for Mode Delay.
	Delay time.Duration
	// Times bounds how often the fault fires; 0 = every match.
	Times int
	// Edit is Mode Rewrite's edit.
	Edit func(*wire.NodeFrame)
}

// ErrInjectedKill is the transport error a StageRoundTrip Kill returns —
// recognizably synthetic in test failure output.
var ErrInjectedKill = errors.New("cluster: injected fault: connection killed")

// Injector is the fault-injecting transport. Arm faults with Set, drop
// them with Clear, unblock hung exchanges with Release. Safe for
// concurrent use; matching is first-armed-first-matched.
type Injector struct {
	inner http.RoundTripper

	mu      sync.Mutex
	faults  []*armedFault
	release chan struct{}
	// fired counts faults that actually triggered, for test asserts.
	fired int
}

type armedFault struct {
	f    Fault
	left int // remaining firings; -1 = unlimited
}

// NewInjector wraps a transport (nil = http.DefaultTransport).
func NewInjector(inner http.RoundTripper) *Injector {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Injector{inner: inner, release: make(chan struct{})}
}

// Set arms a fault.
func (in *Injector) Set(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	left := -1
	if f.Times > 0 {
		left = f.Times
	}
	in.faults = append(in.faults, &armedFault{f: f, left: left})
}

// Clear disarms every fault (hung exchanges stay hung until Release).
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = nil
}

// Release unblocks every current and future Hang until the next Set of
// a Hang fault re-arms blocking.
func (in *Injector) Release() {
	in.mu.Lock()
	defer in.mu.Unlock()
	select {
	case <-in.release:
	default:
		close(in.release)
	}
}

// Fired reports how many faults have triggered.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// claim finds and consumes the first armed fault matching the request.
func (in *Injector) claim(req *http.Request) (Fault, chan struct{}, bool) {
	target := req.URL.Scheme + "://" + req.URL.Host
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, af := range in.faults {
		if af.left == 0 {
			continue
		}
		if af.f.Node != "" && !strings.HasPrefix(target, af.f.Node) && !strings.HasPrefix(af.f.Node, target) {
			continue
		}
		if af.f.Path != "" && req.URL.Path != af.f.Path {
			continue
		}
		if af.left > 0 {
			af.left--
		}
		in.fired++
		return af.f, in.release, true
	}
	return Fault{}, nil, false
}

// RoundTrip applies at most one armed fault to the exchange.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	f, release, ok := in.claim(req)
	if !ok {
		return in.inner.RoundTrip(req)
	}
	if f.Stage == StageRoundTrip {
		switch f.Mode {
		case Kill:
			return nil, fmt.Errorf("%w: %s%s", ErrInjectedKill, req.URL.Host, req.URL.Path)
		case Hang:
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-release:
				return in.inner.RoundTrip(req)
			}
		case Delay:
			select {
			case <-req.Context().Done():
				return nil, req.Context().Err()
			case <-time.After(f.Delay):
			}
			return in.inner.RoundTrip(req)
		case Corrupt:
			// Whole-exchange corruption only makes sense on framed
			// bodies; treat as a frame-stage corrupt of the first frame.
			f.Stage = StageBeforeHello
		}
	}
	resp, err := in.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &faultBody{
		inner:   resp.Body,
		ctx:     req.Context(),
		fault:   f,
		release: release,
	}
	return resp, nil
}

// faultBody wraps a node-frame response body, parsing frames as they
// flow so a fault fires on an exact protocol boundary.
type faultBody struct {
	inner   io.ReadCloser
	ctx     context.Context
	fault   Fault
	release chan struct{}

	buf    bytes.Buffer // bytes cleared for delivery
	frames int          // frames delivered so far
	chunks int          // entry chunks delivered so far
	done   bool         // fault already fired (Delay/Corrupt pass-through)
	err    error        // sticky
}

func (fb *faultBody) Read(p []byte) (int, error) {
	for fb.buf.Len() == 0 {
		if fb.err != nil {
			return 0, fb.err
		}
		if err := fb.pump(); err != nil {
			fb.err = err
			if fb.buf.Len() == 0 {
				return 0, err
			}
			break
		}
	}
	return fb.buf.Read(p)
}

// pump moves one frame from the wire into buf, firing the armed fault
// when the frame crosses the configured stage.
func (fb *faultBody) pump() error {
	var hdr [4]byte
	if _, err := io.ReadFull(fb.inner, hdr[:]); err != nil {
		return err
	}
	n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
	body := make([]byte, n)
	if _, err := io.ReadFull(fb.inner, body); err != nil {
		return err
	}
	frame := append(hdr[:], body...)

	// Classify: the frame protocols here are NodeFrame sub-streams; a
	// frame that does not decode as one (transfer frames, lease acks) is
	// classified positionally only.
	nf, _ := wire.ReadNodeFrame(bytes.NewReader(frame))
	at := false
	if !fb.done {
		switch fb.fault.Stage {
		case StageBeforeHello:
			at = fb.frames == 0
		case StageMidChunk:
			at = fb.chunks == 1 // first chunk delivered, fault the next frame
		case StageBeforeFoot:
			at = nf != nil && nf.Foot != nil
		}
	}
	if at {
		fb.done = true
		switch fb.fault.Mode {
		case Kill:
			fb.inner.Close()
			return io.ErrUnexpectedEOF
		case Hang:
			select {
			case <-fb.ctx.Done():
				return fb.ctx.Err()
			case <-fb.release:
			}
		case Delay:
			select {
			case <-fb.ctx.Done():
				return fb.ctx.Err()
			case <-time.After(fb.fault.Delay):
			}
		case Corrupt:
			frame = corruptFrame(frame, nf)
		case Rewrite:
			var buf bytes.Buffer
			if nf != nil {
				fb.fault.Edit(nf)
				if err := wire.WriteNodeFrame(&buf, nf); err != nil {
					return err
				}
				frame = buf.Bytes()
			}
		}
	}
	fb.frames++
	if nf != nil && nf.Chunk != nil {
		fb.chunks++
	}
	fb.buf.Write(frame)
	return nil
}

// corruptFrame mutates one frame. A hello gets its claimed slice digest
// and seam material flipped — a replica lying about what it hosts, which
// the quarantine path must attribute; any other frame gets a payload
// byte flipped, garbage the decoder or verifier rejects.
func corruptFrame(frame []byte, nf *wire.NodeFrame) []byte {
	if nf != nil && nf.Hello != nil {
		h := *nf.Hello
		if len(h.Digest) > 0 {
			h.Digest = h.Digest.Clone()
			h.Digest[0] ^= 0x01
		}
		// Flip the head and tail hand-off records so the corruption breaks
		// the seam with whichever neighbour the cover pairs this shard with.
		if len(h.Edges.Head[0].G) > 0 {
			h.Edges.Head[0].G = h.Edges.Head[0].G.Clone()
			h.Edges.Head[0].G[0] ^= 0x01
		}
		if len(h.Edges.Tail[1].G) > 0 {
			h.Edges.Tail[1].G = h.Edges.Tail[1].G.Clone()
			h.Edges.Tail[1].G[0] ^= 0x01
		}
		var buf bytes.Buffer
		if wire.WriteNodeFrame(&buf, &wire.NodeFrame{Hello: &h}) == nil {
			return buf.Bytes()
		}
	}
	out := append([]byte(nil), frame...)
	if len(out) > 4 {
		out[len(out)-1] ^= 0x01
	}
	return out
}

func (fb *faultBody) Close() error { return fb.inner.Close() }
