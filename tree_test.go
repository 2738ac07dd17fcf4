package vcqr

import (
	"bytes"
	"encoding/gob"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// TestServingTreeIsPaperFree pins the split the tree layout promises:
// nothing that serves, signs or measures a verified query links a
// package of the paper tree (internal/paper/..., reached only through
// cmd/vcbench, bench_test.go and examples/provenance).
func TestServingTreeIsPaperFree(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"./cmd/vcserve", "./cmd/vcquery", "./cmd/vcsign", "./bench").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "vcqr/internal/paper/") {
			t.Errorf("serving tree depends on %s", pkg)
		}
	}
}

// TestServingTreeHasNoInjector pins the fault-injection seam as test
// machinery: no non-test file of internal/cluster declares Injector, so
// no serving binary links it.
func TestServingTreeHasNoInjector(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^(type )?\s*Injector\s+(struct|interface|=)`)
	for name, src := range sources(t, "internal/cluster") {
		if decl.Match(src) {
			t.Errorf("%s declares Injector", name)
		}
	}
}

// TestGobStaysInWire pins the codec as a decision two packages hold: of
// everything under internal/ and cmd/, only internal/wire (the wire) and
// internal/store (the disk) import encoding/gob outside their tests.
func TestGobStaysInWire(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Imports}}",
		"./internal/...", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if !strings.Contains(imports, "encoding/gob") {
			continue
		}
		if pkg != "vcqr/internal/wire" && pkg != "vcqr/internal/store" {
			t.Errorf("%s imports encoding/gob", pkg)
		}
	}
}

// sources reads the non-test Go files of one package directory.
func sources(t *testing.T, dir string) map[string][]byte {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: %d files, %v", dir, len(files), err)
	}
	out := map[string][]byte{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = src
	}
	return out
}

// TestOneReadPath pins /stream as the only way a query is answered: no
// serving package outside its tests names a materialized engine.Result
// or collects a stream into one (clients do that, wire.Client.Query);
// internal/cache's LRU is the only one in the tree; and the endpoint
// table declares 14 endpoints whose unary replies each fit one frame —
// whatever could be larger is a frame stream.
func TestOneReadPath(t *testing.T) {
	materialized := regexp.MustCompile(`engine\.(Result|Collect)\b`)
	for _, dir := range []string{"internal/server", "internal/cluster", "cmd/vcserve"} {
		for name, src := range sources(t, dir) {
			if m := materialized.Find(src); m != nil {
				t.Errorf("%s names %s", name, m)
			}
		}
	}

	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Imports}}",
		"./internal/...", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if strings.Contains(imports, "container/list") && pkg != "vcqr/internal/cache" {
			t.Errorf("%s imports container/list", pkg)
		}
	}

	table, err := os.ReadFile(filepath.Join("internal", "wire", "endpoint.go"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(regexp.MustCompile(`Endpoint\{"/`).FindAll(table, -1)); n != 14 {
		t.Errorf("internal/wire/endpoint.go declares %d endpoints, want 14", n)
	}
	oneFrame := map[string]bool{"MaxQueryBody": true, "MaxChunkFrame": true, "MaxChunkFrame + frameHeader": true}
	caps := regexp.MustCompile(`ReplyCap: ([^,}]+)`).FindAllSubmatch(table, -1)
	if len(caps) != 11 {
		t.Errorf("found %d ReplyCap declarations, want one per unary row (11)", len(caps))
	}
	for _, m := range caps {
		if !oneFrame[string(m[1])] {
			t.Errorf("a unary reply is capped at %s, beyond one frame", m[1])
		}
	}
}

// TestOneCacheGranularity pins the edge cache as one kind of entry, the
// merged stream, looked up in one place: no non-test file of
// internal/cluster names a decoded cache hit, a feed replayed from one
// or a tee on a node sub-stream; internal/cache exports exactly one
// lookup method; and internal/cluster/feed.go declares a single
// engine.ShardFeed implementation, the live node feed.
func TestOneCacheGranularity(t *testing.T) {
	second := regexp.MustCompile(`cache\.Hit\b|replayFeed|ShardStreamTee`)
	for name, src := range sources(t, "internal/cluster") {
		if m := second.Find(src); m != nil {
			t.Errorf("%s names %s", name, m)
		}
	}
	lookups := 0
	for _, src := range sources(t, "internal/cache") {
		lookups += len(regexp.MustCompile(`(?m)^func \(\w+ \*?\w+\) Lookup\w*\(`).FindAll(src, -1))
	}
	if lookups != 1 {
		t.Errorf("internal/cache exports %d lookup methods, want 1", lookups)
	}
	feed, err := os.ReadFile(filepath.Join("internal", "cluster", "feed.go"))
	if err != nil {
		t.Fatal(err)
	}
	if feet := regexp.MustCompile(`(?m)^func \(\w+ \*?\w+\) Foot\(\)`).FindAll(feed, -1); len(feet) != 1 {
		t.Errorf("internal/cluster/feed.go declares %d types with a Foot() method, want 1", len(feet))
	}
}

// TestStreamFramesAreGobFree pins the transport's codec: a result-chunk
// frame and a node sub-stream frame are not gob — a gob decoder over a
// freshly written payload fails — and inside internal/wire encoding/gob
// is named only in wire.go, beside the snapshot, params and relation
// files and the one legacy /stream request format it still reads.
func TestStreamFramesAreGobFree(t *testing.T) {
	chunk := &engine.Chunk{Type: engine.ChunkFooter, Seq: 2, AggSig: []byte("sig")}
	var buf bytes.Buffer
	if err := wire.WriteChunkFrame(&buf, chunk); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[4:])).Decode(new(engine.Chunk)); err == nil {
		t.Error("a chunk frame's payload decodes as gob")
	}
	buf.Reset()
	if err := wire.WriteNodeFrame(&buf, &wire.NodeFrame{Chunk: chunk}); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[4:])).Decode(new(wire.NodeFrame)); err == nil {
		t.Error("a node frame's payload decodes as gob")
	}

	out, err := exec.Command("go", "list", "-f",
		`{{range .GoFiles}}{{.}} {{end}}`, "./internal/wire").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	allowed := map[string]bool{"wire.go": true}
	for _, name := range strings.Fields(string(out)) {
		src, err := os.ReadFile(filepath.Join("internal", "wire", name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte(`"encoding/gob"`)) != allowed[name] {
			t.Errorf("internal/wire/%s: imports encoding/gob = %v, want %v", name, !allowed[name], allowed[name])
		}
	}
}
