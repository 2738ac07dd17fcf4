package vcqr

import (
	"bytes"
	"encoding/gob"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/wire"
)

// TestServingTreeIsPaperFree pins the split the tree layout promises:
// nothing that serves, signs or measures a verified query links a
// package of the paper tree (internal/paper/..., reached only through
// cmd/vcbench, bench_test.go and examples/).
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

// TestNoGobInServing pins the codec as one decision: of the non-test
// files under internal/ and cmd/, only internal/wire/streamgob.go — the
// legacy /stream request reader — imports encoding/gob. Everything on
// the wire and on disk is the field codec.
func TestNoGobInServing(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}} {{end}}`,
		"./internal/...", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var importers []string
	for _, path := range strings.Fields(string(out)) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				rel, _ := filepath.Rel(wd, path)
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
	}
	if want := []string{"internal/wire/streamgob.go"}; !slices.Equal(importers, want) {
		t.Errorf("encoding/gob is imported by %v, want %v", importers, want)
	}
}

// TestSHA256StaysInHashx pins the hash kernel as the one way to SHA-256:
// of everything under internal/ and cmd/, only internal/hashx imports
// crypto/sha256 outside its tests, so no hashing path bypasses the
// held kernel (sig's full-domain hash expands through hashx.MGF1).
func TestSHA256StaysInHashx(t *testing.T) {
	for _, pkg := range importers(t, "crypto/sha256") {
		if pkg != "vcqr/internal/hashx" {
			t.Errorf("%s imports crypto/sha256", pkg)
		}
	}
}

// importers lists the packages under internal/ and cmd/ whose non-test
// files import path.
func importers(t *testing.T, path string) []string {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Imports}}",
		"./internal/...", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	var pkgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if slices.Contains(strings.Fields(strings.Trim(imports, "[]")), path) {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs
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

	for _, pkg := range importers(t, "container/list") {
		if pkg != "vcqr/internal/cache" {
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

// TestOneHostingTable pins one registry of hosted relations: no non-test
// file of internal/server declares partTable, partMu, pinRetries, a
// Store type or shardName, or applies a delta through delta.Apply (the
// plain relation's second delta path), and exactly one type there
// carries the partition.Spec its slices were cut by — the node table,
// which InstallShard, recovery, AddPartition and AddRelation all fill.
func TestOneHostingTable(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^\s*(type\s+|const\s+|var\s+)?(partTable|partMu|pinRetries)\s`)
	second := regexp.MustCompile(`type\s+Store\b|func\s+shardName\b|delta\.Apply\(`)
	specField := regexp.MustCompile(`(?m)^\s+\w+\s+partition\.Spec\s*(//.*)?$`)
	tables := 0
	for name, src := range sources(t, "internal/server") {
		if m := decl.FindSubmatch(src); m != nil {
			t.Errorf("%s declares %s", name, m[2])
		}
		if m := second.Find(src); m != nil {
			t.Errorf("%s names %s", name, m)
		}
		tables += len(specField.FindAll(src, -1))
	}
	if tables != 1 {
		t.Errorf("internal/server declares %d types holding hosted slices (a partition.Spec field), want 1", tables)
	}
}

// TestOneChunkProducer pins one producer of a VO's chunks: no non-test
// file of internal/engine declares voStream, the unpartitioned producer
// Execute and ExecuteStream once ran beside the fan-out engine, and
// buildEntry — the step that turns a covered record into a VO entry —
// has exactly one call site, ShardPartial.Next. Every answer is a
// merge of shard partials; an unpartitioned one is the K = 1 merge.
func TestOneChunkProducer(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^\s*type\s+voStream\b`)
	call := regexp.MustCompile(`\.buildEntry\(`)
	funcLine := regexp.MustCompile(`(?m)^func [^\n]*`)
	var sites []string
	for name, src := range sources(t, filepath.Join("internal", "engine")) {
		if decl.Match(src) {
			t.Errorf("%s declares voStream", name)
		}
		for _, at := range call.FindAllIndex(src, -1) {
			fns := funcLine.FindAll(src[:at[0]], -1)
			if len(fns) == 0 {
				t.Fatalf("%s calls buildEntry outside a function", name)
			}
			sites = append(sites, string(fns[len(fns)-1]))
		}
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "func (sp *ShardPartial) Next()") {
		t.Errorf("buildEntry is called from %q, want only ShardPartial.Next", sites)
	}
}

// TestOneSignatureMode pins the condensed signature (Section 5.2), taken
// from the slice's crypto index, as the one signature a VO carries: no
// non-test file of internal/engine or internal/verify declares a field
// holding a list of signatures, names a piece of the per-entry mode
// (Publisher.Aggregate, IndividualSigs, Chunk.Sigs, the verifier's
// individual state) or checks a lone signature with PublicKey.Verify;
// and internal/engine folds signatures with an Aggregator only in
// MergeShards, which multiplies the shards' index-derived partials.
func TestOneSignatureMode(t *testing.T) {
	list := regexp.MustCompile(`(?m)^\s*\w+(\s*,\s*\w+)*\s+\[\]sig\.Signature\b`)
	mode := regexp.MustCompile(`Aggregate\s+bool|\.Aggregate\s*=[^=]|IndividualSigs|\.Sigs\b|\bindividual\s+bool|\.individual\b`)
	single := regexp.MustCompile(`(?i)\bpub\.Verify\(`)
	fold := regexp.MustCompile(`\.NewAggregator\(`)
	funcLine := regexp.MustCompile(`(?m)^func [^\n]*`)
	var folds []string
	for _, pkg := range []string{"engine", "verify"} {
		for name, src := range sources(t, filepath.Join("internal", pkg)) {
			for _, re := range []*regexp.Regexp{list, mode, single} {
				if m := re.Find(src); m != nil {
					t.Errorf("%s: %q", name, m)
				}
			}
			if pkg != "engine" {
				continue
			}
			for _, at := range fold.FindAllIndex(src, -1) {
				fns := funcLine.FindAll(src[:at[0]], -1)
				if len(fns) == 0 {
					t.Fatalf("%s calls NewAggregator outside a function", name)
				}
				folds = append(folds, string(fns[len(fns)-1]))
			}
		}
	}
	if len(folds) != 1 || !strings.HasPrefix(folds[0], "func MergeShards(") {
		t.Errorf("engine calls NewAggregator from %q, want only MergeShards", folds)
	}
}

// TestOneCacheGranularity pins the edge cache as one kind of entry, the
// merged stream, looked up in one place: no non-test file of
// internal/cluster names a decoded cache hit, a feed replayed from one
// or a tee on a node sub-stream; internal/cache exports exactly one
// lookup method; and internal/cluster/feed.go declares a single
// engine.ShardFeed implementation, the live node feed. It also pins one
// table type: inside internal/cache only store.go imports container/list,
// and the client's near store is that same *Store.
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
	for name, src := range sources(t, "internal/cache") {
		inStore := filepath.Base(name) == "store.go"
		if bytes.Contains(src, []byte(`"container/list"`)) != inStore {
			t.Errorf("%s: imports container/list = %v, want %v", name, !inStore, inStore)
		}
	}
	client, err := os.ReadFile(filepath.Join("internal", "cache", "client.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\s+near\s+\*Store$`).Match(client) {
		t.Error("internal/cache/client.go: Client's near field is not a *Store")
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
// is named only in streamgob.go, the one legacy /stream request format
// it still reads.
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
	allowed := map[string]bool{"streamgob.go": true}
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

// TestServingReachesARequest pins the serving tree (internal/... minus
// internal/paper/...) to code a request or the benchmark reaches: from
// every declaration of the three binaries and bench/ (BENCHMARK.json
// freezes it), the serving packages' var initialisers and init
// functions, the methods the standard library calls through interfaces
// and the allow-list, the name walk of reach_test.go must reach every
// serving function, method and type. An allow-list entry the walk
// reaches anyway, or that names nothing, fails too, so the list only
// shrinks; so does one whose reason does not start "test seam: " or
// "reference: ", so paper and example code cannot return to the serving
// tree. DESIGN.md "Paper tree" lists the entries by kind.
func TestServingReachesARequest(t *testing.T) {
	r, err := parseReach(os.DirFS("."), []string{"cmd/vcserve", "cmd/vcquery", "cmd/vcsign", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	for _, finding := range r.check(servingAllowList) {
		t.Error(finding)
	}
}

// servingAllowList names the serving declarations no request reaches
// that stay anyway, each with its reason. Whatever an entry reaches in
// turn needs no entry of its own.
var servingAllowList = map[string]string{
	// Test seams: hooks the serving code carries for its tests.
	"store.Crasher.Arm":        "test seam: crash-point drills arm the hook both durable write paths check",
	"store.Crasher.Fired":      "test seam: crash-point drills count the hook's firings",
	"hashx.Hasher.ResetOps":    "test seam: the kernel tests zero the hash-operation counter between cases (experiments/{cuser,fig10} count per query)",
	"relation.FloatVal":        "test seam: the value and filter tests build float values (examples/stocks prices its ticks with it)",
	"owner.NewWithKey":         "test seam: tests sign with one generated key instead of one per owner",
	"engine.Publisher.Execute": "test seam: tests query a registered relation by name in one call (examples and the paper tree too); it drains ExecuteStream, which engine and wire tests stream",
	"leakcheck.Main":           "test seam: the goroutine-leak gate the TestMain of engine, wire, server, cluster, cache and store installs; engine's fan-out Close test asserts through its Settle",

	// References other tests compare the serving code against.
	"core.EntryG":             "reference: Figure 8(b)'s g(r) rebuilt from a known key, which the golden tests hold the owner's digests to and the kernel tests count hashes and allocations of (the E7 ablation times it)",
	"core.LinearG":            "reference: formula (2)'s digest without Section 5.1, which the linear round trip closes against (the E7 ablation times it)",
	"sig.PublicKey.Aggregate": "reference: the plain product of a signature list, which the crypto index's range aggregates and the indexed stream are checked against",
}
