GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-verify fuzz docs examples loc smoke-cluster smoke-cache smoke-replica smoke-store metrics-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs at two cores, the benchmark's box size, so the goroutines
# that run beside a request — cache sweeps, fan-out producers —
# interleave as they do under load.
race:
	GOMAXPROCS=2 $(GO) test -race ./...

# bench runs the repo's one benchmark exactly as BENCHMARK.json declares
# it: every workload over real loopback HTTP through the unmodified
# verifiers (see bench/README.md for flags, metrics and comparing runs).
bench:
	$(GO) run ./bench

# bench-smoke is the CI-sized check that the Go benchmarks still run: one
# iteration of each, then the allocation gate.
bench-smoke: bench-verify
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-verify is the allocation gate on the verification kernel: the
# HashOp, GBaseB, VerifyAggregated and ChainSide/B=2/record benchmarks at
# a fixed 200 iterations, failing when allocs/op exceeds the kernel's
# ceilings (1 / 2 / 1500 / 2). Allocation counts repeat exactly, so this is the perf
# regression gate a shared CI box can hold (CI's "Bench smoke" step runs
# bench-smoke).
bench-verify:
	sh scripts/bench_verify.sh

# fuzz smoke-tests the wire decoders, all one field codec — the chunk
# frames, the cache frames, the node sub-stream frames the
# fault-injection seam replays, the node prepare replies (staged and
# neighbour edges), the recycling frame reader against
# one-shot decodes, the lease frames, the /stream request
# (legacy gob branch included) and the /delta body — plus everything on
# disk: the store's WAL framing, the node and coordinator log records,
# the client parameters and publication files (each refused by name or
# re-encoded to its own bytes), the
# held SHA-256 kernel (one block, two, streamed) and its MGF1 expansion
# against the stdlib digest, a whole digit chain in one call against
# step-by-step iteration, the once-hashed chain side (combined digest and boundary proof)
# against the reference construction, the one-walk delta diff against
# the map-based reference (and its ops round-tripping), the
# binary-search delta apply against the linear reference, the
# Barrett-reduced FDH product against Mul+Mod, the Barrett-reduced
# product tree (nodes, range folds, updates) against Mul+Mod, the
# Barrett public-key exponentiation against math/big's Exp — and the
# verifier's
# soundness: edited streams are refused or release exactly the rows an
# oracle scan of the owner's relation holds.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadChunkFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadCacheFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadNodeFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadNodeDeltaResponse -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzRecycledChunkReader -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadLeaseFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadStreamRequest -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadDeltaRequest -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadWALRecord -fuzztime 30s ./internal/store
	$(GO) test -run xxx -fuzz FuzzReadNodeRecord -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadCoordRecord -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadClientParams -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadPublication -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzSum -fuzztime 30s ./internal/hashx
	$(GO) test -run xxx -fuzz FuzzChain -fuzztime 30s ./internal/hashx
	$(GO) test -run xxx -fuzz FuzzChainSide -fuzztime 30s ./internal/core
	$(GO) test -run xxx -fuzz FuzzDiff -fuzztime 30s ./internal/delta
	$(GO) test -run xxx -fuzz FuzzApplyOps -fuzztime 30s ./internal/delta
	$(GO) test -run xxx -fuzz FuzzAggVerifierAdd -fuzztime 30s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzProductTree -fuzztime 30s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzVerifyExp -fuzztime 30s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzStreamSound -fuzztime 30s ./internal/verify

# smoke-cluster launches 1 coordinator + 2 shard nodes as separate OS
# processes, streams a cross-node verified query and runs one online
# rebalance — the verbatim-tested README quickstart for the distributed
# tier (also run by CI).
smoke-cluster:
	sh scripts/cluster_smoke.sh

# smoke-replica launches 1 coordinator + 3 shard nodes at R=2 as
# separate OS processes, kills one node mid-traffic and proves every
# verified query still answers (zero failures) while the routing table
# demotes the dead node — the verbatim-tested README replication
# quickstart (also run by CI).
smoke-replica:
	sh scripts/replica_smoke.sh

# smoke-store launches the replicated cluster with every process backed
# by a -data-dir, SIGKILLs a node under live traffic and proves it
# rejoins from its own WAL with zero slices re-transferred and zero
# failed queries — the verbatim-tested README durability quickstart
# (also run by CI).
smoke-store:
	sh scripts/store_smoke.sh

# smoke-cache adds an untrusted edge-cache peer to the multi-process
# cluster, repeats a verified stream query until the tier serves a
# validated hit, and asserts the hit from both sides — the
# verbatim-tested README "Edge caching" quickstart (also run by CI).
smoke-cache:
	sh scripts/cache_smoke.sh

# metrics-smoke exercises every monitoring surface of a live vcserve:
# /metrics, /metrics.json, /debug/slowlog and pprof, on the query port
# and the standalone -debug-addr listener — the verbatim-tested form of
# docs/OPERATIONS.md § "Monitoring" (also run by CI).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# docs checks formatting hygiene and that every example still builds, so
# the snippets README/DESIGN point at cannot rot.
docs:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./examples/...

# examples runs all six examples and diffs each one's stdout against its
# golden in examples/testdata, so a refactor cannot change what an
# example prints unseen (also run by CI's docs job).
examples:
	@sh scripts/examples.sh

# loc prints the non-test Go code lines (blank and comment-only lines
# and bench/ excluded) per package and as three totals — serving, paper
# (internal/paper/... + cmd/vcbench, which serve no request) and total —
# the numbers a simplicity PR reports before and after (also printed by
# CI's docs job).
loc:
	@sh scripts/loc.sh

ci: vet build race docs examples
