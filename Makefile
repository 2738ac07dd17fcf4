GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-verify fuzz docs loc smoke-cluster smoke-cache smoke-replica smoke-store metrics-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
# HashOp, GBaseB and VerifyAggregated benchmarks at a fixed 200
# iterations, failing when allocs/op exceeds the kernel's ceilings
# (1 / 2 / 1500). Allocation counts repeat exactly, so this is the perf
# regression gate a shared CI box can hold (CI's "Bench smoke" step runs
# bench-smoke).
bench-verify:
	sh scripts/bench_verify.sh

# fuzz smoke-tests the wire decoders, all one field codec — the chunk
# frames, the cache frames, the node sub-stream frames the
# fault-injection seam replays, the lease frames, the /stream request
# (legacy gob branch included) and the /delta body — plus the durable
# store's on-disk codecs (WAL records and epoch snapshot files).
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadChunkFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadCacheFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadNodeFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadLeaseFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadStreamRequest -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadDeltaRequest -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadWALRecord -fuzztime 30s ./internal/store
	$(GO) test -run xxx -fuzz FuzzReadSnapshot -fuzztime 30s ./internal/store

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

# loc prints the non-test Go code lines (blank and comment-only lines
# and bench/ excluded) per package and as three totals — serving, paper
# (internal/paper/... + cmd/vcbench, which serve no request) and total —
# the numbers a simplicity PR reports before and after (also printed by
# CI's docs job).
loc:
	@sh scripts/loc.sh

ci: vet build race docs
