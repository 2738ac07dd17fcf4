#!/bin/sh
# Allocation gate on the verification kernel: runs the four benchmarks
# that cover it — one iterated-hash step (HashOp), one g(r) recomputed
# from a known key (GBaseB), one 100-row result verified against a
# condensed signature (VerifyAggregated), one record-path chain side at
# B = 2 hashed by the owner and a re-validating node
# (ChainSide/B=2/record) — and fails when allocs/op exceeds the kernel's
# ceiling. Allocation counts repeat exactly, so this holds on a shared
# box where a timing gate cannot. Run by `make bench-verify` and CI's
# "Bench smoke" step.
set -eu

out="$(go test -run '^$' -bench 'VerifyAggregated|GBaseB|HashOp' -benchmem -benchtime 200x . ./internal/hashx)
$(go test -run '^$' -bench 'ChainSide/B=2/record$' -benchmem -benchtime 200x ./internal/core)"
echo "$out"
echo "$out" | awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    allocs = -1
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1)
    ceiling = name ~ /VerifyAggregated/ ? 1500 : name ~ /GBaseB|ChainSide/ ? 2 : 1
    seen++
    if (allocs < 0 || allocs > ceiling) {
        printf "bench-verify: %s: %s allocs/op, ceiling %d\n", name, allocs, ceiling
        bad = 1
    }
}
END {
    if (seen != 4) { printf "bench-verify: expected 4 benchmarks, saw %d\n", seen; exit 1 }
    exit bad
}'
