#!/bin/sh
# Code-line count for simplicity PRs: non-test Go lines that are neither
# blank nor comment-only, per internal/* package and in total (every .go
# file outside bench/, whose sources BENCHMARK.json freezes; cmd/,
# examples/ and the root package are the "other" row). The rule is
# mechanical on purpose — a PR's "lines removed" is this script's total
# at the parent commit minus its total at the change. Run by `make loc`
# and CI's docs job.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' |
    xargs awk '
    !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {
        key = "other"
        if (split(FILENAME, part, "/") >= 4 && part[2] == "internal") key = "internal/" part[3]
        n[key]++
    }
    END { for (k in n) print k, n[k] }' |
    sort |
    awk '{ printf "%-22s %6d\n", $1, $2; t += $2 } END { printf "%-22s %6d\n", "total", t }'
