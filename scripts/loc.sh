#!/bin/sh
# Code-line count for simplicity PRs: non-test Go lines that are neither
# blank nor comment-only, per package (every .go file outside bench/,
# whose sources BENCHMARK.json freezes; examples/ is one row, cmd/ other
# than vcbench and the root package are the "other" row), then three
# totals: paper (internal/paper/... and its front end cmd/vcbench —
# code that serves no request), serving (everything but paper and
# examples) and total (all three).
# The rule is mechanical on purpose — a PR's "lines removed" is this
# script's total at the parent commit minus its total at the change. Run
# by `make loc` and CI's docs job.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' |
    xargs awk '
    !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {
        key = "other"
        np = split(FILENAME, part, "/")
        if (np >= 5 && part[2] == "internal" && part[3] == "paper") key = "internal/paper/" part[4]
        else if (np >= 4 && part[2] == "internal") key = "internal/" part[3]
        else if (part[2] == "cmd" && part[3] == "vcbench") key = "cmd/vcbench"
        else if (part[2] == "examples") key = "examples"
        n[key]++
    }
    END { for (k in n) print k, n[k] }' |
    sort |
    awk '{
        printf "%-28s %6d\n", $1, $2
        if ($1 ~ /^internal\/paper\// || $1 == "cmd/vcbench") paper += $2
        else if ($1 != "examples") serving += $2
        total += $2
    }
    END {
        printf "%-28s %6d\n", "serving", serving
        printf "%-28s %6d\n", "paper", paper
        printf "%-28s %6d\n", "total", total
    }'
