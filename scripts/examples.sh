#!/bin/sh
# Runs every example under examples/ and diffs its stdout against the
# golden examples/testdata/<name>.out, so a refactor that changes what an
# example prints fails here. Every example is seeded and prints no
# wall-clock figure, so its output repeats byte for byte. After a
# deliberate change, `go run ./examples/<name> >examples/testdata/<name>.out`
# rewrites a golden. Run by `make examples` and CI's docs job.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for dir in examples/*/; do
    name=$(basename "$dir")
    [ "$name" = testdata ] && continue
    go run "./$dir" >"$out"
    if ! diff -u "examples/testdata/$name.out" "$out"; then
        echo "examples/$name: output differs from examples/testdata/$name.out" >&2
        status=1
    fi
done
exit $status
