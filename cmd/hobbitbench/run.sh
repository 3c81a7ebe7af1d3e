#!/bin/sh
# Builds hobbitbench and the hobbitd daemon from this checkout, then runs
# one benchmark workload with the given flags, e.g.
#
#   bash cmd/hobbitbench/run.sh --workload clean-100k --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, trace
# files) stays under .bench_build/ at the checkout root. Without the
# repository's own go.mod and internal/ tree next to this directory the
# build fails and the script exits non-zero before printing any result.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root" && go build -o "$out/bin/hobbitd" ./cmd/hobbitd)
(cd "$root/cmd/hobbitbench" && go build -o "$out/bin/hobbitbench" .)

cd "$root"
exec "$out/bin/hobbitbench" -hobbitd "$out/bin/hobbitd" -out-dir "$out" "$@"
