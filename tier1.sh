#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
# - gofmt must report no files (output fails the gate);
# - go vet and the repo's own static-analysis suite (cmd/hobbitlint)
#   are hard gates: determinism (nondeterm-rand, nondeterm-maprange,
#   wallclock), hot-path (hotpath-alloc), and wire-format (api-compat vs
#   compat.lock) invariants are machine-checked, not review
#   conventions, and every //lint:ignore must still be earning its
#   keep (stale-suppression);
# - tests run exactly once, under -race: the race leg exercises a strict
#   superset of the plain run (campaign workers, the parallel
#   clustering/validation pools, and the telemetry registry all share
#   memory across goroutines), so a separate non-race leg would only
#   repeat the same assertions. -count=1 defeats the test cache so the
#   gate always executes, never replays; -shuffle=on randomizes test
#   order each run, so hidden inter-test state (a package-level cache
#   warmed by an earlier test, say) surfaces as a flake here instead of
#   an ordering accident that only breaks when someone adds a test —
#   the seed is printed on failure for reproduction with -shuffle=SEED;
# - the fault-injection layer and the accuracy harness carry a coverage
#   floor: they are the safety net that catches inference regressions in
#   everything else, so untested paths there silently weaken every other
#   gate. -short skips their multi-run determinism legs (already covered
#   by the -race run above), keeping the coverage pass cheap.
set -ex

test -z "$(gofmt -l . | tee /dev/stderr)"
go vet ./...
go build ./...
go run ./cmd/hobbitlint ./...
go test -race -count=1 -shuffle=on ./...

for pkg in ./internal/faultplan ./internal/harness ./internal/confidence ./internal/metadata; do
    cov=$(go test -short -count=1 -cover "$pkg" | tee /dev/stderr \
        | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    test -n "$cov"
    awk -v cov="$cov" -v floor=85 'BEGIN { exit !(cov + 0 >= floor) }'
done
