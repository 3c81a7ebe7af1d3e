#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
# - gofmt must report no files (output fails the gate);
# - go vet and the repo's own static-analysis suite (cmd/hobbitlint)
#   are hard gates: determinism (nondeterm-rand, nondeterm-maprange,
#   wallclock), hot-path (hotpath-alloc), and wire-format (api-compat vs
#   compat.lock) invariants are machine-checked, not review
#   conventions, and every //lint:ignore must still be earning its
#   keep (stale-suppression);
# - tests run once under -race (campaign workers, the parallel
#   clustering/validation pools, and the telemetry registry all share
#   memory across goroutines). -count=1 defeats the test cache so the
#   gate always executes, never replays; -shuffle=on randomizes test
#   order each run, so hidden inter-test state (a package-level cache
#   warmed by an earlier test, say) surfaces as a flake here instead of
#   an ordering accident that only breaks when someone adds a test —
#   the seed is printed on failure for reproduction with -shuffle=SEED;
# - the allocation budgets then run in a second, non-race leg: the race
#   detector instruments allocation sites, so every AllocsPerRun test
#   sits in a //go:build !race file that the -race leg compiles out.
#   The leg runs only the tests named *Alloc* (the prober's per-
#   destination budgets, the measurer's per-/24 budgets and the other
#   zero-alloc contracts);
# - the benchmark module (cmd/hobbitbench) has its own go.mod, so the
#   root's build, vet and test runs above all skip it; it is vetted and
#   tested in its own directory, so a change to an internal API it
#   reads cannot break the benchmark while this gate stays green;
# - the fault-injection layer and the accuracy harness carry a coverage
#   floor: they are the safety net that catches inference regressions in
#   everything else, so untested paths there silently weaken every other
#   gate. So do the clustering stages (similarity graph, MCL, the
#   per-epoch sweep cache and the monitor that drives it), whose
#   byte-identity contracts rest on their own tests; the layers the
#   prober's results feed (the per-/24 classifier, the path sets it
#   reads, and the pipeline that drives both); the census that feeds
#   the campaign (zmap), the aggregation its verdicts feed (aggregate),
#   and the simulator whose ground truth the oracle tests read (netsim);
#   and the shared plumbing every stage counts and fans out through: the
#   telemetry registry the probe accounting writes to (telemetry) and
#   the worker pools (parallel); and the leaf libraries beneath them:
#   address and prefix arithmetic (iputil), the statistical toolkit
#   (stats), the keyed deterministic randomness (rng), the RTT model and
#   cellular detector (rttmodel) and the published block map (blockmap);
#   and the v1 wire types both front ends marshal through (api), whose
#   summary builders copy the pipeline's and the monitor's results.
#   internal/probe itself stays out until its raw-socket paths have
#   tests. -short skips the multi-run determinism legs (already covered
#   by the -race run above), keeping the coverage pass cheap.
set -ex

test -z "$(gofmt -l . | tee /dev/stderr)"
go vet ./...
go build ./...
go run ./cmd/hobbitlint ./...
go test -race -count=1 -shuffle=on ./...
go test -count=1 -run 'Alloc' ./...
(cd cmd/hobbitbench && go vet ./... && go test -count=1 ./...)

for pkg in ./internal/faultplan ./internal/harness ./internal/confidence ./internal/metadata \
    ./internal/cluster ./internal/mcl ./internal/graph ./internal/monitor \
    ./internal/hobbit ./internal/trace ./internal/core \
    ./internal/zmap ./internal/aggregate ./internal/netsim \
    ./internal/telemetry ./internal/parallel \
    ./internal/iputil ./internal/stats ./internal/rng ./internal/rttmodel ./internal/blockmap \
    ./internal/api; do
    cov=$(go test -short -count=1 -cover "$pkg" | tee /dev/stderr \
        | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    test -n "$cov"
    awk -v cov="$cov" -v floor=85 'BEGIN { exit !(cov + 0 >= floor) }'
done
