package cluster

import (
	"strings"

	"github.com/hobbitscan/hobbit/internal/aggregate"
)

// Rolling is the epoch-over-epoch form of the clusterer: each Epoch
// builds the epoch's similarity graph afresh and clusters it through the
// same finish as Streamer.Finish, but keeps the previous epoch's MCL
// sweeps, so under route churn only the components that changed run MCL
// again.
//
// The headline contract (DESIGN.md §4j) is byte-identity: Epoch returns
// exactly the Result a from-scratch Pipeline.Run would produce on the
// same aggregate list. MCL is not assumed permutation-equivariant —
// floating-point summation order differs under vertex reorderings — so a
// sweep is reused only on a signature hit, where the signature is the
// member key list in vertex order: a hit means the induced subgraph is
// the one the cached sweep ran on, vertex for vertex, and MCL is
// deterministic on it.
type Rolling struct {
	p *Pipeline
	// sweeps holds the previous epoch's sweep jobs by signature; it is
	// rebuilt each epoch from the components actually present, so
	// vanished components do not accumulate.
	sweeps map[string]*mclJob
}

// EpochStats reports one Epoch call's incremental work.
type EpochStats struct {
	// Components is the epoch's component count; Reused of them hit the
	// signature cache and Recomputed ran MCL (the dirty ones).
	Components, Reused, Recomputed int
}

// Rolling starts an epoch clusterer over the pipeline's configuration.
// Callers feed it one Epoch per aggregation replay.
func (p *Pipeline) Rolling() *Rolling {
	return &Rolling{p: p}
}

// Epoch clusters the given aggregate list — the epoch's aggregates in
// campaign order, as aggregate.Builder.Finish returns them — and returns
// the epoch's Result plus the reuse accounting. Aggregate keys must be
// unique within the list, which Builder guarantees by construction (it
// merges blocks by key), so no two components share a signature.
func (r *Rolling) Epoch(aggs []*aggregate.Block) (*Result, EpochStats) {
	s := r.p.Stream()
	for _, b := range aggs {
		s.Observe(b, true)
	}
	var stats EpochStats
	next := make(map[string]*mclJob, len(r.sweeps))
	res, _ := s.finish(func(members []int) *mclJob {
		var b strings.Builder
		for _, v := range members {
			b.WriteString(aggregate.Key(aggs[v].LastHops))
			b.WriteByte('\n')
		}
		sig := b.String()
		job, ok := r.sweeps[sig]
		if ok {
			stats.Reused++
		} else {
			job = s.newJob(members)
			stats.Recomputed++
		}
		next[sig] = job
		return job
	})
	r.sweeps = next
	stats.Components = res.Components
	return res, stats
}
