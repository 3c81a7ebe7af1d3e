package cluster

import (
	"sort"
	"strings"

	"github.com/hobbitscan/hobbit/internal/aggregate"
)

// Rolling is the epoch-over-epoch form of the streaming clusterer: one
// persistent Streamer whose graph is repaired by key diffs — aggregates
// that vanished since the previous epoch are retracted, new ones
// observed — so each epoch's clustering costs work proportional to the
// churned components, not the universe.
//
// The headline contract (DESIGN.md §4j) is byte-identity: Epoch returns
// exactly the Result a from-scratch Pipeline.Run would produce on the
// same aggregate list. Two mechanisms carry it. First, the epoch's
// aggregates arrive in campaign order, so their positions ARE the
// vertex ids a from-scratch run would assign ("ranks"); components are
// assembled in rank order even though the persistent graph numbers
// vertices in arrival-across-epochs order. Second, MCL is not assumed
// permutation-equivariant — floating-point summation order differs
// under vertex reorderings — so a component's clustering is reused only
// on a signature hit, where the signature is the member key list in
// subgraph vertex order: a hit proves the cached MCL ran on the
// subgraph a from-scratch run would build. Misses recompute through the
// worker pool Finish uses, over the induced subgraph with members in
// rank order — the vertex numbering a from-scratch run gives them. Its
// edges are inserted in a different order, which MCL never sees: the
// engine sorts every column by row (TestClusterEdgeOrderInvariant).
type Rolling struct {
	s *Streamer
	// vert maps a live aggregate key to its persistent vertex; keyOf is
	// the inverse ("" for tombstones).
	vert  map[string]int
	keyOf []string
	// sig caches component sweep jobs by ordered-member-key signature;
	// rebuilt each epoch from the components actually present, so
	// vanished components do not accumulate.
	sig map[string]*mclJob
}

// EpochStats reports one Epoch call's incremental work.
type EpochStats struct {
	// Added and Retracted count the aggregate-key diff fed to the graph.
	Added, Retracted int
	// Components is the epoch's component count; Reused of them hit the
	// signature cache and Recomputed ran MCL (the dirty ones).
	Components, Reused, Recomputed int
	// DeltaEdges counts similarity edges inserted this epoch.
	DeltaEdges int
}

// Rolling starts a persistent epoch clusterer over the pipeline's
// configuration. Callers feed it one Epoch per aggregation replay.
func (p *Pipeline) Rolling() *Rolling {
	return &Rolling{
		s:    p.Stream(),
		vert: make(map[string]int),
		sig:  make(map[string]*mclJob),
	}
}

// Epoch repairs the clustering to match the given aggregate list — the
// epoch's aggregates in campaign order, as aggregate.Builder.Finish
// returns them — and returns the epoch's Result plus the incremental
// work accounting. The first call bootstraps (everything is new); later
// calls cost O(churned components). Aggregate keys must be unique
// within the list, which Builder guarantees by construction (it merges
// blocks by key).
func (r *Rolling) Epoch(aggs []*aggregate.Block) (*Result, EpochStats) {
	s := r.s
	var stats EpochStats
	edges0 := s.deltaEdges

	keys := make([]string, len(aggs))
	cur := make(map[string]*aggregate.Block, len(aggs))
	for i, b := range aggs {
		keys[i] = aggregate.Key(b.LastHops)
		cur[keys[i]] = b
	}

	// Retract vanished keys in ascending vertex order (any fixed order
	// works — retraction rebuilds from the surviving edge set — but a
	// deterministic one keeps internal counters replayable).
	var gone []int
	for k, v := range r.vert {
		if _, ok := cur[k]; !ok {
			gone = append(gone, v)
		}
	}
	sort.Ints(gone)
	for _, v := range gone {
		delete(r.vert, r.keyOf[v])
		r.keyOf[v] = ""
		s.Retract(v)
		stats.Retracted++
	}

	// Observe new keys in rank order; refresh surviving vertices' block
	// pointers so retired epochs' member slices can be collected.
	for i, b := range aggs {
		if v, ok := r.vert[keys[i]]; ok {
			s.blocks[v] = b
			continue
		}
		v := s.Observe(b, true)
		r.vert[keys[i]] = v
		for len(r.keyOf) <= v {
			r.keyOf = append(r.keyOf, "")
		}
		r.keyOf[v] = keys[i]
		stats.Added++
	}
	stats.DeltaEdges = s.deltaEdges - edges0

	// Components in canonical order: sweep ranks ascending, group by
	// root on first sight — exactly the ascending-vertex sweep a
	// from-scratch Finish runs, because from-scratch ids are ranks.
	rootIndex := make(map[int]int)
	var roots []int
	memberRanks := make(map[int][]int)
	for i := range aggs {
		rt := s.find(r.vert[keys[i]])
		if _, ok := rootIndex[rt]; !ok {
			rootIndex[rt] = len(roots)
			roots = append(roots, rt)
		}
		memberRanks[rt] = append(memberRanks[rt], i)
	}
	stats.Components = len(roots)

	// Resolve each multi-vertex component's sweep job: a signature hit
	// reuses the cached clustering, a miss is recomputed on the worker
	// pool over the subgraph with members in rank order.
	newSig := make(map[string]*mclJob, len(roots))
	jobs := make([]*mclJob, len(roots))
	var misses []*mclJob
	for ci, rt := range roots {
		ranks := memberRanks[rt]
		if len(ranks) < 2 {
			continue
		}
		var b strings.Builder
		for _, rk := range ranks {
			b.WriteString(keys[rk])
			b.WriteByte('\n')
		}
		sigKey := b.String()
		if job, ok := r.sig[sigKey]; ok {
			jobs[ci] = job
			newSig[sigKey] = job
			stats.Reused++
			continue
		}
		members := make([]int, len(ranks))
		for i, rk := range ranks {
			members[i] = r.vert[keys[rk]]
		}
		job := s.newJob(members)
		jobs[ci] = job
		newSig[sigKey] = job
		misses = append(misses, job)
	}
	s.p.computeJobs(misses)
	stats.Recomputed = len(misses)
	r.sig = newSig

	// Merge exactly as Finish does: global median over the full graph
	// (the persistent graph's edge multiset equals the from-scratch
	// one), deferred sweep, assembly in component order — except member
	// lookups go through ranks into this epoch's aggregate list, never
	// through the persistent streamer's stale block pointers.
	res := &Result{SweepScores: make(map[float64]float64), Components: len(roots)}
	median, hasEdges := s.g.MedianWeight()
	bestIdx := s.p.mergeSweep(res, jobs, median, hasEdges)
	clustered := make([]bool, len(aggs))
	for ci := range roots {
		job := jobs[ci]
		if job == nil {
			continue
		}
		ranks := memberRanks[roots[ci]]
		for _, cl := range job.clusterings[bestIdx] {
			if len(cl) < 2 {
				continue
			}
			c := &Cluster{ID: len(res.Clusters)}
			for _, v := range cl {
				c.Members = append(c.Members, aggs[ranks[v]])
				clustered[ranks[v]] = true
			}
			res.Clusters = append(res.Clusters, c)
		}
	}
	for i, b := range aggs {
		if !clustered[i] {
			res.Unclustered = append(res.Unclustered, b)
		}
	}
	return res, stats
}
