package cluster

import (
	"context"
	"sort"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/graph"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/mcl"
	"github.com/hobbitscan/hobbit/internal/parallel"
)

// mclJob is one component's clustering work unit: MCL at every sweep
// inflation over the component's induced subgraph.
type mclJob struct {
	// sub is the induced subgraph over the component's members, in
	// ascending vertex order (sub vertex i is the i-th member).
	sub *graph.Graph
	// clusterings[k] is the MCL output at inflations[k] and intra[k] this
	// component's intra-cluster edge weights under it. The weights are
	// kept sorted so that counting the ones below the global median is a
	// binary search once the full graph's median is known. Both are nil
	// until computeJobs runs the job.
	clusterings [][][]int
	intra       [][]float64
}

// Streamer is the incremental form of Pipeline.Run: aggregate deltas are
// observed one at a time as a campaign emits them, and the similarity
// graph grows through a last-hop inverted index (candidate edges touch
// only vertices sharing a hop, never all pairs). Finish clusters every
// connected component once, after the last delta, producing a Result
// byte-identical to the stage-barrier oracle at any worker count and any
// delta chunking (TestStreamerMatchesBarrier pins this).
//
// A Streamer is a plain data structure: it starts no goroutines, and all
// of its methods must run on one goroutine. Only the MCL fan-out inside
// Finish is concurrent, and it is joined before Finish returns.
type Streamer struct {
	p *Pipeline

	g      *graph.Graph
	blocks []*aggregate.Block
	// posting is the last-hop inverted index: hop -> vertices whose
	// aggregate's set contains it, ascending (vertices are created in
	// ascending order and appended at creation).
	posting map[iputil.Addr][]int
	cand    []int
}

// Stream returns an empty Streamer over the pipeline's configuration.
// Callers feed it with Observe and end it with Finish.
func (p *Pipeline) Stream() *Streamer {
	return &Streamer{p: p, g: graph.New(0), posting: make(map[iputil.Addr][]int)}
}

// Observe folds one aggregate delta into the stream: blk is the aggregate
// a kept campaign result landed in and isNew whether that result created
// it (aggregate.Builder.Add's return values). A new aggregate becomes a
// vertex whose edges are resolved through the inverted index — its
// last-hop set is final at creation, so the edge set never needs
// revisiting — while a repeat changes nothing: member lists grow after
// creation, but no edge weight depends on them.
func (s *Streamer) Observe(blk *aggregate.Block, isNew bool) {
	if !isNew {
		return
	}
	v := s.g.AddVertex()
	s.blocks = append(s.blocks, blk)

	// Candidate neighbors: every earlier vertex sharing a last hop,
	// deduplicated in ascending order — the same pair set, scored with
	// the same Similarity calls, as the barrier build; and because
	// earlier vertices gain their larger neighbors in vertex creation
	// order, the adjacency lists come out identical too.
	cand := s.cand[:0]
	for _, lh := range blk.LastHops {
		cand = append(cand, s.posting[lh]...)
		s.posting[lh] = append(s.posting[lh], v)
	}
	sort.Ints(cand)
	prev := -1
	for _, j := range cand {
		if j == prev {
			continue
		}
		prev = j
		if w := aggregate.Similarity(s.blocks[j].LastHops, blk.LastHops); w > 0 {
			s.g.AddEdge(j, v, w)
		}
	}
	s.cand = cand[:0]
}

// newJob builds a component's sweep job over the induced subgraph of its
// members, ascending.
func (s *Streamer) newJob(members []int) *mclJob {
	sub, _ := s.g.Subgraph(members)
	return &mclJob{sub: sub}
}

// computeJobs runs every job's sweep work on the pipeline's worker pool,
// one pool item per (job, inflation) pair, so a component that dominates
// the work spreads its inflations over the workers. Each item writes only
// its own slots, so the results are the same at any worker count. Finish
// and Epoch take no context, and ForEach fails only on cancellation, so
// its error is always nil here.
func (p *Pipeline) computeJobs(jobs []*mclJob) {
	for _, j := range jobs {
		j.clusterings = make([][][]int, len(inflations))
		j.intra = make([][]float64, len(inflations))
	}
	_ = parallel.Pool{Workers: p.Workers}.ForEach(context.TODO(), len(jobs)*len(inflations), func(i int) {
		p.sweepJob(jobs[i/len(inflations)], i%len(inflations))
	})
}

// sweepJob clusters the job at inflations[k] and keeps the clustering
// and its sorted intra-cluster weights. Scoring against the global
// median — the only cross-component input — is left to mergeSweep.
func (p *Pipeline) sweepJob(j *mclJob, k int) {
	clusters := mcl.Cluster(j.sub, mcl.Options{Inflation: inflations[k]})
	cid := make([]int, j.sub.Len())
	for id, cl := range clusters {
		for _, v := range cl {
			cid[v] = id
		}
	}
	var ws []float64
	for v := 0; v < j.sub.Len(); v++ {
		for _, e := range j.sub.Neighbors(v) {
			if v < e.To && cid[v] == cid[e.To] {
				ws = append(ws, e.Weight)
			}
		}
	}
	sort.Float64s(ws)
	j.clusterings[k] = clusters
	j.intra[k] = ws
}

// mergeSweep is finish's deferred inflation sweep: the barrier path's
// objective — the fraction of intra-cluster edges below the global
// median — decomposes into per-component integer counts, summed here
// over the jobs in component order (nil slots are singleton components
// with no MCL work). It fills res.SweepScores and res.ChosenInflation
// and returns the winning inflation's index, with exactly the barrier
// path's tie-breaking.
func (p *Pipeline) mergeSweep(res *Result, jobs []*mclJob, median float64, hasEdges bool) int {
	best := inflations[0]
	bestScore := 2.0
	for k, inf := range inflations {
		score := 0.0
		if hasEdges {
			below, total := 0, 0
			for _, job := range jobs {
				if job == nil {
					continue
				}
				ws := job.intra[k]
				below += sort.SearchFloat64s(ws, median)
				total += len(ws)
			}
			if total == 0 {
				score = 1
			} else {
				score = float64(below) / float64(total)
			}
		}
		res.SweepScores[inf] = score
		if score < bestScore {
			bestScore = score
			best = inf
		}
	}
	res.ChosenInflation = best
	bestIdx := 0
	for k, inf := range inflations {
		if inf == best {
			bestIdx = k
		}
	}
	return bestIdx
}

// Finish clusters the observed graph once and returns the Result, every
// multi-vertex component's sweep computed afresh.
func (s *Streamer) Finish() *Result {
	res, multi := s.finish(s.newJob)
	reg := s.p.Telemetry
	reg.Counter("cluster.aggregates_in").Add(int64(len(s.blocks)))
	reg.Counter("cluster.graph_edges").Add(int64(s.g.NumEdges()))
	reg.Counter("cluster.components").Add(int64(res.Components))
	reg.Counter("cluster.multi_components").Add(int64(multi))
	reg.Counter("cluster.clusters").Add(int64(len(res.Clusters)))
	reg.Counter("cluster.unclustered").Add(int64(len(res.Unclustered)))
	reg.Gauge("cluster.chosen_inflation_milli").Set(int64(res.ChosenInflation * 1000))
	return res
}

// finish is the clustering Finish and Rolling.Epoch share. Components
// come from graph.Components (ascending-vertex order, members sorted),
// and job resolves each multi-vertex component's sweep job from its
// members: jobs not yet computed run on the worker pool, one pool item
// per (job, inflation) pair, and computed ones are reused as they are.
// The merge then runs on the calling goroutine: the global median is
// computed once over the full graph, each component's sweep
// contribution is summed as integer counts in component order, the
// winning inflation is chosen with the barrier path's tie-breaking, and
// clusters are emitted in component order with sequential IDs. So the
// result is identical at any worker count. It also returns the number
// of multi-vertex components.
func (s *Streamer) finish(job func(members []int) *mclJob) (*Result, int) {
	comps := s.g.Components()
	// jobs is indexed by component; nil slots are singletons, which need
	// no MCL.
	jobs := make([]*mclJob, len(comps))
	var fresh []*mclJob
	multi := 0
	for i, members := range comps {
		if len(members) < 2 {
			continue
		}
		multi++
		jobs[i] = job(members)
		if jobs[i].clusterings == nil {
			fresh = append(fresh, jobs[i])
		}
	}
	s.p.computeJobs(fresh)

	res := &Result{SweepScores: make(map[float64]float64), Components: len(comps)}
	median, hasEdges := s.g.MedianWeight()
	bestIdx := s.p.mergeSweep(res, jobs, median, hasEdges)

	// Assembly in component order: the stored clustering at the winning
	// inflation is the same [][]int a fresh MCL run would return (MCL is
	// deterministic on an identical subgraph), so reusing it skips the
	// barrier path's extra final run per component.
	clustered := make([]bool, len(s.blocks))
	for i, job := range jobs {
		if job == nil {
			continue
		}
		for _, cl := range job.clusterings[bestIdx] {
			if len(cl) < 2 {
				continue
			}
			c := &Cluster{ID: len(res.Clusters)}
			for _, v := range cl {
				gv := comps[i][v]
				c.Members = append(c.Members, s.blocks[gv])
				clustered[gv] = true
			}
			res.Clusters = append(res.Clusters, c)
		}
	}
	for i, b := range s.blocks {
		if !clustered[i] {
			res.Unclustered = append(res.Unclustered, b)
		}
	}
	return res, multi
}
