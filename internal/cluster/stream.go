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
	// members are the component's vertices; sub is the induced subgraph
	// over them (sub vertex i == members[i]).
	members []int
	sub     *graph.Graph
	// clusterings[k] is the MCL output at inflations[k] and intra[k] this
	// component's intra-cluster edge weights under it. The weights are
	// kept sorted so that counting the ones below the global median is a
	// binary search once the full graph's median is known.
	clusterings [][][]int
	intra       [][]float64
}

// Streamer is the incremental form of Pipeline.Run: aggregate deltas are
// observed one at a time as a campaign emits them, the similarity graph
// grows through a last-hop inverted index (candidate edges touch only
// vertices sharing a hop, never all pairs), and union-find tracks its
// connected components. Finish clusters every component once, after the
// last delta, producing a Result byte-identical to the stage-barrier
// oracle at any worker count and any delta chunking
// (TestStreamerMatchesBarrier pins this).
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

	// Union-find over vertices with member chains: head/tail/link thread
	// each root's member list without per-component slices.
	parent []int
	size   []int
	head   []int
	tail   []int
	link   []int

	deltaEdges int
}

// Stream returns an empty Streamer over the pipeline's configuration.
// Callers feed it with Observe (and Retract) and end it with Finish.
func (p *Pipeline) Stream() *Streamer {
	return &Streamer{p: p, g: graph.New(0), posting: make(map[iputil.Addr][]int)}
}

// Observe folds one aggregate delta into the stream: blk is the aggregate
// a kept campaign result landed in and isNew whether that result created
// it (aggregate.Builder.Add's return values). A new aggregate becomes a
// vertex whose edges are resolved through the inverted index — its
// last-hop set is final at creation, so the edge set never needs
// revisiting — while a repeat changes nothing: member lists grow after
// creation, but no edge weight depends on them. It returns the created
// vertex id (-1 for a repeat), which the rolling epoch clusterer
// records; batch callers ignore it.
func (s *Streamer) Observe(blk *aggregate.Block, isNew bool) int {
	if !isNew {
		return -1
	}
	v := s.g.AddVertex()
	s.blocks = append(s.blocks, blk)
	s.parent = append(s.parent, v)
	s.size = append(s.size, 1)
	s.head = append(s.head, v)
	s.tail = append(s.tail, v)
	s.link = append(s.link, -1)

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
		w := aggregate.Similarity(s.blocks[j].LastHops, blk.LastHops)
		if w > 0 {
			s.g.AddEdge(j, v, w)
			s.deltaEdges++
			s.union(j, v)
		}
	}
	s.cand = cand[:0]
	return v
}

// Retract removes a previously observed aggregate from the stream: its
// vertex leaves the inverted index and the graph, and — because cutting
// a vertex can split its component — the survivors' union-find state is
// rebuilt from the remaining edges. Tombstoned ids are never reused; a
// key that reappears in a later epoch becomes a fresh vertex.
func (s *Streamer) Retract(v int) {
	if v < 0 || v >= len(s.blocks) || s.blocks[v] == nil {
		return
	}
	blk := s.blocks[v]
	r := s.find(v)

	// Surviving members of the component, ascending.
	members := make([]int, 0, s.size[r]-1)
	for u := s.head[r]; u != -1; u = s.link[u] {
		if u != v {
			members = append(members, u)
		}
	}
	sort.Ints(members)

	// Drop v from the posting lists (order-preserving, so they stay
	// ascending) and from the graph, then tombstone it as a dead
	// singleton.
	for _, lh := range blk.LastHops {
		row := s.posting[lh]
		k := 0
		for _, u := range row {
			if u != v {
				row[k] = u
				k++
			}
		}
		if k == 0 {
			delete(s.posting, lh)
		} else {
			s.posting[lh] = row[:k]
		}
	}
	s.g.RemoveVertex(v)
	s.blocks[v] = nil
	s.parent[v] = v
	s.size[v] = 1
	s.head[v], s.tail[v], s.link[v] = v, v, -1

	// Rebuild the survivors: reset to singletons, then re-union along
	// the remaining edges in ascending member order. The resulting roots
	// depend only on the surviving edge set, never on the order the
	// component originally grew, so a retraction replays identically.
	for _, u := range members {
		s.parent[u] = u
		s.size[u] = 1
		s.head[u], s.tail[u], s.link[u] = u, u, -1
	}
	for _, u := range members {
		for _, e := range s.g.Neighbors(u) {
			if e.To > u {
				s.union(u, e.To)
			}
		}
	}
}

func (s *Streamer) find(x int) int {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// union merges the components of a and b: the larger root (the smaller
// id on a tie) absorbs the other and appends its member chain.
func (s *Streamer) union(a, b int) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if s.size[ra] < s.size[rb] || (s.size[ra] == s.size[rb] && ra > rb) {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
	s.link[s.tail[ra]] = s.head[rb]
	s.tail[ra] = s.tail[rb]
}

// newJob builds a component's sweep job: members in subgraph vertex
// order and the induced subgraph over them.
func (s *Streamer) newJob(members []int) *mclJob {
	sub, _ := s.g.Subgraph(members)
	return &mclJob{members: members, sub: sub}
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
	clusters := mcl.Cluster(j.sub, mcl.Options{Inflation: inflations[k], Workers: p.Workers})
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

// mergeSweep is the deferred inflation sweep shared by Finish and the
// rolling epoch clusterer: the barrier path's objective — the fraction
// of intra-cluster edges below the global median — decomposes into
// per-component integer counts, summed here over the jobs in component
// order (nil slots are singleton components with no MCL work). It fills
// res.SweepScores and res.ChosenInflation and returns the winning
// inflation's index, with exactly the barrier path's tie-breaking.
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

// Finish clusters the observed graph once and returns the Result.
// Components are taken in ascending-vertex order (grouped by root on
// first sight, the order graph.Components yields), every multi-vertex
// component becomes one job, and the jobs run on the worker pool. The
// merge then runs on the calling goroutine: the global median is
// computed once over the full graph, each component's sweep contribution
// is summed as integer counts in component order, the winning inflation
// is chosen with the barrier path's tie-breaking, and clusters are
// emitted in component order with sequential IDs. So the result —
// including all counters — is identical at any worker count.
func (s *Streamer) Finish() *Result {
	// Retracted vertices are tombstones and contribute nothing.
	n := len(s.blocks)
	live := 0
	seen := make([]bool, n)
	var roots []int
	for v := 0; v < n; v++ {
		if s.blocks[v] == nil {
			continue
		}
		live++
		if r := s.find(v); !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	// jobs is indexed by component; nil slots are singletons, which need
	// no MCL.
	jobs := make([]*mclJob, len(roots))
	var multi []*mclJob
	for i, r := range roots {
		if s.size[r] < 2 {
			continue
		}
		members := make([]int, 0, s.size[r])
		for v := s.head[r]; v != -1; v = s.link[v] {
			members = append(members, v)
		}
		sort.Ints(members)
		jobs[i] = s.newJob(members)
		multi = append(multi, jobs[i])
	}
	s.p.computeJobs(multi)

	res := &Result{SweepScores: make(map[float64]float64), Components: len(roots)}
	median, hasEdges := s.g.MedianWeight()
	bestIdx := s.p.mergeSweep(res, jobs, median, hasEdges)

	// Assembly in component order: the stored clustering at the winning
	// inflation is the same [][]int a fresh MCL run would return (MCL is
	// deterministic on an identical subgraph), so reusing it skips the
	// barrier path's extra final run per component.
	clustered := make([]bool, n)
	for _, job := range multi {
		for _, cl := range job.clusterings[bestIdx] {
			if len(cl) < 2 {
				continue
			}
			c := &Cluster{ID: len(res.Clusters)}
			for _, v := range cl {
				gv := job.members[v]
				c.Members = append(c.Members, s.blocks[gv])
				clustered[gv] = true
			}
			res.Clusters = append(res.Clusters, c)
		}
	}
	for i, b := range s.blocks {
		if b != nil && !clustered[i] {
			res.Unclustered = append(res.Unclustered, b)
		}
	}

	reg := s.p.Telemetry
	reg.Counter("cluster.aggregates_in").Add(int64(live))
	reg.Counter("cluster.graph_edges").Add(int64(s.g.NumEdges()))
	reg.Counter("cluster.components").Add(int64(len(roots)))
	reg.Counter("cluster.multi_components").Add(int64(len(multi)))
	reg.Counter("cluster.clusters").Add(int64(len(res.Clusters)))
	reg.Counter("cluster.unclustered").Add(int64(len(res.Unclustered)))
	reg.Gauge("cluster.chosen_inflation_milli").Set(int64(res.ChosenInflation * 1000))
	// Edges that arrived as Observe deltas; equals graph_edges unless
	// retractions removed some.
	reg.Counter("cluster.graph_delta_edges").Add(int64(s.deltaEdges))
	return res
}
