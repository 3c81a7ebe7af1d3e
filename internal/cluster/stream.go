package cluster

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/graph"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/mcl"
)

// sealHorizon is the quiet window, in Observe calls, after which a
// component untouched by any aggregate delta is optimistically sealed and
// its MCL runs dispatched. The horizon is counted on the single-threaded
// Observe sequence — never on wall clock, chunk boundaries, or worker
// scheduling — so which components seal early (and therefore every seal
// counter) is a pure function of the observed delta sequence. A component
// a later delta does touch after sealing is invalidated and re-clustered,
// so the horizon trades duplicated MCL work against pipeline overlap
// without ever affecting output (DESIGN.md §4d).
const sealHorizon = 256

// mclJob is one sealed component's clustering work unit: MCL at every
// sweep inflation over a subgraph snapshot taken at seal time. Results
// are read only after the worker pool is joined, and only for jobs that
// were never invalidated, so the snapshot is immutable for the job's
// lifetime.
type mclJob struct {
	// members are the component's vertices, ascending; sub is the induced
	// subgraph over them (sub vertex i == members[i]).
	members []int
	sub     *graph.Graph
	// canceled stops unfinished inflations early when a later delta
	// invalidated the seal; the results of a canceled job are never read,
	// so the flag only reclaims wasted work.
	canceled atomic.Bool
	// clusterings[k] is the MCL output at inflations[k]; intraBelow[k]
	// and intraTotal[k] count this component's intra-cluster edges below
	// the (deferred) global median and in total. The weights are kept
	// sorted so the below-median count is a binary search at Finish,
	// after the full graph's median is known.
	clusterings [][][]int
	intra       [][]float64
}

// Streamer is the incremental form of Pipeline.Run: aggregate deltas are
// observed one at a time as a campaign emits them, the similarity graph
// grows through a last-hop inverted index (candidate edges touch only
// vertices sharing a hop, never all pairs), and connected components that
// stay quiet for sealHorizon deltas are clustered on a worker pool while
// later deltas are still arriving. Finish drains the remainder and merges
// per-component results in component order, producing a Result
// byte-identical to the stage-barrier oracle at any worker count and any
// delta chunking (TestStreamerMatchesBarrier pins this).
//
// Observe and Finish/Abort must run on one goroutine; only the MCL jobs
// are concurrent.
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

	// lastTouch[r] is the Observe sequence of root r's last structural
	// change; sealQueue replays touch events FIFO so trySeal only
	// examines components whose quiet window elapsed.
	seq       int
	lastTouch []int
	sealQueue []sealEvent
	qhead     int

	// jobs holds the valid early-sealed jobs by root; allJobs every job
	// ever dispatched (for Abort). pending buffers jobs the bounded
	// channel could not accept without blocking the Observe path.
	jobs    map[int]*mclJob
	allJobs []*mclJob
	pending []*mclJob

	jobCh chan *mclJob
	wg    sync.WaitGroup
	// jobsWG counts dispatched-but-unfinished jobs, so the rolling epoch
	// clusterer can await a batch without closing the pool the way
	// Finish does.
	jobsWG sync.WaitGroup

	// sealDisabled turns off the quiet-window seal machinery: the
	// rolling clusterer drives MCL through canonical per-component jobs
	// instead (see epoch.go), so speculative internal-order seals would
	// only burn workers.
	sealDisabled bool

	deltaEdges    int
	invalidations int
	retractions   int
	closed        bool
}

type sealEvent struct {
	root int
	seq  int
}

// Stream returns a Streamer over the pipeline's configuration with its
// MCL worker pool started. Callers feed it with Observe and must end it
// with exactly one Finish (normal completion) or Abort (error path), both
// of which join the pool.
func (p *Pipeline) Stream() *Streamer {
	s := &Streamer{
		p:       p,
		g:       graph.New(0),
		posting: make(map[iputil.Addr][]int),
		jobs:    make(map[int]*mclJob),
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtimeWorkers()
	}
	s.jobCh = make(chan *mclJob, 2*workers)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			for j := range s.jobCh {
				s.runJob(j)
				s.jobsWG.Done()
			}
		}()
	}
	return s
}

// Observe folds one aggregate delta into the stream: blk is the aggregate
// a kept campaign result landed in and isNew whether that result created
// it (aggregate.Builder.Add's return values). A new aggregate becomes a
// vertex whose edges are resolved through the inverted index — its
// last-hop set is final at creation, so the edge set never needs
// revisiting — while a repeat only ages the quiet windows: member lists
// grow after creation, but no edge weight depends on them. It returns
// the created vertex id (-1 for a repeat), which the rolling epoch
// clusterer records; batch callers ignore it.
func (s *Streamer) Observe(blk *aggregate.Block, isNew bool) int {
	s.seq++
	vertex := -1
	if isNew {
		v := s.g.AddVertex()
		vertex = v
		s.blocks = append(s.blocks, blk)
		s.parent = append(s.parent, v)
		s.size = append(s.size, 1)
		s.head = append(s.head, v)
		s.tail = append(s.tail, v)
		s.link = append(s.link, -1)
		s.lastTouch = append(s.lastTouch, 0)

		// Candidate neighbors: every earlier vertex sharing a last hop,
		// deduplicated in ascending order — the same pair set, scored
		// with the same Similarity calls, as the barrier build; and
		// because earlier vertices gain their larger neighbors in vertex
		// creation order, the adjacency lists come out identical too.
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
		r := s.find(v)
		s.lastTouch[r] = s.seq
		if !s.sealDisabled {
			s.sealQueue = append(s.sealQueue, sealEvent{root: r, seq: s.seq})
		}
	}
	if !s.sealDisabled {
		s.trySeal()
		s.drainPending(false)
	}
	return vertex
}

// Retract removes a previously observed aggregate from the stream: its
// vertex leaves the inverted index and the graph, and — because cutting
// a vertex can split its component — the survivors' union-find state is
// rebuilt from the remaining edges. Retracting a vertex a sealed job
// covered invalidates the seal, exactly like a structural union would.
// Tombstoned ids are never reused; a key that reappears in a later
// epoch becomes a fresh vertex.
func (s *Streamer) Retract(v int) {
	if v < 0 || v >= len(s.blocks) || s.blocks[v] == nil {
		return
	}
	s.seq++
	s.retractions++
	blk := s.blocks[v]
	r := s.find(v)
	s.invalidate(r)

	// Surviving members of the component, ascending.
	members := make([]int, 0, s.size[r]-1)
	for u := s.head[r]; u != -1; u = s.link[u] {
		if u != v {
			members = append(members, u)
		}
	}
	sort.Ints(members)

	// Drop v from the posting lists (order-preserving, so they stay
	// ascending) and from the graph, then tombstone it: a dead singleton
	// whose lastTouch no queued seal event can match.
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
	s.lastTouch[v] = s.seq

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
	// Every surviving root re-enters the quiet-window race.
	for _, u := range members {
		ru := s.find(u)
		if s.lastTouch[ru] == s.seq {
			continue
		}
		s.lastTouch[ru] = s.seq
		if !s.sealDisabled {
			s.sealQueue = append(s.sealQueue, sealEvent{root: ru, seq: s.seq})
		}
	}
	if !s.sealDisabled {
		s.trySeal()
		s.drainPending(false)
	}
}

func (s *Streamer) find(x int) int {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// union merges the components of a and b, invalidating any early seal on
// either side: a sealed component a later delta touches was clustered on
// a stale snapshot, so its job is canceled and the merged component
// re-enters the quiet-window race.
func (s *Streamer) union(a, b int) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	s.invalidate(ra)
	s.invalidate(rb)
	if s.size[ra] < s.size[rb] || (s.size[ra] == s.size[rb] && ra > rb) {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
	s.link[s.tail[ra]] = s.head[rb]
	s.tail[ra] = s.tail[rb]
}

func (s *Streamer) invalidate(root int) {
	if job, ok := s.jobs[root]; ok {
		job.canceled.Store(true)
		delete(s.jobs, root)
		s.invalidations++
	}
}

// trySeal seals every component whose newest structural change is at
// least sealHorizon Observe calls old: its members are snapshotted in
// ascending order, the induced subgraph is copied (the live graph keeps
// growing underneath), and the job is handed to the pool. Singleton
// components never need MCL and are left for Finish.
func (s *Streamer) trySeal() {
	for s.qhead < len(s.sealQueue) {
		ev := s.sealQueue[s.qhead]
		if ev.seq > s.seq-sealHorizon {
			break
		}
		s.qhead++
		r := ev.root
		if s.find(r) != r || s.lastTouch[r] != ev.seq || s.size[r] < 2 {
			continue
		}
		if _, ok := s.jobs[r]; ok {
			continue
		}
		job := s.makeJob(r)
		s.jobs[r] = job
		s.dispatch(job, false)
	}
	// Reclaim the consumed prefix once it dominates the queue.
	if s.qhead > 1024 && s.qhead*2 >= len(s.sealQueue) {
		s.sealQueue = append(s.sealQueue[:0], s.sealQueue[s.qhead:]...)
		s.qhead = 0
	}
}

// makeJob snapshots root's component: sorted members and the induced
// subgraph, both extracted on the Observe goroutine so jobs never read
// the growing graph.
func (s *Streamer) makeJob(root int) *mclJob {
	members := make([]int, 0, s.size[root])
	for v := s.head[root]; v != -1; v = s.link[v] {
		members = append(members, v)
	}
	sort.Ints(members)
	sub, _ := s.g.Subgraph(members)
	return &mclJob{members: members, sub: sub}
}

// dispatch hands a job to the pool. On the Observe path (block=false) a
// full channel parks the job on pending instead of stalling the
// pipeline; Finish retries with block=true.
func (s *Streamer) dispatch(job *mclJob, block bool) {
	s.allJobs = append(s.allJobs, job)
	s.jobsWG.Add(1)
	if block {
		s.jobCh <- job
		return
	}
	select {
	case s.jobCh <- job:
	default:
		s.pending = append(s.pending, job)
	}
}

// drainPending opportunistically moves parked jobs onto the channel.
func (s *Streamer) drainPending(block bool) {
	for len(s.pending) > 0 {
		if block {
			s.jobCh <- s.pending[0]
		} else {
			select {
			case s.jobCh <- s.pending[0]:
			default:
				return
			}
		}
		s.pending = s.pending[1:]
	}
}

// runJob executes one component's sweep work on a pool worker: MCL at
// every candidate inflation, keeping the clustering and the sorted
// intra-cluster edge weights. Scoring against the global median — the
// only cross-component input — is deferred to Finish, which is what lets
// a component cluster before the last delta lands without changing the
// sweep's outcome.
func (s *Streamer) runJob(j *mclJob) {
	if j.canceled.Load() {
		return
	}
	s.computeJob(j)
}

// computeJob fills the job's per-inflation clusterings and sorted
// intra-cluster weights; shared by the pool workers and the rolling
// clusterer's inline canonical recomputes.
func (s *Streamer) computeJob(j *mclJob) {
	infl := s.p.inflations()
	j.clusterings = make([][][]int, len(infl))
	j.intra = make([][]float64, len(infl))
	cid := make([]int, j.sub.Len())
	for k, inf := range infl {
		if j.canceled.Load() {
			return
		}
		clusters := mcl.Cluster(j.sub, s.p.mclOpts(inf))
		j.clusterings[k] = clusters
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
		j.intra[k] = ws
	}
}

// mergeSweep is the deferred inflation sweep shared by Finish and the
// rolling epoch clusterer: the barrier path's objective — the fraction
// of intra-cluster edges below the global median — decomposes into
// per-component integer counts, summed here over the jobs in component
// order (nil slots are singleton components with no MCL work). It fills
// res.SweepScores and res.ChosenInflation and returns the winning
// inflation's index, with exactly the barrier path's tie-breaking.
func (p *Pipeline) mergeSweep(res *Result, jobs []*mclJob, median float64, hasEdges bool) int {
	infl := p.inflations()
	best := infl[0]
	bestScore := 2.0
	for k, inf := range infl {
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
	for k, inf := range infl {
		if inf == best {
			bestIdx = k
		}
	}
	return bestIdx
}

// Abort cancels outstanding work and joins the worker pool without
// producing a result; the error paths of a cancelled run use it so no
// goroutine outlives the pipeline. Safe to call after Finish (no-op)
// and on a nil receiver (run shapes that skip clustering never start
// the stage).
func (s *Streamer) Abort() {
	if s == nil {
		return
	}
	if s.closed {
		return
	}
	s.closed = true
	for _, j := range s.allJobs {
		j.canceled.Store(true)
	}
	// Parked jobs never reach a worker; release their jobsWG slots so
	// the counter stays balanced.
	for range s.pending {
		s.jobsWG.Done()
	}
	s.pending = nil
	close(s.jobCh)
	s.wg.Wait()
}

// Finish seals every remaining component, joins the pool, and merges the
// per-component results in component order (components ordered by their
// smallest vertex, exactly as graph.Components yields them): the global
// median is computed once over the full graph, each component's sweep
// contribution is merged as integer counts, the winning inflation is
// chosen with the barrier path's tie-breaking, and clusters are emitted
// in component order with sequential IDs. Every merge input is either
// computed on the Observe goroutine or read from a joined job, so the
// result — including all counters — is identical at any worker count.
func (s *Streamer) Finish() *Result {
	s.closed = true
	sealedEarly := len(s.jobs)

	// Component order: ascending vertex sweep, grouping by root on first
	// sight — the order graph.Components produces. Retracted vertices
	// are tombstones and contribute nothing.
	n := len(s.blocks)
	live := 0
	rootIndex := make(map[int]int, n)
	var roots []int
	multi := 0
	for v := 0; v < n; v++ {
		if s.blocks[v] == nil {
			continue
		}
		live++
		r := s.find(v)
		if _, ok := rootIndex[r]; ok {
			continue
		}
		rootIndex[r] = len(roots)
		roots = append(roots, r)
		if s.size[r] >= 2 {
			multi++
		}
	}
	// Drain: late components (and invalidated re-runs) get their jobs
	// now; the pool is still hot, so the tail parallelizes too.
	for _, r := range roots {
		if s.size[r] < 2 {
			continue
		}
		if _, ok := s.jobs[r]; !ok {
			job := s.makeJob(r)
			s.jobs[r] = job
			s.dispatch(job, true)
		}
	}
	s.drainPending(true)
	close(s.jobCh)
	s.wg.Wait()

	res := &Result{SweepScores: make(map[float64]float64), Components: len(roots)}

	// Deferred sweep merge over the per-component jobs in component
	// order; nil slots (singletons) contribute nothing.
	jobs := make([]*mclJob, len(roots))
	for i, r := range roots {
		jobs[i] = s.jobs[r]
	}
	median, hasEdges := s.g.MedianWeight()
	bestIdx := s.p.mergeSweep(res, jobs, median, hasEdges)

	// Assembly in component order: the stored clustering at the winning
	// inflation is the same [][]int a fresh MCL run would return (MCL is
	// deterministic on an identical subgraph), so reusing it skips the
	// barrier path's extra final run per component.
	clustered := make([]bool, n)
	for _, job := range jobs {
		if job == nil {
			continue
		}
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
	reg.Counter("cluster.multi_components").Add(int64(multi))
	reg.Counter("cluster.clusters").Add(int64(len(res.Clusters)))
	reg.Counter("cluster.unclustered").Add(int64(len(res.Unclustered)))
	reg.Gauge("cluster.chosen_inflation_milli").Set(int64(res.ChosenInflation * 1000))
	// Streaming-overlap telemetry (all deterministic: derived from the
	// Observe sequence, never from scheduling): how many components were
	// early-sealed and survived, how many edges arrived as deltas, how
	// many seals a later delta invalidated, and the fraction of MCL work
	// dispatched before the final delta landed.
	reg.Counter("cluster.sealed_components").Add(int64(sealedEarly))
	reg.Counter("cluster.graph_delta_edges").Add(int64(s.deltaEdges))
	reg.Counter("cluster.seal_invalidations").Add(int64(s.invalidations))
	overlap := int64(0)
	if len(s.jobs) > 0 {
		overlap = int64(1000 * sealedEarly / len(s.jobs))
	}
	reg.Gauge("cluster.overlap_ratio_milli").Set(overlap)
	return res
}
