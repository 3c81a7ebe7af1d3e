package cluster

import (
	"cmp"
	"encoding/binary"
	"slices"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/graph"
	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Rolling is the epoch-over-epoch form of the clusterer: it clusters each
// epoch's aggregate list through the same finish as Streamer.Finish, but
// carries its inputs from one epoch to the next. Each last-hop set
// present in the previous epoch keeps its similarity edges, indexed by
// last hop, so an Epoch scores only the sets that appear, drops the sets
// that vanish, and assembles the similarity graph from the edges it
// kept. It also keeps the previous epoch's MCL sweeps, so under route
// churn only the components that changed run MCL again.
//
// The headline contract (DESIGN.md §4j) is byte-identity: Epoch returns
// exactly the Result a from-scratch Pipeline.Run would produce on the
// same aggregate list. The assembled graph is the one Streamer.Observe
// builds, vertex for vertex and edge for edge in the same adjacency
// order: a vertex per aggregate in list order, and each vertex's
// neighbors ascending, since Observe wires a new vertex to its earlier
// neighbors in ascending order and every later vertex appends itself.
// Edge weights are the same Similarity scores, which are symmetric. MCL
// is not assumed permutation-equivariant — floating-point summation
// order differs under vertex reorderings — so a sweep is reused only on
// a signature hit, where the signature is the member key list in vertex
// order: a hit means the induced subgraph is the one the cached sweep
// ran on, vertex for vertex, and MCL is deterministic on it.
type Rolling struct {
	p *Pipeline
	// sweeps holds the previous epoch's sweep jobs by signature; it is
	// rebuilt each epoch from the components actually present, so
	// vanished components do not accumulate.
	sweeps map[string]*mclJob
	// sets holds the previous epoch's last-hop sets by key, and live
	// the same sets in that epoch's vertex order. posting indexes them
	// by last hop.
	sets    map[string]*rollSet
	live    []*rollSet
	posting map[iputil.Addr][]*rollSet
	// epoch counts Epoch calls and stamp candidate scans; each marks
	// the sets it reached.
	epoch, stamp int
	buf          []byte
}

// rollSet is one last-hop set Rolling carries: its similarity edges to
// the other present sets, and its vertex in the current epoch's graph.
type rollSet struct {
	key   string
	hops  []iputil.Addr
	edges []rollEdge
	v     int
	// epoch is the last Epoch that listed the set, and stamp the last
	// candidate scan that reached it.
	epoch, stamp int
}

type rollEdge struct {
	to *rollSet
	w  float64
}

// EpochStats reports one Epoch call's incremental work.
type EpochStats struct {
	// Components is the epoch's component count; Reused of them hit the
	// signature cache and Recomputed ran MCL (the dirty ones).
	Components, Reused, Recomputed int
}

// Rolling starts an epoch clusterer over the pipeline's configuration.
// Callers feed it one Epoch per epoch's aggregate list.
func (p *Pipeline) Rolling() *Rolling {
	return &Rolling{p: p, sets: make(map[string]*rollSet), posting: make(map[iputil.Addr][]*rollSet)}
}

// Epoch clusters the given aggregate list — the epoch's aggregates in
// campaign order, as aggregate.Builder returns them — and returns the
// epoch's Result plus the reuse accounting. Aggregate keys must be
// unique within the list, which Builder guarantees by construction (it
// merges blocks by key), so no two vertices share a set and no two
// components share a signature.
func (r *Rolling) Epoch(aggs []*aggregate.Block) (*Result, EpochStats) {
	r.epoch++
	vs := make([]*rollSet, len(aggs))
	var fresh []*rollSet
	for v, b := range aggs {
		r.buf = aggregate.AppendKey(r.buf[:0], b.LastHops)
		s, ok := r.sets[string(r.buf)]
		if !ok {
			s = &rollSet{key: string(r.buf), hops: slices.Clone(b.LastHops)}
			r.sets[s.key] = s
			fresh = append(fresh, s)
		}
		s.v, s.epoch = v, r.epoch
		vs[v] = s
	}
	for _, s := range r.live {
		if s.epoch != r.epoch {
			r.drop(s)
		}
	}
	for _, s := range fresh {
		r.score(s)
	}
	r.live = vs

	var stats EpochStats
	s := &Streamer{p: r.p, g: r.graph(vs), blocks: aggs}
	next := make(map[string]*mclJob, len(r.sweeps))
	var sig []byte
	res, _ := s.finish(func(members []int) *mclJob {
		// Each key is length-prefixed: a binary key may hold any byte.
		sig = sig[:0]
		for _, v := range members {
			sig = binary.AppendUvarint(sig, uint64(len(vs[v].key)))
			sig = append(sig, vs[v].key...)
		}
		job, ok := r.sweeps[string(sig)]
		if ok {
			stats.Reused++
		} else {
			job = s.newJob(members)
			stats.Recomputed++
		}
		next[string(sig)] = job
		return job
	})
	r.sweeps = next
	stats.Components = res.Components
	return res, stats
}

// score wires a newly present set to every present set sharing a last
// hop, with the Similarity weight Streamer.Observe would give the pair,
// and indexes it.
func (r *Rolling) score(s *rollSet) {
	r.stamp++
	for _, h := range s.hops {
		for _, t := range r.posting[h] {
			if t.stamp == r.stamp {
				continue
			}
			t.stamp = r.stamp
			if w := aggregate.Similarity(t.hops, s.hops); w > 0 {
				t.edges = append(t.edges, rollEdge{to: s, w: w})
				s.edges = append(s.edges, rollEdge{to: t, w: w})
			}
		}
		r.posting[h] = append(r.posting[h], s)
	}
}

// drop forgets a set that vanished: its index entries and its edges.
func (r *Rolling) drop(s *rollSet) {
	for _, h := range s.hops {
		ps := r.posting[h]
		if i := slices.Index(ps, s); i >= 0 {
			ps = slices.Delete(ps, i, i+1)
		}
		if len(ps) == 0 {
			delete(r.posting, h)
		} else {
			r.posting[h] = ps
		}
	}
	for _, e := range s.edges {
		t := e.to
		if i := slices.IndexFunc(t.edges, func(f rollEdge) bool { return f.to == s }); i >= 0 {
			t.edges = slices.Delete(t.edges, i, i+1)
		}
	}
	delete(r.sets, s.key)
}

// graph assembles the epoch's similarity graph over vs, the sets in
// vertex order: each vertex's carried edges, ascending by neighbor, in
// one backing array.
func (r *Rolling) graph(vs []*rollSet) *graph.Graph {
	n := 0
	for _, s := range vs {
		n += len(s.edges)
	}
	all := make([]graph.Edge, n)
	adj := make([][]graph.Edge, len(vs))
	for v, s := range vs {
		es := all[:len(s.edges):len(s.edges)]
		all = all[len(s.edges):]
		for i, e := range s.edges {
			es[i] = graph.Edge{To: e.to.v, Weight: e.w}
		}
		slices.SortFunc(es, func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) })
		adj[v] = es
	}
	return graph.FromAdjacency(adj)
}
