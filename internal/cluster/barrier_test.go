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

// This file holds the stage-barrier form of clustering — build the full
// graph with a sharded all-candidates scan, split it into components,
// sweep, cluster — as the oracle the Streamer must reproduce byte for
// byte (TestStreamerMatchesBarrier).

// halfEdge is one scored candidate pair (i, to) with i < to.
type halfEdge struct {
	to int
	w  float64
}

// buildGraph scores, per vertex i, every distinct j > i sharing a last
// hop (fanned out over the pool into row i), then adds the edges serially
// in (i, j) order.
func buildGraph(blocks []*aggregate.Block, pool parallel.Pool) *graph.Graph {
	g := graph.New(len(blocks))
	posting := make(map[iputil.Addr][]int)
	for i, b := range blocks {
		for _, lh := range b.LastHops {
			posting[lh] = append(posting[lh], i)
		}
	}
	rows := make([][]halfEdge, len(blocks))
	_ = pool.ForEach(context.Background(), len(blocks), func(i int) {
		var cand []int
		for _, lh := range blocks[i].LastHops {
			for _, j := range posting[lh] {
				if j > i {
					cand = append(cand, j)
				}
			}
		}
		sort.Ints(cand)
		row := make([]halfEdge, 0, len(cand))
		prev := -1
		for _, j := range cand {
			if j == prev {
				continue
			}
			prev = j
			row = append(row, halfEdge{to: j, w: aggregate.Similarity(blocks[i].LastHops, blocks[j].LastHops)})
		}
		rows[i] = row
	})
	for i, row := range rows {
		for _, e := range row {
			g.AddEdge(i, e.to, e.w)
		}
	}
	return g
}

// runBarrier is the stage-barrier form of Pipeline.Run.
func (p *Pipeline) runBarrier(blocks []*aggregate.Block) *Result {
	pool := parallel.Pool{Workers: p.Workers, Telemetry: p.Telemetry, Stage: "cluster"}
	g := buildGraph(blocks, pool)
	comps := g.Components()

	// Only components with >= 2 vertices need MCL.
	var multi [][]int
	for _, c := range comps {
		if len(c) >= 2 {
			multi = append(multi, c)
		}
	}

	res := &Result{SweepScores: make(map[float64]float64), Components: len(comps)}

	// Parameter sweep: minimize the fraction of intra-cluster edges
	// whose weight is below the median of all edge weights.
	median, hasEdges := g.MedianWeight()
	best := inflations[0]
	bestScore := 2.0
	for _, inf := range inflations {
		score := 0.0
		if hasEdges {
			score = p.sweepObjective(g, multi, inf, median)
		}
		res.SweepScores[inf] = score
		if score < bestScore {
			bestScore = score
			best = inf
		}
	}
	res.ChosenInflation = best

	// Final clustering at the chosen inflation.
	opts := mcl.Options{Inflation: best}
	clustered := make(map[int]bool)
	for _, comp := range multi {
		sub, back := g.Subgraph(comp)
		for _, cl := range mcl.Cluster(sub, opts) {
			if len(cl) < 2 {
				continue
			}
			c := &Cluster{ID: len(res.Clusters)}
			for _, v := range cl {
				c.Members = append(c.Members, blocks[back[v]])
				clustered[back[v]] = true
			}
			res.Clusters = append(res.Clusters, c)
		}
	}
	for i, b := range blocks {
		if !clustered[i] {
			res.Unclustered = append(res.Unclustered, b)
		}
	}

	reg := p.Telemetry
	reg.Counter("cluster.aggregates_in").Add(int64(len(blocks)))
	reg.Counter("cluster.graph_edges").Add(int64(g.NumEdges()))
	reg.Counter("cluster.components").Add(int64(len(comps)))
	reg.Counter("cluster.multi_components").Add(int64(len(multi)))
	reg.Counter("cluster.clusters").Add(int64(len(res.Clusters)))
	reg.Counter("cluster.unclustered").Add(int64(len(res.Unclustered)))
	// Gauges are int64; store the inflation scaled by 1000.
	reg.Gauge("cluster.chosen_inflation_milli").Set(int64(best * 1000))
	return res
}

// sweepObjective runs MCL at one inflation and scores it: the fraction of
// intra-cluster edges with weight below the global median.
func (p *Pipeline) sweepObjective(g *graph.Graph, comps [][]int, inflation, median float64) float64 {
	opts := mcl.Options{Inflation: inflation}
	below, total := 0, 0
	for _, comp := range comps {
		sub, _ := g.Subgraph(comp)
		clusters := mcl.Cluster(sub, opts)
		// Map vertex -> cluster id within this component.
		cid := make([]int, sub.Len())
		for id, cl := range clusters {
			for _, v := range cl {
				cid[v] = id
			}
		}
		for v := 0; v < sub.Len(); v++ {
			for _, e := range sub.Neighbors(v) {
				if v < e.To && cid[v] == cid[e.To] {
					total++
					if e.Weight < median {
						below++
					}
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(below) / float64(total)
}
