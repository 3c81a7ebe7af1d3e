package cluster

import (
	"fmt"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/parallel"
)

// benchAggregates builds n aggregates in small families (the clusterable
// mass a real campaign produces) plus a singleton tail.
func benchAggregates(n int) []*aggregate.Block {
	var blocks []*aggregate.Block
	f := 0
	for len(blocks) < n {
		fam := starvedFamily(5, 8, uint32(f)*0x1000)
		for _, b := range fam {
			if len(blocks) >= n {
				break
			}
			b.ID = len(blocks)
			blocks = append(blocks, b)
		}
		f++
	}
	return blocks
}

// BenchmarkGraphBuild compares the two similarity-graph constructions
// over the same aggregates: the barrier oracle (buildGraph shards the
// O(n·candidates) pair scan over a pool) against the production
// incremental path (one Observe per aggregate growing the graph through
// the inverted index; the stream is never finished, so no MCL runs).
// The adjacency lists are identical by contract
// (TestStreamerMatchesBarrier); this leg pins the cost of getting them.
func BenchmarkGraphBuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		blocks := benchAggregates(n)
		b.Run(fmt.Sprintf("barrier-%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				g := buildGraph(blocks, parallel.Pool{Workers: 8})
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
		b.Run(fmt.Sprintf("incremental-%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				s := (&Pipeline{Seed: 1}).Stream()
				for _, blk := range blocks {
					s.Observe(blk, true)
				}
				edges = s.g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}
