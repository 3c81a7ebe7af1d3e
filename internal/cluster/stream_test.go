package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// streamerRun drives a Streamer the way the core pipeline does: one
// Observe per kept campaign result, in order. reobserveEvery > 0
// additionally replays an already-created aggregate every few deltas
// (isNew=false — a later /24 landing in an existing aggregate), which
// must leave the graph and the result unchanged.
func streamerRun(p *Pipeline, blocks []*aggregate.Block, reobserveEvery int) *Result {
	s := p.Stream()
	for i, b := range blocks {
		s.Observe(b, true)
		if reobserveEvery > 0 && i%reobserveEvery == reobserveEvery-1 {
			s.Observe(blocks[i/2], false)
		}
	}
	return s.Finish()
}

// streamBlocks builds many small families plus a few singleton loners.
func streamBlocks() []*aggregate.Block {
	var blocks []*aggregate.Block
	for f := 0; f < 60; f++ {
		blocks = append(blocks, starvedFamily(5, 10, uint32(f)*0x10000)...)
	}
	for i := 0; i < 8; i++ {
		blocks = append(blocks, agg(0, 0x800000+uint32(i)*4, 1, 0xbeef0000+uint32(i)))
	}
	for i, b := range blocks {
		b.ID = i
	}
	return blocks
}

// lateJoinerBlocks builds a two-aggregate family, a run of disjoint
// singletons, a late joiner that shares the family's hops, and more
// singletons: the family's component is complete long before the joiner
// merges into it, hundreds of deltas later.
func lateJoinerBlocks() []*aggregate.Block {
	var blocks []*aggregate.Block
	blocks = append(blocks,
		agg(0, 0x100000, 1, 1, 2, 3),
		agg(1, 0x100100, 1, 1, 2, 3))
	for i := 0; i < 264; i++ {
		blocks = append(blocks, agg(2+i, 0x200000+uint32(i)*4, 1, 0x9990000+uint32(i)))
	}
	blocks = append(blocks, agg(900, 0x300000, 1, 2, 3, 4))
	for i := 0; i < 264; i++ {
		blocks = append(blocks, agg(1000+i, 0x400000+uint32(i)*4, 1, 0x8880000+uint32(i)))
	}
	return blocks
}

// TestStreamerMatchesBarrier is the determinism contract at the cluster
// layer: the incremental build + per-component sweep must produce a
// Result deeply identical to the barrier path — same clusters in the
// same order, same sweep scores, same chosen inflation — at any worker
// count and under re-observation traffic.
func TestStreamerMatchesBarrier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		blocks []*aggregate.Block
		// minClusters guards the input's shape: the barrier baseline
		// must find at least that many clusters. oneCluster > 0 requires
		// exactly one cluster of that many members.
		minClusters, oneCluster int
	}{
		{"families", 3, streamBlocks(), 2, 0},
		{"late-joiner", 1, lateJoinerBlocks(), 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := (&Pipeline{Seed: tc.seed}).runBarrier(tc.blocks)
			if len(want.Clusters) < tc.minClusters {
				t.Fatalf("barrier baseline found only %d clusters", len(want.Clusters))
			}
			for _, workers := range []int{1, 8} {
				for _, re := range []int{0, 3} {
					reg := telemetry.NewRegistry()
					p := &Pipeline{Seed: tc.seed, Workers: workers, Telemetry: reg}
					got := streamerRun(p, tc.blocks, re)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d reobserve=%d: streamed result differs from barrier", workers, re)
					}
				}
			}
			if tc.oneCluster > 0 && (len(want.Clusters) != 1 || len(want.Clusters[0].Members) != tc.oneCluster) {
				t.Errorf("want one cluster of %d members, got %+v", tc.oneCluster, want.Clusters)
			}
		})
	}
}

// TestSweepComponentDeterminism pins the per-component sweep rewrite on
// its two degenerate shapes — a graph of nothing but singletons (no MCL
// work at all) and one giant component (all MCL work in a single job) —
// asserting byte-identical results between a serial and an 8-worker run,
// and between both and the barrier path.
func TestSweepComponentDeterminism(t *testing.T) {
	singles := make([]*aggregate.Block, 0, 50)
	for i := 0; i < 50; i++ {
		singles = append(singles, agg(i, uint32(i)*0x1000, 1+i%3, 0xaaa0000+uint32(i)))
	}
	giant := starvedFamily(6, 150, 0x500000)
	for i, b := range giant {
		b.ID = i
	}
	for name, blocks := range map[string][]*aggregate.Block{
		"all-singletons":      singles,
		"one-giant-component": giant,
	} {
		t.Run(name, func(t *testing.T) {
			want := (&Pipeline{Seed: 5}).runBarrier(blocks)
			serial := streamerRun(&Pipeline{Seed: 5, Workers: 1}, blocks, 0)
			sharded := streamerRun(&Pipeline{Seed: 5, Workers: 8}, blocks, 0)
			for label, got := range map[string]*Result{"serial": serial, "workers=8": sharded} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result differs from barrier", label)
				}
			}
			// Byte-level check on the serialized artifacts, sweep scores
			// included: DeepEqual tolerates nothing, but the byte form is
			// what downstream caches and goldens compare. SweepScores is
			// keyed by float64, which encoding/json refuses, so it rides
			// along as a sorted pair list.
			marshal := func(r *Result) []byte {
				type pair struct{ K, V float64 }
				sweeps := make([]pair, 0, len(r.SweepScores))
				for k, v := range r.SweepScores {
					sweeps = append(sweeps, pair{k, v})
				}
				sort.Slice(sweeps, func(i, j int) bool { return sweeps[i].K < sweeps[j].K })
				j, err := json.Marshal(struct {
					Clusters        []*Cluster
					Unclustered     []*aggregate.Block
					ChosenInflation float64
					Sweeps          []pair
					Components      int
				}{r.Clusters, r.Unclustered, r.ChosenInflation, sweeps, r.Components})
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			if !bytes.Equal(marshal(serial), marshal(sharded)) {
				t.Error("serial and sharded runs serialize to different bytes")
			}
		})
	}
}
