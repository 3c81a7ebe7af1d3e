package cluster

import (
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
)

// rollingEpochBlocks builds epoch e's aggregate list from a fixed pool:
// static families keep their membership, churning families rotate one
// member out per epoch, and each epoch contributes a few fresh
// singletons. The same *Block pointers recur across epochs for stable
// keys, as the monitor's per-epoch aggregation replay recurs results
// for unchanged blocks.
func rollingEpochBlocks(pool [][]*aggregate.Block, singles []*aggregate.Block, e int) []*aggregate.Block {
	var out []*aggregate.Block
	for f, fam := range pool {
		churning := f%3 == 0
		for i, b := range fam {
			if churning && i == e%len(fam) {
				continue
			}
			out = append(out, b)
		}
	}
	// Epoch-local singletons: a sliding window over the single pool.
	for i := 0; i < 4; i++ {
		out = append(out, singles[(e*2+i)%len(singles)])
	}
	return out
}

// TestRollingMatchesFromScratch is the cluster-layer half of the
// monitoring contract: every Epoch result must be deeply identical to a
// from-scratch run over the same aggregate list, while later epochs
// reuse the untouched components' cached MCL.
func TestRollingMatchesFromScratch(t *testing.T) {
	// count == k so every family member has a distinct last-hop key:
	// Epoch requires key-unique lists, as aggregate.Builder produces.
	var pool [][]*aggregate.Block
	for f := 0; f < 9; f++ {
		pool = append(pool, starvedFamily(6, 6, uint32(f+1)*0x10000))
	}
	var singles []*aggregate.Block
	for i := 0; i < 24; i++ {
		singles = append(singles, agg(500+i, 0x700000+uint32(i)*4, 1, 0xabc0000+uint32(i)))
	}

	for _, workers := range []int{1, 4} {
		roll := (&Pipeline{Seed: 11, Workers: workers}).Rolling()
		for e := 0; e < 5; e++ {
			aggs := rollingEpochBlocks(pool, singles, e)
			got, stats := roll.Epoch(aggs)
			want := (&Pipeline{Seed: 11, Workers: 1}).Run(aggs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d epoch %d: rolling result differs from from-scratch", workers, e)
			}
			if stats.Components != want.Components {
				t.Errorf("workers=%d epoch %d: %d components, from-scratch has %d", workers, e, stats.Components, want.Components)
			}
			// Each family is one multi-vertex component. The bootstrap
			// computes all nine; later epochs recompute only the three
			// churning families (every third), whose membership moved.
			wantReused, wantRecomputed := 6, 3
			if e == 0 {
				wantReused, wantRecomputed = 0, len(pool)
			}
			if stats.Reused != wantReused || stats.Recomputed != wantRecomputed {
				t.Errorf("workers=%d epoch %d: reused %d, recomputed %d; want %d, %d",
					workers, e, stats.Reused, stats.Recomputed, wantReused, wantRecomputed)
			}
		}
	}
}

// TestRollingKeyReappears covers keys that leave and come back: a key
// dropped in one epoch and reintroduced later, and a component that
// collapses to a singleton and regrows, must still match from-scratch.
func TestRollingKeyReappears(t *testing.T) {
	fam := starvedFamily(6, 6, 0x40000)
	roll := (&Pipeline{Seed: 7, Workers: 2}).Rolling()
	epochs := [][]*aggregate.Block{
		fam,      // all present
		fam[:4],  // two retracted
		fam[2:],  // two reappear, two others gone
		fam,      // all back
		fam[1:2], // collapse to a singleton
		fam,      // and back again
	}
	for e, aggs := range epochs {
		got, _ := roll.Epoch(aggs)
		want := (&Pipeline{Seed: 7, Workers: 1}).Run(aggs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: rolling result differs from from-scratch", e)
		}
	}
}
