package cluster

import (
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
)

// TestRetractMatchesFreshStream pins the retraction oracle: after any
// observe/retract interleaving, Finish must equal a fresh stream over
// the surviving blocks in their original observation order. Survivor
// internal ids are a monotone bijection onto the fresh run's ids and
// RemoveVertex preserves ascending adjacency, so every downstream
// artifact — components, MCL input ordering, sweep scores — lines up.
func TestRetractMatchesFreshStream(t *testing.T) {
	var blocks []*aggregate.Block
	blocks = append(blocks, starvedFamily(4, 10, 0x100000)...)
	blocks = append(blocks, starvedFamily(5, 8, 0x200000)...)
	for i := 0; i < 6; i++ {
		blocks = append(blocks, agg(100+i, 0x300000+uint32(i)*4, 1, 0xdead0000+uint32(i)))
	}

	// Retract a mix: mid-component vertices (splitting risk), a
	// singleton, the first and last vertex, plus no-op shapes (double
	// retract, out of range).
	drop := map[int]bool{0: true, 3: true, 7: true, 11: true, 19: true, len(blocks) - 1: true}
	p := &Pipeline{Seed: 9, Workers: 4}
	s := p.Stream()
	for i, b := range blocks {
		s.Observe(b, true)
		if i == 12 {
			// Interleave: retract some already-observed vertices mid-stream.
			s.Retract(3)
			s.Retract(7)
			s.Retract(7) // tombstone: no-op
		}
	}
	for v := range drop {
		s.Retract(v)
	}
	s.Retract(-1)          // out of range: no-op
	s.Retract(len(blocks)) // out of range: no-op
	got := s.Finish()

	var survivors []*aggregate.Block
	for i, b := range blocks {
		if !drop[i] {
			survivors = append(survivors, b)
		}
	}
	want := (&Pipeline{Seed: 9, Workers: 1}).Run(survivors)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retracted stream differs from fresh stream over survivors:\n got %+v\nwant %+v", got, want)
	}
}

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
			if e == 0 {
				if stats.Added != len(aggs) || stats.Retracted != 0 {
					t.Errorf("bootstrap stats: %+v", stats)
				}
				continue
			}
			if stats.Reused == 0 {
				t.Errorf("workers=%d epoch %d: no component reused (%+v)", workers, e, stats)
			}
			if stats.Recomputed >= stats.Components {
				t.Errorf("workers=%d epoch %d: every component recomputed (%+v)", workers, e, stats)
			}
			if stats.Added == 0 && stats.Retracted == 0 {
				t.Errorf("workers=%d epoch %d: churn generator produced no churn", workers, e)
			}
		}
	}
}

// TestRollingKeyReappears covers the tombstone-id path: a key retracted
// in one epoch and reintroduced later must come back as a fresh vertex
// and still match from-scratch.
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
