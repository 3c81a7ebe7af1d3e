package aggregate

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
)

// cloneBlocks deep-copies an aggregation, so a later comparison can show
// whether anything wrote the original.
func cloneBlocks(bs []*Block) []*Block {
	out := make([]*Block, len(bs))
	for i, b := range bs {
		out[i] = &Block{ID: b.ID, Blocks24: slices.Clone(b.Blocks24), LastHops: slices.Clone(b.LastHops)}
	}
	return out
}

// TestMoveMatchesIdentical is the carried Builder's contract: after any
// sequence of Moves, Snapshot equals a one-shot IdenticalInterned over
// the current results in position order, and no Snapshot changes after
// later Moves. Positions run in a shuffled block order, so first-seen
// order and member order differ, and sets churn, vanish and come back,
// sometimes within one epoch.
func TestMoveMatchesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	// pool[0] is no set: the /24 is not homogeneous, or has no last hop.
	pool := [][]iputil.Addr{nil}
	shared := hops("9.9.9.1", "9.9.9.2", "9.9.9.3")
	for i := 0; i < 12; i++ {
		set := append(slices.Clone(shared[:i%4]), iputil.Addr(0x0a000000+i))
		iputil.SortAddrs(set)
		pool = append(pool, set)
	}
	const n = 40
	blocks := make([]iputil.Block24, n)
	for i := range blocks {
		blocks[i] = iputil.Block24(0x010000 + i)
	}
	rng.Shuffle(n, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	sets := make([][]iputil.Addr, n)

	bd := NewBuilder(NewInterner())
	var snaps, copies [][]*Block
	resized := 0
	for e := 0; e < 60; e++ {
		moves := n
		if e > 0 {
			moves = rng.Intn(12)
		}
		for k := 0; k < moves; k++ {
			i := k
			if e > 0 {
				i = rng.Intn(n)
			}
			to := pool[rng.Intn(len(pool))]
			bd.Move(i, blocks[i], sets[i], to)
			sets[i] = to
		}
		var results []*hobbit.BlockResult
		for i, b := range blocks {
			results = append(results, &hobbit.BlockResult{Block: b, LastHops: sets[i]})
		}
		got := bd.Snapshot()
		if want := Identical(results); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: Snapshot differs from a one-shot aggregation", e)
		}
		if bd.in.Len() != len(got) {
			t.Errorf("epoch %d: interner holds %d sets for %d aggregates", e, bd.in.Len(), len(got))
		}
		if e > 0 && len(got) != len(snaps[e-1]) {
			resized++
		}
		snaps, copies = append(snaps, got), append(copies, cloneBlocks(got))
	}
	if resized == 0 {
		t.Fatal("no set vanished or appeared: the churn exercised nothing")
	}
	for e := range snaps {
		if !reflect.DeepEqual(snaps[e], copies[e]) {
			t.Errorf("epoch %d's Snapshot changed after later Moves", e)
		}
	}
}

// TestMoveUnchangedSetIsFree: re-filing a /24 under the set it already
// has must leave the builder as it was, so an unchanged reprobe costs
// nothing downstream.
func TestMoveUnchangedSetIsFree(t *testing.T) {
	bd := NewBuilder(NewInterner())
	set := hops("1.1.1.1", "2.2.2.2")
	bd.Move(0, b24("10.0.0.0"), nil, set)
	bd.Move(1, b24("10.0.1.0"), nil, set)
	first := bd.Snapshot()
	bd.Move(0, b24("10.0.0.0"), set, slices.Clone(set))
	if len(bd.moved) != 0 {
		t.Fatalf("an unchanged set queued %d groups", len(bd.moved))
	}
	second := bd.Snapshot()
	if !reflect.DeepEqual(first, second) || &first[0].Blocks24[0] != &second[0].Blocks24[0] {
		t.Error("an unchanged set changed the aggregation or copied its member list")
	}
}

// TestSnapshotDropsForeignSets: sets another user interned (validation's
// merged sets) are dropped once they outnumber the aggregates, so a
// carried interner stays bounded, and the live sets keep their
// canonical slices.
func TestSnapshotDropsForeignSets(t *testing.T) {
	in := NewInterner()
	bd := NewBuilder(in)
	a, b := hops("1.1.1.1"), hops("2.2.2.2", "3.3.3.3")
	bd.Move(0, b24("10.0.0.0"), nil, a)
	bd.Move(1, b24("10.0.1.0"), nil, b)
	bd.Snapshot()
	for i := 0; i < 4; i++ {
		in.Intern([]iputil.Addr{iputil.Addr(0x0b000000 + i)})
	}
	got := bd.Snapshot()
	if in.Len() != len(got) {
		t.Fatalf("interner holds %d sets for %d aggregates", in.Len(), len(got))
	}
	for _, blk := range got {
		if set, _ := in.Intern(blk.LastHops); &set[0] != &blk.LastHops[0] {
			t.Errorf("set %v lost its canonical slice", blk.LastHops)
		}
	}
}
