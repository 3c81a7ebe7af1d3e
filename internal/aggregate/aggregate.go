// Package aggregate implements Section 5: merging homogeneous /24 blocks
// that share identical last-hop-router sets into larger homogeneous
// blocks, plus the numerical-adjacency analyses of Section 5.3
// (Figures 5, 7 and 8).
package aggregate

import (
	"strconv"
	"strings"

	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/stats"
)

// Block is one aggregated homogeneous block: a set of /24s observed to
// share exactly the same set of last-hop routers.
type Block struct {
	// ID is a dense index assigned by Identical.
	ID int
	// Blocks24 lists the member /24s in ascending order.
	Blocks24 []iputil.Block24
	// LastHops is the shared last-hop set in ascending order.
	LastHops []iputil.Addr
}

// Size returns the number of member /24s.
func (b *Block) Size() int { return len(b.Blocks24) }

// Key canonicalizes a sorted last-hop set for identity comparison: two
// sets are identical iff their sizes match and every member of one is in
// the other (footnote 9 of the paper), which for sorted sets is string
// equality of this encoding.
func Key(lastHops []iputil.Addr) string {
	var sb strings.Builder
	sb.Grow(len(lastHops) * 9)
	for i, a := range lastHops {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(uint64(a), 16))
	}
	return sb.String()
}

// Identical aggregates measurement results by identical last-hop sets.
// Results with empty last-hop sets are skipped. Output blocks are ordered
// by their smallest member /24; member lists and last-hop sets are sorted.
func Identical(results []*hobbit.BlockResult) []*Block {
	return IdenticalInterned(results, NewInterner())
}

// IdenticalInterned is Identical drawing its last-hop storage from the
// given interner: every output block's LastHops is the interner's
// canonical slice for its set, so blocks with equal sets — within this
// call and across calls sharing the interner — alias the same backing
// array.
func IdenticalInterned(results []*hobbit.BlockResult, in *Interner) []*Block {
	bd := NewBuilder(in)
	for _, r := range results {
		bd.Add(r)
	}
	return bd.Finish()
}

// Builder is the incremental form of IdenticalInterned: results are
// folded in one at a time as a pipelined campaign emits them, and Finish
// seals the aggregation. Feeding a Builder the same results in the same
// order as an IdenticalInterned call produces exactly its output — group
// membership, block order, member sorting, and dense IDs — which is what
// lets the streaming pipeline aggregate against the measurement campaign
// without a barrier and still stay byte-identical to a one-shot
// aggregation of the finished campaign.
type Builder struct {
	in    *Interner
	byKey map[string]*Block
	order []*Block
}

// NewBuilder returns an empty builder drawing last-hop storage from in.
func NewBuilder(in *Interner) *Builder {
	return &Builder{in: in, byKey: make(map[string]*Block)}
}

// Add folds one measurement result into the aggregation. Results with
// empty last-hop sets are skipped, exactly as Identical skips them
// (returning nil, false). Otherwise it returns the aggregate the result
// landed in and whether this call created it — the delta signal the
// streaming clusterer keys its incremental graph build on: a new
// aggregate is a new similarity-graph vertex (its LastHops are final the
// moment it is created), while a repeat only grows a member list, which
// no edge depends on.
func (bd *Builder) Add(r *hobbit.BlockResult) (*Block, bool) {
	if len(r.LastHops) == 0 {
		return nil, false
	}
	set, k := bd.in.Intern(r.LastHops)
	blk, ok := bd.byKey[k]
	if !ok {
		blk = &Block{LastHops: set}
		bd.byKey[k] = blk
		bd.order = append(bd.order, blk)
	}
	blk.Blocks24 = append(blk.Blocks24, r.Block)
	return blk, !ok
}

// Finish sorts every block's member list, assigns dense IDs in
// first-seen order, and returns the aggregated blocks. The builder must
// not be used after Finish.
func (bd *Builder) Finish() []*Block {
	for i, b := range bd.order {
		iputil.SortBlocks(b.Blocks24)
		b.ID = i
	}
	return bd.order
}

// SizeHistogram tallies aggregate sizes in /24s — the series of Figure 5.
func SizeHistogram(blocks []*Block) *stats.Histogram {
	h := stats.NewHistogram()
	for _, b := range blocks {
		h.Add(b.Size())
	}
	return h
}

// AdjacentLCPs returns the longest-common-prefix lengths (0..23) between
// numerically adjacent member /24s — Figure 7a's distribution. Blocks of
// size 1 contribute nothing.
func AdjacentLCPs(b *Block) []int {
	if b.Size() < 2 {
		return nil
	}
	out := make([]int, 0, b.Size()-1)
	for i := 1; i < len(b.Blocks24); i++ {
		l := iputil.CommonPrefixLen24(b.Blocks24[i-1], b.Blocks24[i])
		if l > 23 {
			l = 23
		}
		out = append(out, l)
	}
	return out
}

// MinMaxLCP returns the longest common prefix length between the smallest
// and largest member /24s — Figure 7b's metric. ok is false for blocks of
// size < 2.
func MinMaxLCP(b *Block) (int, bool) {
	if b.Size() < 2 {
		return 0, false
	}
	l := iputil.CommonPrefixLen24(b.Blocks24[0], b.Blocks24[len(b.Blocks24)-1])
	if l > 23 {
		l = 23
	}
	return l, true
}

// AdjacencyLines computes the Figure 8 visualization coordinates: for the
// sorted member list {p1..pn}, x1 = 1 and xi = x(i-1) + (24 -
// LCPLEN(p(i-1), pi)), so the gap between consecutive lines grows as
// adjacency falls.
func AdjacencyLines(b *Block) []float64 {
	if b.Size() == 0 {
		return nil
	}
	xs := make([]float64, b.Size())
	xs[0] = 1
	for i := 1; i < len(b.Blocks24); i++ {
		lcp := iputil.CommonPrefixLen24(b.Blocks24[i-1], b.Blocks24[i])
		xs[i] = xs[i-1] + float64(24-lcp)
	}
	return xs
}

// TopBySize returns the n largest blocks, ties broken by smallest member,
// for the Table 5 characterization.
func TopBySize(blocks []*Block, n int) []*Block {
	sorted := append([]*Block(nil), blocks...)
	// Simple selection sort of the top n (n is small, e.g. 15).
	for i := 0; i < n && i < len(sorted); i++ {
		best := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Size() > sorted[best].Size() ||
				(sorted[j].Size() == sorted[best].Size() &&
					len(sorted[j].Blocks24) > 0 && len(sorted[best].Blocks24) > 0 &&
					sorted[j].Blocks24[0] < sorted[best].Blocks24[0]) {
				best = j
			}
		}
		sorted[i], sorted[best] = sorted[best], sorted[i]
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// Similarity is the Section 6.3 score between two sorted last-hop sets:
// |A ∩ B| / max(|A|, |B|).
func Similarity(a, b []iputil.Addr) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	return float64(inter) / float64(max)
}
