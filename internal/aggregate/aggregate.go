// Package aggregate implements Section 5: merging homogeneous /24 blocks
// that share identical last-hop-router sets into larger homogeneous
// blocks, plus the numerical-adjacency analyses of Section 5.3
// (Figures 5, 7 and 8).
package aggregate

import (
	"cmp"
	"encoding/binary"
	"slices"

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
// equality of this encoding, each hop's four bytes in order. Keys are
// only ever compared and hashed, never written to an output.
func Key(lastHops []iputil.Addr) string {
	return string(AppendKey(make([]byte, 0, 4*len(lastHops)), lastHops))
}

// AppendKey appends lastHops' Key encoding to dst and returns the
// extended buffer, so a caller that only looks a set up can reuse one
// buffer instead of allocating a key string.
func AppendKey(dst []byte, lastHops []iputil.Addr) []byte {
	for _, a := range lastHops {
		dst = binary.BigEndian.AppendUint32(dst, uint32(a))
	}
	return dst
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
//
// A Builder can instead be carried from one campaign to the next, as the
// monitor carries it across epochs: Move files each /24 under its
// campaign position and re-files it when its set changes, and Snapshot
// returns the aggregation as it stands, in the order Finish would give
// the same results fed in position order. One Builder is driven either
// by Add and Finish or by Move and Snapshot, never both.
type Builder struct {
	in    *Interner
	byKey map[string]*group
	// order is first-seen order. Under Move it is kept sorted by each
	// group's first position as of the last Snapshot, and moved lists
	// the groups created, emptied or given a new first position since;
	// spare is the backing array the next Snapshot rebuilds order in.
	order []*group
	moved []*group
	spare []*group
	buf   []byte
}

// group is one aggregate under construction. Under Move it also keeps
// each member's campaign position and whether a Snapshot block shares
// its member list.
type group struct {
	Block
	key string // the interned Key of LastHops
	// pos[i] is Blocks24[i]'s campaign position, and first the smallest.
	pos   []int32
	first int32
	// shared is set once a Snapshot block holds Blocks24: the next write
	// copies it first, so earlier snapshots never see later epochs.
	shared bool
	// queued marks a group already in moved.
	queued bool
}

// NewBuilder returns an empty builder drawing last-hop storage from in.
func NewBuilder(in *Interner) *Builder {
	return &Builder{in: in, byKey: make(map[string]*group)}
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
	g, isNew := bd.group(r.LastHops)
	if isNew {
		bd.order = append(bd.order, g)
	}
	g.Blocks24 = append(g.Blocks24, r.Block)
	return &g.Block, isNew
}

// group returns the group of the non-empty set, creating it if needed.
func (bd *Builder) group(set []iputil.Addr) (*group, bool) {
	set, k := bd.in.Intern(set)
	if g, ok := bd.byKey[k]; ok {
		return g, false
	}
	g := &group{Block: Block{LastHops: set}, key: k}
	bd.byKey[k] = g
	return g, true
}

// Finish sorts every block's member list, assigns dense IDs in
// first-seen order, and returns the aggregated blocks. The builder must
// not be used after Finish.
func (bd *Builder) Finish() []*Block {
	out := make([]*Block, len(bd.order))
	for i, g := range bd.order {
		iputil.SortBlocks(g.Blocks24)
		g.ID = i
		out[i] = &g.Block
	}
	return out
}

// Move re-files the /24 b at campaign position pos: it leaves the
// aggregate of set from and joins the aggregate of set to, where an
// empty set means none (a /24 first filed passes from empty). Both sets
// must be sorted, and from must be the set b was last filed under. Work
// is proportional to the two aggregates' sizes, and a /24 whose set did
// not change costs a comparison.
func (bd *Builder) Move(pos int, b iputil.Block24, from, to []iputil.Addr) {
	if slices.Equal(from, to) {
		return
	}
	if len(from) > 0 {
		bd.buf = AppendKey(bd.buf[:0], from)
		bd.leave(bd.byKey[string(bd.buf)], b)
	}
	if len(to) > 0 {
		g, isNew := bd.group(to)
		bd.join(g, int32(pos), b, isNew)
	}
}

// join adds b at position pos to g's sorted member list.
func (bd *Builder) join(g *group, pos int32, b iputil.Block24, isNew bool) {
	g.own()
	i, _ := slices.BinarySearch(g.Blocks24, b)
	g.Blocks24 = slices.Insert(g.Blocks24, i, b)
	g.pos = slices.Insert(g.pos, i, pos)
	if isNew || pos < g.first {
		g.first = pos
		bd.queue(g)
	}
}

// leave removes b from g's sorted member list; a group left empty is
// dropped, along with its interned set.
func (bd *Builder) leave(g *group, b iputil.Block24) {
	g.own()
	i, _ := slices.BinarySearch(g.Blocks24, b)
	pos := g.pos[i]
	g.Blocks24 = slices.Delete(g.Blocks24, i, i+1)
	g.pos = slices.Delete(g.pos, i, i+1)
	switch {
	case len(g.pos) == 0:
		// The set leaves the interner too, so sets that churn away do
		// not accumulate; a later return interns it afresh.
		delete(bd.byKey, g.key)
		delete(bd.in.byKey, g.key)
		bd.queue(g)
	case pos == g.first:
		g.first = slices.Min(g.pos)
		bd.queue(g)
	}
}

// own makes g's member list private before a write.
func (g *group) own() {
	if g.shared {
		g.Blocks24 = append(make([]iputil.Block24, 0, len(g.Blocks24)+1), g.Blocks24...)
		g.shared = false
	}
}

func (bd *Builder) queue(g *group) {
	if !g.queued {
		g.queued = true
		bd.moved = append(bd.moved, g)
	}
}

// Snapshot returns the aggregation Move has built: fresh blocks, ordered
// by each aggregate's first position, with dense IDs, sorted member
// lists and interned sets. The blocks are the caller's: a later Move
// never writes them or their member lists, so an earlier Snapshot stays
// as it was. Work is one pass over the aggregates plus a sort of those
// moved since the last Snapshot.
func (bd *Builder) Snapshot() []*Block {
	if len(bd.moved) > 0 {
		live := bd.moved[:0]
		for _, g := range bd.moved {
			if len(g.pos) > 0 {
				live = append(live, g)
			}
		}
		slices.SortFunc(live, func(a, b *group) int { return cmp.Compare(a.first, b.first) })
		// The groups that did not move kept their first positions, so
		// order without the moved ones is still sorted: merge them in.
		ins, order := live, bd.spare[:0]
		for _, g := range bd.order {
			if g.queued {
				continue
			}
			for len(ins) > 0 && ins[0].first < g.first {
				order = append(order, ins[0])
				ins = ins[1:]
			}
			order = append(order, g)
		}
		order = append(order, ins...)
		for _, g := range live {
			g.queued = false
		}
		clear(bd.moved)
		bd.moved = bd.moved[:0]
		bd.order, bd.spare = order, bd.order
	}
	// Sets that only the interner's other users added (the merged sets
	// of validation) have no group to drop them: once the interner
	// holds twice the live sets, it keeps only those.
	if bd.in.Len() > 2*len(bd.order) {
		clear(bd.in.byKey)
		for _, g := range bd.order {
			bd.in.byKey[g.key] = internEnt{set: g.LastHops, key: g.key}
		}
	}
	blocks := make([]Block, len(bd.order))
	out := make([]*Block, len(bd.order))
	for i, g := range bd.order {
		g.shared = true
		blocks[i] = Block{ID: i, Blocks24: g.Blocks24, LastHops: g.LastHops}
		out[i] = &blocks[i]
	}
	return out
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
