package cluster

import (
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
)

// agg builds an aggregate block with the given /24 count and last-hop set
// drawn from a universe of router addresses.
func agg(id int, base uint32, n24 int, lastHops ...uint32) *aggregate.Block {
	b := &aggregate.Block{ID: id}
	for i := 0; i < n24; i++ {
		b.Blocks24 = append(b.Blocks24, iputil.Block24(base+uint32(i)))
	}
	for _, lh := range lastHops {
		b.LastHops = append(b.LastHops, iputil.Addr(lh))
	}
	iputil.SortAddrs(b.LastHops)
	return b
}

// starvedFamily builds aggregates that are partial views of one true
// last-hop set, each missing a different element. The hop universe is
// derived from base so different families stay disjoint.
func starvedFamily(k int, count int, base uint32) []*aggregate.Block {
	full := make([]uint32, k)
	for i := range full {
		full[i] = 0x64400000 + base + uint32(i)
	}
	var out []*aggregate.Block
	for c := 0; c < count; c++ {
		var hops []uint32
		for i, lh := range full {
			if i == c%k {
				continue // drop one element
			}
			hops = append(hops, lh)
		}
		out = append(out, agg(c, base+uint32(c)*4, 1+c%3, hops...))
	}
	return out
}

func TestBuildGraphEdges(t *testing.T) {
	blocks := []*aggregate.Block{
		agg(0, 0x010000, 1, 1, 2, 3),
		agg(1, 0x020000, 1, 3, 4), // shares hop 3 with 0: sim 1/3
		agg(2, 0x030000, 1, 9),    // disjoint: no edge
	}
	g := BuildGraph(blocks)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	found := false
	for _, e := range g.Neighbors(0) {
		if e.To == 1 && e.Weight > 0.33 && e.Weight < 0.34 {
			found = true
		}
	}
	if !found {
		t.Error("similarity edge 0-1 missing or mis-weighted")
	}

	// On a larger input the adjacency lists equal the barrier oracle's,
	// vertex by vertex.
	blocks = nil
	for f := 0; f < 6; f++ {
		blocks = append(blocks, starvedFamily(5, 20, uint32(f)*0x10000)...)
	}
	got, want := BuildGraph(blocks), buildGraph(blocks, parallel.Pool{Workers: 1})
	if got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape %d/%d vertices, %d/%d edges", got.Len(), want.Len(), got.NumEdges(), want.NumEdges())
	}
	for v := 0; v < want.Len(); v++ {
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("adjacency of vertex %d differs:\n%v\n%v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

func TestPipelineRecoversStarvedFamily(t *testing.T) {
	// Two separate families of partial observations plus a loner; MCL
	// must group each family and leave the loner unclustered.
	blocks := append(starvedFamily(8, 10, 0x100000), starvedFamily(6, 8, 0x200000)...)
	for i, b := range blocks {
		b.ID = i
	}
	loner := agg(len(blocks), 0x300000, 2, 0x7777)
	blocks = append(blocks, loner)

	p := &Pipeline{Seed: 3}
	res := p.Run(blocks)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}
	sizes := []int{len(res.Clusters[0].Members), len(res.Clusters[1].Members)}
	if sizes[0]+sizes[1] != 18 {
		t.Errorf("cluster member counts = %v", sizes)
	}
	if len(res.Unclustered) != 1 || res.Unclustered[0] != loner {
		t.Errorf("unclustered = %d", len(res.Unclustered))
	}
	if res.ChosenInflation == 0 {
		t.Error("no inflation chosen")
	}
	if len(res.SweepScores) == 0 {
		t.Error("sweep scores missing")
	}
	// Families must not mix: all members of a cluster share the family
	// base.
	for _, c := range res.Clusters {
		base := c.Members[0].Blocks24[0] >> 16
		for _, m := range c.Members {
			if m.Blocks24[0]>>16 != base {
				t.Errorf("cluster mixes families")
			}
		}
	}
}

func TestSimilarityDistributionAndRule(t *testing.T) {
	family := starvedFamily(8, 6, 0x100000)
	c := &Cluster{ID: 0, Members: family}
	scores, weights := c.SimilarityDistribution()
	if len(scores) == 0 || len(scores) != len(weights) {
		t.Fatal("empty distribution")
	}
	// Family members share 6 of at most 7 hops: similarities >= 6/7.
	if !c.MatchesRule() {
		t.Error("high-similarity family should match the rule")
	}
	// A cluster with one weak member must fail the floor.
	weak := append(append([]*aggregate.Block(nil), family...), agg(99, 0x900000, 1, 0x64400000))
	cWeak := &Cluster{ID: 1, Members: weak}
	if cWeak.MatchesRule() {
		t.Error("cluster with a weak member should fail the rule")
	}
	// Empty cluster: no match.
	if (&Cluster{}).MatchesRule() {
		t.Error("empty cluster should not match")
	}
}

func TestWeightedQuantile(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.9}
	weights := []float64{1, 1, 8}
	if got := weightedQuantile(scores, weights, 0.5); got != 0.9 {
		t.Errorf("weighted median = %v, want 0.9", got)
	}
	if got := weightedQuantile(scores, weights, 0.05); got != 0.1 {
		t.Errorf("weighted q05 = %v, want 0.1", got)
	}
	if got := weightedQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// mapReprober serves canned last-hop sets.
type mapReprober map[iputil.Block24][]iputil.Addr

func (m mapReprober) Reprobe(b iputil.Block24) []iputil.Addr { return m[b] }

func TestValidate(t *testing.T) {
	a := agg(0, 0x100000, 2, 1, 2)
	b := agg(1, 0x200000, 1, 1, 2)
	c := &Cluster{ID: 0, Members: []*aggregate.Block{a, b}}
	full := []iputil.Addr{1, 2}
	rp := mapReprober{}
	for _, blk := range c.Blocks24() {
		rp[blk] = full
	}
	v := Validate(c, rp, 0, 1)
	if !v.Homogeneous || v.Ratio() != 1 {
		t.Errorf("validation = %+v", v)
	}
	if v.PairsChecked != 3 {
		t.Errorf("PairsChecked = %d, want all 3", v.PairsChecked)
	}

	// One member reprobes to a different set: not homogeneous.
	rp[a.Blocks24[0]] = []iputil.Addr{1, 2, 3}
	v = Validate(c, rp, 0, 1)
	if v.Homogeneous || v.Ratio() == 1 {
		t.Errorf("validation should fail: %+v", v)
	}

	// Unmeasurable members are skipped.
	rp[a.Blocks24[0]] = nil
	v = Validate(c, rp, 0, 1)
	if v.PairsChecked != 1 {
		t.Errorf("PairsChecked = %d, want 1 (only b0-b1 pair)", v.PairsChecked)
	}

	// Sampled pairs bounded by maxPairs.
	for _, blk := range c.Blocks24() {
		rp[blk] = full
	}
	v = Validate(c, rp, 2, 1)
	if v.PairsChecked > 2 {
		t.Errorf("sampling exceeded maxPairs: %d", v.PairsChecked)
	}

	// Degenerate single-/24 cluster.
	if got := Validate(&Cluster{Members: []*aggregate.Block{agg(3, 0x400000, 1, 5)}}, rp, 0, 1); got.PairsChecked != 0 {
		t.Errorf("single-block validation = %+v", got)
	}
}

func TestValidateModalShare(t *testing.T) {
	// Four blocks: three agree on one set, one reprobes to a partial
	// set. Strict homogeneity fails but the modal share is 3/4.
	members := []*aggregate.Block{
		agg(0, 0x100000, 1, 1, 2, 3),
		agg(1, 0x200000, 1, 1, 2, 3),
		agg(2, 0x300000, 1, 1, 2, 3),
		agg(3, 0x400000, 1, 1, 2),
	}
	c := &Cluster{ID: 0, Members: members}
	full := []iputil.Addr{1, 2, 3}
	rp := mapReprober{}
	for i, m := range members {
		if i < 3 {
			rp[m.Blocks24[0]] = full
		} else {
			rp[m.Blocks24[0]] = []iputil.Addr{1, 2}
		}
	}
	v := Validate(c, rp, 0, 1)
	if v.Homogeneous {
		t.Error("strict criterion should fail with a dissenting member")
	}
	if v.Reprobed != 4 {
		t.Errorf("Reprobed = %d", v.Reprobed)
	}
	if v.ModalShare != 0.75 {
		t.Errorf("ModalShare = %v, want 0.75", v.ModalShare)
	}
	// All agreeing: modal share 1 and strict homogeneity.
	rp[members[3].Blocks24[0]] = full
	v = Validate(c, rp, 0, 1)
	if !v.Homogeneous || v.ModalShare != 1 {
		t.Errorf("uniform cluster = %+v", v)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	blocks1 := starvedFamily(6, 8, 0x100000)
	blocks2 := starvedFamily(6, 8, 0x100000)
	p := &Pipeline{Seed: 2}
	r1 := p.Run(blocks1)
	r2 := p.Run(blocks2)
	if len(r1.Clusters) != len(r2.Clusters) || r1.ChosenInflation != r2.ChosenInflation {
		t.Fatal("pipeline nondeterministic")
	}
	for i := range r1.Clusters {
		if len(r1.Clusters[i].Members) != len(r2.Clusters[i].Members) {
			t.Fatal("cluster memberships differ")
		}
	}
}

// TestValidationPasses pins the acceptance rule's boundary: strict
// homogeneity always passes; otherwise both the reprobed floor (>= 4) and
// the modal-share floor (>= 0.9) must hold.
func TestValidationPasses(t *testing.T) {
	cases := []struct {
		name string
		v    Validation
		want bool
	}{
		{name: "strict-homogeneous", v: Validation{Homogeneous: true, PairsChecked: 3, IdenticalPairs: 3}, want: true},
		{name: "strict-beats-low-modal", v: Validation{Homogeneous: true, Reprobed: 2, ModalShare: 0.5}, want: true},
		{name: "modal-at-both-floors", v: Validation{Reprobed: 4, ModalShare: 0.9}, want: true},
		{name: "modal-above-floors", v: Validation{Reprobed: 10, ModalShare: 0.95}, want: true},
		{name: "reprobed-below-floor", v: Validation{Reprobed: 3, ModalShare: 1.0}, want: false},
		{name: "reprobed-just-below-both-floors", v: Validation{Reprobed: 3, ModalShare: 0.9}, want: false},
		{name: "modal-share-below-floor", v: Validation{Reprobed: 10, ModalShare: 0.8999}, want: false},
		{name: "modal-just-below-at-reprobed-floor", v: Validation{Reprobed: 4, ModalShare: 0.8999}, want: false},
		{name: "zero-value", v: Validation{}, want: false},
		{name: "pairs-differ-no-modal", v: Validation{PairsChecked: 5, IdenticalPairs: 4, Reprobed: 4, ModalShare: 0.75}, want: false},
	}
	for _, tc := range cases {
		if got := tc.v.Passes(); got != tc.want {
			t.Errorf("%s: Passes() = %v, want %v (%+v)", tc.name, got, tc.want, tc.v)
		}
	}
}

// TestApplyValidatedTable drives ApplyValidatedInterned over a two-cluster result
// with every accept/reject combination, checking merge counts, pass-
// through of rejected members, and /24 conservation.
func TestApplyValidatedTable(t *testing.T) {
	build := func() *Result {
		famA := starvedFamily(4, 4, 0x100000)
		famB := starvedFamily(4, 4, 0x200000)
		loner := agg(99, 0x300000, 2, 0x9999)
		all := append(append(append([]*aggregate.Block(nil), famA...), famB...), loner)
		for i, b := range all {
			b.ID = i
		}
		p := &Pipeline{Seed: 1}
		res := p.Run(all)
		if len(res.Clusters) != 2 {
			t.Fatalf("clusters = %d, want 2", len(res.Clusters))
		}
		return res
	}
	size24 := func(blocks []*aggregate.Block) int {
		total := 0
		for _, b := range blocks {
			total += b.Size()
		}
		return total
	}
	res := build()
	inputBlocks := len(res.Clusters[0].Members) + len(res.Clusters[1].Members) + len(res.Unclustered)
	input24 := size24(res.Clusters[0].Members) + size24(res.Clusters[1].Members) + size24(res.Unclustered)
	cases := []struct {
		name      string
		validated map[int]bool
		want      int // expected final block count
	}{
		{name: "none", validated: map[int]bool{}, want: inputBlocks},
		{name: "nil-map", validated: nil, want: inputBlocks},
		{name: "first-only", validated: map[int]bool{res.Clusters[0].ID: true},
			want: inputBlocks - len(res.Clusters[0].Members) + 1},
		{name: "second-only", validated: map[int]bool{res.Clusters[1].ID: true},
			want: inputBlocks - len(res.Clusters[1].Members) + 1},
		{name: "explicit-false-is-reject", validated: map[int]bool{res.Clusters[0].ID: false},
			want: inputBlocks},
		{name: "both", validated: map[int]bool{res.Clusters[0].ID: true, res.Clusters[1].ID: true},
			want: inputBlocks - len(res.Clusters[0].Members) - len(res.Clusters[1].Members) + 2},
	}
	for _, tc := range cases {
		out := ApplyValidatedInterned(res, tc.validated, nil)
		if len(out) != tc.want {
			t.Errorf("%s: %d final blocks, want %d", tc.name, len(out), tc.want)
		}
		if got := size24(out); got != input24 {
			t.Errorf("%s: /24 conservation broken: %d -> %d", tc.name, input24, got)
		}
		for i, b := range out {
			if b.ID != i {
				t.Errorf("%s: ID %d at index %d", tc.name, b.ID, i)
			}
		}
	}
}

func TestApplyValidated(t *testing.T) {
	fam := starvedFamily(4, 4, 0x100000)
	loner := agg(9, 0x300000, 1, 0x9999)
	p := &Pipeline{Seed: 1}
	res := p.Run(append(append([]*aggregate.Block(nil), fam...), loner))
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	before := len(fam) + 1

	// Not validated: nothing merges.
	out := ApplyValidatedInterned(res, map[int]bool{}, nil)
	if len(out) != before {
		t.Errorf("unvalidated apply = %d blocks, want %d", len(out), before)
	}

	// Validated: the family merges into one block.
	out = ApplyValidatedInterned(res, map[int]bool{res.Clusters[0].ID: true}, nil)
	want := before - len(res.Clusters[0].Members) + 1
	if len(out) != want {
		t.Fatalf("validated apply = %d blocks, want %d", len(out), want)
	}
	merged := out[0]
	size := 0
	for _, m := range res.Clusters[0].Members {
		size += m.Size()
	}
	if merged.Size() != size {
		t.Errorf("merged size = %d, want %d", merged.Size(), size)
	}
	// Union of last hops: the family spans all 4 routers.
	if len(merged.LastHops) != 4 {
		t.Errorf("merged last hops = %v", merged.LastHops)
	}
	// IDs reassigned densely.
	for i, b := range out {
		if b.ID != i {
			t.Errorf("ID %d at index %d", b.ID, i)
		}
	}
}
