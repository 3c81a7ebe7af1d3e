// Package cluster implements Section 6: aggregating /24 blocks whose
// observed last-hop sets are similar but not identical. It models
// identical-set aggregates as vertices of a weighted similarity graph
// (score |A∩B| / max(|A|,|B|)), pre-splits the graph into connected
// components, runs MCL per component with an inflation parameter chosen by
// the paper's sweep objective, screens clusters with a similarity-
// distribution rule, and validates them by reprobing.
package cluster

import (
	"sort"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/graph"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/rng"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Cluster is one MCL output group over identical-set aggregates.
type Cluster struct {
	ID      int
	Members []*aggregate.Block
}

// Blocks24 returns all member /24s sorted.
func (c *Cluster) Blocks24() []iputil.Block24 {
	var out []iputil.Block24
	for _, m := range c.Members {
		out = append(out, m.Blocks24...)
	}
	iputil.SortBlocks(out)
	return out
}

// BuildGraph constructs the similarity graph over aggregates: vertices are
// the identical-set aggregates (the Section 6.3 pre-merge of weight-1
// edges), edges connect aggregates with overlapping last-hop sets,
// weighted by the similarity score. Aggregates with disjoint sets get no
// edge. It is the batch form of the Streamer's inverted-index build —
// every aggregate observed once, in order, and never clustered — so the
// graph is exactly the one a clustering run over the same list builds.
func BuildGraph(blocks []*aggregate.Block) *graph.Graph {
	s := (&Pipeline{}).Stream()
	for _, b := range blocks {
		s.Observe(b, true)
	}
	return s.g
}

// Pipeline configures the clustering run.
type Pipeline struct {
	// Seed is not read: clustering is deterministic without one, and
	// validation takes its pair-sampling seed as an argument (see
	// Validate).
	Seed uint64
	// Workers bounds the concurrency of the clustering: the MCL runs
	// of the inflation sweep, one per (component, inflation) pair, each
	// serial inside (0 = GOMAXPROCS, 1 = serial). The result is
	// identical for every worker count (see the parallel package's
	// determinism contract).
	Workers int
	// Telemetry receives "cluster.…" counters and gauges; nil disables
	// it.
	Telemetry *telemetry.Registry
}

// Result is the output of Run.
type Result struct {
	// Clusters are the multi-aggregate MCL groups, ordered by first
	// member.
	Clusters []*Cluster
	// Unclustered are aggregates left in singleton groups.
	Unclustered []*aggregate.Block
	// ChosenInflation is the sweep winner; SweepScores maps each
	// candidate to its objective (lower is better).
	ChosenInflation float64
	SweepScores     map[float64]float64
	// Components is the number of connected components processed.
	Components int
}

// inflations are the MCL inflation sweep's candidates, in sweep order.
var inflations = []float64{1.4, 1.8, 2.0, 2.4, 3.0}

// Run executes the full Section 6.3-6.4 procedure. It is the batch form
// of the streaming clusterer: every aggregate is observed as a fresh
// delta and the stream is finished immediately, which routes the whole
// run — incremental graph build, per-component MCL on the worker pool,
// deferred sweep merge — through the same code the pipelined campaign
// drives one result at a time. The stage-barrier implementation it
// replaced is the test oracle (runBarrier in barrier_test.go).
func (p *Pipeline) Run(blocks []*aggregate.Block) *Result {
	s := p.Stream()
	for _, b := range blocks {
		s.Observe(b, true)
	}
	return s.Finish()
}

// SimilarityDistribution returns the weighted distribution of pairwise
// /24 similarity scores within a cluster: pairs inside one aggregate score
// 1, pairs across aggregates score the aggregate similarity, each weighted
// by the number of /24 pairs it represents. Returned as (score, weight)
// samples.
func (c *Cluster) SimilarityDistribution() (scores []float64, weights []float64) {
	for i, a := range c.Members {
		if n := a.Size(); n >= 2 {
			scores = append(scores, 1.0)
			weights = append(weights, float64(n*(n-1)/2))
		}
		for j := i + 1; j < len(c.Members); j++ {
			b := c.Members[j]
			scores = append(scores, aggregate.Similarity(a.LastHops, b.LastHops))
			weights = append(weights, float64(a.Size()*b.Size()))
		}
	}
	return scores, weights
}

// weightedQuantile computes the q-quantile of a weighted sample.
func weightedQuantile(scores, weights []float64, q float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	type sw struct{ s, w float64 }
	items := make([]sw, len(scores))
	var total float64
	for i := range scores {
		items[i] = sw{s: scores[i], w: weights[i]}
		total += weights[i]
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s < items[j].s })
	target := q * total
	var cum float64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.s
		}
	}
	return items[len(items)-1].s
}

// Rule parameters: our instantiation of the paper's manually-built rule
// over the within-cluster similarity distribution (Section 6.6 describes
// the rule's existence and quality but not its constants).
const (
	ruleMedianMin = 0.85
	ruleFloorMin  = 0.25
)

// MatchesRule applies the screening rule: the weighted median pairwise
// similarity must be high and no pair may fall below a floor.
func (c *Cluster) MatchesRule() bool {
	scores, weights := c.SimilarityDistribution()
	if len(scores) == 0 {
		return false
	}
	med := weightedQuantile(scores, weights, 0.5)
	min := scores[0]
	for _, s := range scores {
		if s < min {
			min = s
		}
	}
	return med >= ruleMedianMin && min >= ruleFloorMin
}

// Reprober supplies the Section 6.5 validation measurements: the
// exhaustively-observed last-hop set of a /24, or nil when it cannot be
// measured.
type Reprober interface {
	Reprobe(b iputil.Block24) []iputil.Addr
}

// Validation is the outcome of reprobing one cluster.
type Validation struct {
	PairsChecked   int
	IdenticalPairs int
	// Homogeneous is true when every checked pair had identical sets —
	// the paper's strict criterion.
	Homogeneous bool
	// Reprobed is the number of member /24s that yielded a last-hop
	// set; ModalShare is the fraction of them agreeing on the most
	// common set. Availability churn leaves a few members with
	// incomplete sets even in a truly homogeneous cluster, so callers
	// may accept clusters with a dominant modal set.
	Reprobed   int
	ModalShare float64
}

// Acceptance thresholds for the modal-set relaxation: enough reprobed
// members that a 90% modal share cannot come from a cluster that wrongly
// merged two aggregates, yet loose enough to tolerate availability churn.
const (
	acceptMinReprobed = 4
	acceptModalShare  = 0.9
)

// Passes reports whether the validation outcome accepts the cluster for
// merging: the paper's strict all-pairs-identical criterion, or a
// dominant modal set — at least acceptMinReprobed members reprobed with
// at least acceptModalShare of them agreeing on one last-hop set.
func (v Validation) Passes() bool {
	return v.Homogeneous || (v.Reprobed >= acceptMinReprobed && v.ModalShare >= acceptModalShare)
}

// Ratio is the fraction of identical pairs (Figure 9's metric).
func (v Validation) Ratio() float64 {
	if v.PairsChecked == 0 {
		return 0
	}
	return float64(v.IdenticalPairs) / float64(v.PairsChecked)
}

// Validate reprobes up to maxPairs /24 pairs of the cluster (all pairs if
// fewer) with the exhaustive strategy and checks last-hop set identity.
func Validate(c *Cluster, rp Reprober, maxPairs int, seed uint64) Validation {
	blocks := c.Blocks24()
	if len(blocks) < 2 {
		return Validation{}
	}
	sets := make(map[iputil.Block24]string)
	lookup := func(b iputil.Block24) (string, bool) {
		if k, ok := sets[b]; ok {
			return k, k != ""
		}
		lhs := rp.Reprobe(b)
		if len(lhs) == 0 {
			sets[b] = ""
			return "", false
		}
		iputil.SortAddrs(lhs)
		k := aggregate.Key(lhs)
		sets[b] = k
		return k, true
	}

	var v Validation
	totalPairs := len(blocks) * (len(blocks) - 1) / 2
	if maxPairs <= 0 || maxPairs > totalPairs {
		maxPairs = totalPairs
	}
	checkPair := func(a, b iputil.Block24) {
		ka, oka := lookup(a)
		kb, okb := lookup(b)
		if !oka || !okb {
			return
		}
		v.PairsChecked++
		if ka == kb {
			v.IdenticalPairs++
		}
	}
	if maxPairs == totalPairs {
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				checkPair(blocks[i], blocks[j])
			}
		}
	} else {
		id := rng.Seed(seed).Key(uint64(c.ID))
		for d := 0; d < maxPairs; d++ {
			pair := id.Key(uint64(d))
			i := pair.Key(0).Intn(len(blocks))
			j := pair.Key(1).Intn(len(blocks) - 1)
			if j >= i {
				j++
			}
			checkPair(blocks[i], blocks[j])
		}
	}
	v.Homogeneous = v.PairsChecked > 0 && v.IdenticalPairs == v.PairsChecked

	// Modal-set agreement across the reprobed members.
	counts := make(map[string]int)
	for _, k := range sets {
		if k != "" {
			counts[k]++
			v.Reprobed++
		}
	}
	modal := 0
	for _, n := range counts {
		if n > modal {
			modal = n
		}
	}
	if v.Reprobed > 0 {
		v.ModalShare = float64(modal) / float64(v.Reprobed)
	}
	return v
}

// ApplyValidatedInterned produces the final aggregate list: validated
// clusters merge into one block (union of members and of last-hop sets);
// members of unvalidated clusters and unclustered aggregates pass
// through. This realizes the Section 6.6 final results and the Figure 10
// "after" distribution. Merged last-hop sets are drawn from the given
// interner (nil keeps per-block storage): a union set that was already
// interned — typically because several validated clusters merge onto the
// same routers — aliases the existing canonical slice instead of holding
// its own copy.
func ApplyValidatedInterned(res *Result, validated map[int]bool, in *aggregate.Interner) []*aggregate.Block {
	var out []*aggregate.Block
	taken := make(map[*aggregate.Block]bool)
	for _, c := range res.Clusters {
		if !validated[c.ID] {
			continue
		}
		merged := &aggregate.Block{}
		lhSet := make(map[iputil.Addr]struct{})
		for _, m := range c.Members {
			taken[m] = true
			merged.Blocks24 = append(merged.Blocks24, m.Blocks24...)
			for _, lh := range m.LastHops {
				lhSet[lh] = struct{}{}
			}
		}
		iputil.SortBlocks(merged.Blocks24)
		for lh := range lhSet {
			merged.LastHops = append(merged.LastHops, lh)
		}
		iputil.SortAddrs(merged.LastHops)
		if in != nil {
			merged.LastHops, _ = in.Intern(merged.LastHops)
		}
		out = append(out, merged)
	}
	for _, c := range res.Clusters {
		if validated[c.ID] {
			continue
		}
		for _, m := range c.Members {
			if !taken[m] {
				out = append(out, m)
			}
		}
	}
	out = append(out, res.Unclustered...)
	for i, b := range out {
		b.ID = i
	}
	return out
}
