package hobbit

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// Terminator decides when enough destinations have been probed to call a
// hierarchical-looking /24 heterogeneous with the desired confidence
// (Section 3.5). The empirical Figure-4 table implements this; the default
// falls back to the MDA stopping rule with the observed last-hop
// cardinality standing in for the interface count, as the paper's
// generalization of the single-next-hop rule suggests.
type Terminator interface {
	// Enough reports whether `probed` responsive destinations suffice
	// at the observed last-hop cardinality.
	Enough(cardinality, probed int) bool
}

// MDATerminator is the default Terminator: probed >= StoppingPoint(k).
type MDATerminator struct {
	// Confidence defaults to 0.95.
	Confidence float64
}

// Enough implements Terminator.
func (t MDATerminator) Enough(cardinality, probed int) bool {
	conf := t.Confidence
	if conf == 0 {
		conf = 0.95
	}
	return probed >= probe.StoppingPoint(cardinality, conf)
}

// ProbeAll never terminates early: every active address is probed. It is
// the densest (and most expensive) strategy, used when a block deserves a
// close look (Table 2's composition analysis) and as an ablation baseline.
type ProbeAll struct{}

// Enough implements Terminator.
func (ProbeAll) Enough(int, int) bool { return false }

// Measurer runs Hobbit over individual /24 blocks.
type Measurer struct {
	// Net is the probing surface.
	Net probe.Network
	// Opts configures the per-destination MDA runs.
	Opts probe.MDAOptions
	// Term decides hierarchical-verdict sufficiency; nil uses
	// MDATerminator at 95%.
	Term Terminator
	// MinActive is the minimum number of responsive destinations for a
	// block to be analyzable (the paper requires 4).
	MinActive int
	// Exhaustive disables early termination (the Section 6.5 reprobing
	// strategy): probing continues past non-hierarchical findings and
	// the last-hop enumeration bound replaces the hierarchy bound.
	Exhaustive bool
	// SequentialOrder replaces the Section 3.3 shuffled /26 round-robin
	// with naive ascending-address probing — an ablation baseline that
	// shows why the paper's selection covers the /26s early.
	SequentialOrder bool
	// Seed drives the deterministic destination-order shuffles.
	Seed uint64
}

// BlockResult is the measurement outcome for one /24.
type BlockResult struct {
	Block iputil.Block24
	Class Class
	// Groups are the probed addresses grouped by last-hop router.
	Groups []Group
	// LastHops is the observed set of distinct last-hop routers, sorted
	// — the block's signature for aggregation (Section 5).
	LastHops []iputil.Addr
	// Probed counts destinations probed; Responded those that answered;
	// UnrespLastHop those whose last-hop router never answered.
	Probed        int
	Responded     int
	UnrespLastHop int
	// VeryLikelyHetero marks blocks meeting the aligned-disjoint
	// criterion; SubBlocks holds their sub-prefixes.
	VeryLikelyHetero bool
	SubBlocks        []iputil.Prefix
	// Degraded counts probed destinations whose measurement crossed the
	// adaptive prober's loss threshold; BudgetExhausted those whose
	// escalation budget ran dry (see probe.MDAOptions.Adaptive).
	Degraded        int
	BudgetExhausted int
}

// LowConfidence reports whether the block's verdict rests on too many
// budget-exhausted measurements to feed aggregation: at least one
// exhausted destination, and exhausted destinations making up half or
// more of everything probed. Such blocks keep their class for reporting
// but are excluded from aggregation (see core.Pipeline).
func (r *BlockResult) LowConfidence() bool {
	return r.BudgetExhausted > 0 && 2*r.BudgetExhausted >= r.Probed
}

func (m *Measurer) term() Terminator {
	if m.Term != nil {
		return m.Term
	}
	return MDATerminator{}
}

func (m *Measurer) minActive() int {
	if m.MinActive > 0 {
		return m.MinActive
	}
	return 4
}

// singleLastHopProbes is how many responsive destinations with a common
// single last hop suffice to call the block homogeneous (the paper adopts
// the 6-probe / 95% MDA rule).
const singleLastHopProbes = 6

// Order produces the probing order of Section 3.3: the block's active
// addresses grouped by /26, visited round-robin with the /26 order
// reshuffled after each round. With SequentialOrder set it degrades to
// ascending addresses.
func (m *Measurer) Order(b iputil.Block24, by26 [4][]iputil.Addr) []iputil.Addr {
	if m.SequentialOrder {
		var out []iputil.Addr
		for _, q := range by26 {
			out = append(out, q...)
		}
		iputil.SortAddrs(out)
		return out
	}
	var quarters [][]iputil.Addr
	total := 0
	for _, q := range by26 {
		if len(q) > 0 {
			cp := append([]iputil.Addr(nil), q...)
			quarters = append(quarters, cp)
			total += len(cp)
		}
	}
	out := make([]iputil.Addr, 0, total)
	idx := make([]int, len(quarters))
	for round := 0; len(out) < total; round++ {
		// Shuffle the /26 visiting order each round.
		perm := deterministicPerm(len(quarters), m.Seed, uint64(b), uint64(round))
		for _, qi := range perm {
			if idx[qi] < len(quarters[qi]) {
				out = append(out, quarters[qi][idx[qi]])
				idx[qi]++
			}
		}
	}
	return out
}

// deterministicPerm produces a seeded Fisher-Yates permutation of [0, n).
func deterministicPerm(n int, seed, k1, k2 uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i+1, seed, k1, k2, uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// MeasureBlock classifies one /24 given its census-active addresses
// grouped by /26. It probes through one probe.Batch view of Net, so an
// instrumented Net counts the block's packets exactly but publishes them
// once, when the block is done.
func (m *Measurer) MeasureBlock(b iputil.Block24, by26 [4][]iputil.Addr) BlockResult {
	net, flush := probe.Batch(m.Net)
	defer flush()
	res := BlockResult{Block: b}
	order := m.Order(b, by26)
	gm := make(groupMap)
	term := m.term()

	for _, dst := range order {
		lr := probe.FindLastHops(net, dst, m.Opts)
		res.Probed++
		if lr.Degraded {
			res.Degraded++
		}
		if lr.BudgetExhausted {
			res.BudgetExhausted++
		}
		if !lr.Responded {
			continue
		}
		res.Responded++
		if len(lr.LastHops) == 0 {
			res.UnrespLastHop++
			continue
		}
		for _, lh := range lr.LastHops {
			gm.add(lh, dst)
		}

		if m.Exhaustive {
			// Reprobing strategy: enumerate last hops to the MDA
			// bound rather than the hierarchy bound, and never
			// stop on a non-hierarchical finding.
			if term.Enough(len(gm), res.Responded) && res.Responded >= singleLastHopProbes {
				break
			}
			continue
		}
		if len(gm) == 1 && res.Responded >= singleLastHopProbes {
			break
		}
		if len(gm) > 1 {
			groups := gm.groups()
			if NonHierarchical(groups) {
				break
			}
			if term.Enough(len(gm), res.Responded) {
				break
			}
		}
	}

	res.Groups = gm.groups()
	res.LastHops = make([]iputil.Addr, 0, len(res.Groups))
	for _, g := range res.Groups {
		res.LastHops = append(res.LastHops, g.LastHop)
	}
	res.Class = m.classify(&res, term)
	if res.Class == ClassHierarchical {
		if subs, ok := AlignedDisjoint(res.Groups); ok {
			res.VeryLikelyHetero = true
			res.SubBlocks = subs
		}
	}
	return res
}

// classify applies the Table 1 decision procedure to the accumulated
// observations.
func (m *Measurer) classify(res *BlockResult, term Terminator) Class {
	switch {
	case res.Responded < m.minActive():
		return ClassTooFewActive
	case len(res.Groups) == 0:
		return ClassUnresponsiveLastHop
	case len(res.Groups) == 1:
		if res.Responded-res.UnrespLastHop >= singleLastHopProbes {
			return ClassSameLastHop
		}
		return ClassTooFewActive
	case NonHierarchical(res.Groups):
		return ClassNonHierarchical
	case term.Enough(len(res.Groups), res.Responded-res.UnrespLastHop):
		return ClassHierarchical
	default:
		// Hierarchical-looking but under-probed: the block had fewer
		// active addresses than the confidence level requires.
		return ClassTooFewActive
	}
}
