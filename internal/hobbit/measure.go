package hobbit

import (
	"slices"

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

// ProbeAll is the Terminator that is never satisfied: a
// hierarchical-looking block is probed down to its last active address,
// and so, under Measurer.Exhaustive, is every block once one of its last
// hops has answered. A block whose first six responders all sit behind an
// anonymous last hop still stops there (see MeasureBlock). It is the
// densest (and most expensive) strategy, used when a block deserves a
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
	// Exhaustive disables early termination on answering last hops
	// (the Section 6.5 reprobing strategy): probing continues past
	// non-hierarchical findings and the last-hop enumeration bound
	// replaces the hierarchy bound. Six responders behind an anonymous
	// last hop still settle a block that no last hop has answered for.
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
	// prober's consecutive-loss threshold (see probe.MDAResult.Degraded).
	// It reports loss; it changes neither the probing nor the verdict.
	Degraded int
}

// LowConfidence returns false: no verdict is excluded from aggregation
// any more. It stays only for cmd/hobbitbench, which still reports it.
func (r *BlockResult) LowConfidence() bool { return false }

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
// the 6-probe / 95% MDA rule), or, when that hop never answers,
// Unresponsive last-hop.
const singleLastHopProbes = 6

// Order produces the probing order of Section 3.3: the block's active
// addresses grouped by /26, visited round-robin with the /26 order
// reshuffled after each round. With SequentialOrder set it degrades to
// ascending addresses. It is the order Resume probes in, run to the end.
//
//hobbit:hotpath
func (m *Measurer) Order(b iputil.Block24, by26 [4][]iputil.Addr) []iputil.Addr {
	var out []iputil.Addr
	o := m.startOrder(b, by26)
	for dst, ok := o.next(); ok; dst, ok = o.next() {
		out = append(out, dst)
	}
	return out
}

// order hands out Order's destinations one at a time, so a block that
// settles early draws only the rounds it probes. Round r visits the
// non-empty /26s in the round's permutation, drawn into perm, and each
// hands out its r-th active if it has one. The /26s are read in place.
// The zero order hands out nothing.
type order struct {
	quarters  [4][]iputil.Addr // the n non-empty /26s
	n, rounds int              // rounds: the longest /26's length
	perm      [4]int
	round     int
	pos       int // the next entry of perm
	seed      uint64
	block     iputil.Block24
}

// startOrder starts Order's sequence for block b.
func (m *Measurer) startOrder(b iputil.Block24, by26 [4][]iputil.Addr) order {
	if m.SequentialOrder {
		// One "/26" holding every active in ascending order.
		all := slices.Concat(by26[:]...)
		iputil.SortAddrs(all)
		by26 = [4][]iputil.Addr{all}
	}
	o := order{seed: m.Seed, block: b}
	for _, q := range by26 {
		if len(q) > 0 {
			o.quarters[o.n] = q
			o.n++
			o.rounds = max(o.rounds, len(q))
		}
	}
	return o
}

// next returns the next destination, or false once every active has been
// handed out.
func (o *order) next() (iputil.Addr, bool) {
	for o.round < o.rounds {
		if o.pos == 0 {
			// Shuffle the /26 visiting order each round.
			deterministicPerm(o.perm[:o.n], o.seed, uint64(o.block), uint64(o.round))
		}
		q, r := o.quarters[o.perm[o.pos]], o.round
		if o.pos++; o.pos == o.n {
			o.round, o.pos = o.round+1, 0
		}
		if r < len(q) {
			return q[r], true
		}
	}
	return 0, false
}

// deterministicPerm fills perm with a seeded Fisher-Yates permutation of
// [0, len(perm)).
func deterministicPerm(perm []int, seed, k1, k2 uint64) {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i+1, seed, k1, k2, uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// MeasureBlock classifies one /24 given its census-active addresses
// grouped by /26. It stops as soon as the verdict is settled: six
// responders (or MinActive, if more) behind one last hop, answering or
// anonymous (the 95% MDA rule of Section 3.5), a non-hierarchical
// grouping, or the Terminator's bound. It is Resume from an empty
// result.
func (m *Measurer) MeasureBlock(b iputil.Block24, by26 [4][]iputil.Addr) BlockResult {
	return m.Resume(&BlockResult{Block: b}, by26)
}

// Resume continues the measurement of prev.Block from where prev ended:
// it probes Order(prev.Block, by26)[prev.Probed:] with prev's groups and
// counts as its starting state, and classifies the block afresh. It
// probes through one probe.Batch view of Net, so an instrumented Net
// counts the block's packets exactly but publishes them once, when the
// block is done. prev is not modified. It draws the order lazily and
// checks each stop on the groups as they stand, so it allocates only
// FindLastHops' last-hop lists and the result's own slices.
//
// Precondition: prev was measured from the same actives by a Measurer
// whose Net gives the same answers and whose Seed, Opts, Term,
// MinActive and SequentialOrder equal m's. Exhaustive may be set on m
// and not on prev's Measurer: that is the Section 6.5 reprobe resuming
// the campaign's measurement. Every exhaustive stop implies a campaign
// stop, so the campaign ends at or before the point where the
// exhaustive loop would, and the resumed result equals an exhaustive
// MeasureBlock while sending only the packets past prev.Probed.
//
//hobbit:hotpath
func (m *Measurer) Resume(prev *BlockResult, by26 [4][]iputil.Addr) BlockResult {
	net, flush := probe.Batch(m.Net)
	defer flush()
	// The counts carry over; the verdict and the slices are rebuilt.
	res := *prev
	res.VeryLikelyHetero, res.SubBlocks = false, nil
	// Each group gets its own copy: groups() sorts members in place, and
	// appending to prev's slices could write through to prev.
	gm := make(groupMap, len(prev.Groups))
	for i, g := range prev.Groups {
		gm[i] = Group{LastHop: g.LastHop, Addrs: slices.Clone(g.Addrs)}
	}
	term := m.term()
	// settled is how many responders behind one last hop, answering or
	// anonymous, settle the block: six, or MinActive if more, so that
	// classify does not call a settled block "too few active".
	settled := max(singleLastHopProbes, m.minActive())

	o := m.startOrder(res.Block, by26)
	for range res.Probed {
		o.next()
	}
	// Re-evaluate the check the loop made after prev's last responder:
	// the anonymous stop while no last hop has answered, the answering
	// stops otherwise.
	if len(gm) == 0 && res.UnrespLastHop >= settled || len(gm) > 0 && m.answeredStop(gm, res.Responded, settled, term) {
		o = order{}
	}
	for dst, ok := o.next(); ok; dst, ok = o.next() {
		lr := probe.FindLastHops(net, dst, m.Opts)
		res.Probed++
		if lr.Degraded {
			res.Degraded++
		}
		if !lr.Responded {
			continue
		}
		res.Responded++
		if len(lr.LastHops) == 0 {
			res.UnrespLastHop++
			// The single-last-hop rule, applied to the anonymous
			// hop: it settles the block even for the exhaustive
			// reprobe, unless a last hop has already answered.
			if len(gm) == 0 && res.UnrespLastHop >= settled {
				break
			}
			continue
		}
		for _, lh := range lr.LastHops {
			gm.add(lh, dst)
		}
		if m.answeredStop(gm, res.Responded, settled, term) {
			break
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

// answeredStop reports whether a responder whose last hop answered
// settles the block. The anonymous stop is checked apart, after
// anonymous responders only: these stops count anonymous responders
// too, and checking them after an anonymous responder would end some
// blocks earlier. It reads the groups unsorted, as they accumulate.
//
//hobbit:hotpath
func (m *Measurer) answeredStop(gm groupMap, responded, settled int, term Terminator) bool {
	switch {
	case m.Exhaustive:
		// Reprobing strategy: enumerate last hops to the MDA bound
		// rather than the hierarchy bound, and never stop on a
		// non-hierarchical finding.
		return term.Enough(len(gm), responded) && responded >= settled
	case len(gm) == 1:
		return responded >= settled
	default:
		return NonHierarchical(gm) || term.Enough(len(gm), responded)
	}
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
