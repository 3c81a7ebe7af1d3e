package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/metadata"
)

// twcRegions are the regional labels of Time Warner's documented naming
// schemes; pops of the TWC population cycle through them.
var twcRegions = []string{
	"socal", "nyc", "nyroc", "austin", "columbus",
	"kc", "maine", "carolina", "hawaii", "texas",
}

// fillerCountries cycles countries over the synthetic filler ASes.
var fillerCountries = []string{
	"US", "US", "Japan", "Korea", "France", "Denmark",
	"Sweden", "Malaysia", "Georgia", "Singapore", "US", "Ireland",
}

// segment is a contiguous run of /24s awaiting address allocation. Hetero
// segments always have size 1 and materialize a split block.
type segment struct {
	pop    int32
	size   int
	hetero bool
	as     *asRec
	// idx is the segment's ordinal within its pop; segments of one pop
	// are placed in different allocation regions so aggregates span the
	// address space (Figure 7b).
	idx int
}

func (w *World) buildPopulations(genRand *rand.Rand) error {
	cfg := &w.cfg
	asByASN := make(map[int]*asRec)
	lookupAS := func(asn int, org, country string, otype metadata.OrgType) *asRec {
		if a, ok := asByASN[asn]; ok {
			return a
		}
		a := w.newAS(asn, org, country, otype, genRand)
		asByASN[asn] = a
		return a
	}

	nFiller := cfg.NumBlocks / 500
	if nFiller < 8 {
		nFiller = 8
	}
	fillers := make([]*asRec, nFiller)
	for i := range fillers {
		country := fillerCountries[i%len(fillerCountries)]
		fillers[i] = lookupAS(60000+i, fmt.Sprintf("NetCo-%d", i+1), country, metadata.OrgBroadbandISP)
	}

	var segs []segment
	budget := cfg.NumBlocks

	// Planted big aggregates.
	for i := range cfg.BigBlocks {
		spec := &cfg.BigBlocks[i]
		size := int(float64(spec.Size)*cfg.BigBlockScale + 0.5)
		if size < 1 {
			size = 1
		}
		if size > budget {
			size = budget
		}
		if size == 0 {
			continue
		}
		budget -= size
		as := lookupAS(spec.ASN, spec.Org, spec.Country, spec.Type)
		if spec.SplitInto > 0 {
			// Expand into many aggregates (the TWC population).
			// Cap chunk size so scaled-down worlds still split into
			// several pops.
			limit := spec.SplitInto
			if cap := size / 3; cap >= 1 && cap < limit {
				limit = cap
			}
			variant := 0
			for size > 0 {
				// Power-law pop sizes: a few large blocks dominate
				// the population, so random samples keep drawing
				// the same host types (the Figure 12 effect).
				psize := limit >> uint(genRand.Intn(6))
				if psize < 1 {
					psize = 1
				}
				if psize > size {
					psize = size
				}
				size -= psize
				p := w.newPop(as, spec.K, false, genRand)
				p.big = i
				p.kind = spec.Kind
				p.rdnsKind = spec.RDNS
				p.rdnsReg = twcRegions[variant%len(twcRegions)]
				p.rdnsVar = variant
				p.size = psize
				variant++
				segs = append(segs, w.splitSegments(p, psize, genRand)...)
			}
			continue
		}
		p := w.newPop(as, spec.K, false, genRand)
		p.big = i
		p.kind = spec.Kind
		p.starved = spec.Starved
		if p.starved && len(p.lastHops) >= 3 {
			// Starved aggregates are the ones the Section 6 clustering
			// must reassemble: their initial measurements stop early
			// with partial last-hop sets, and the flow-divergent
			// hashing lets the exhaustive reprobe complete them.
			p.flowDiv = true
		}
		p.rdnsKind = spec.RDNS
		p.rdnsReg = spec.Region
		p.rdnsVar = i
		p.size = size
		segs = append(segs, w.splitSegments(p, size, genRand)...)
	}

	// Heterogeneous /24s (each consumes one universe slot).
	nHetero := int(cfg.PHeterogeneous*float64(cfg.NumBlocks) + 0.5)
	if nHetero > budget {
		nHetero = budget
	}
	budget -= nHetero
	heteroAS := make([]*asRec, 0, len(cfg.HeteroAS))
	heteroW := make([]float64, 0, len(cfg.HeteroAS))
	for _, spec := range cfg.HeteroAS {
		heteroAS = append(heteroAS, lookupAS(spec.ASN, spec.Org, spec.Country, spec.Type))
		heteroW = append(heteroW, spec.Weight)
	}
	for i := 0; i < nHetero; i++ {
		var as *asRec
		if len(heteroAS) > 0 && genRand.Float64() < 0.70 {
			as = heteroAS[weightedIdx(genRand, heteroW)]
		} else {
			// The long tail of splitting ASes outside the top 10.
			as = fillers[genRand.Intn(len(fillers))]
		}
		segs = append(segs, segment{pop: -1, size: 1, hetero: true, as: as})
	}

	// Regular aggregates.
	prevPop := make(map[*asRec]*pop)
	for budget > 0 {
		size := cfg.AggSizeValues[weightedIdx(genRand, cfg.AggSizeWeights)]
		if size > budget {
			size = budget
		}
		budget -= size
		as := fillers[genRand.Intn(len(fillers))]
		k := 1
		if genRand.Float64() >= cfg.PSingleLastHop {
			k = cfg.KValues[weightedIdx(genRand, cfg.KWeights)]
		}
		unresp := genRand.Float64() < cfg.PUnresponsiveLastHop
		p := w.newPop(as, k, unresp, genRand)
		// Edge routers serve several prefixes in practice: some
		// aggregates of one AS share most of a neighbor's last-hop
		// routers without being co-located, producing the
		// similar-but-different sets MCL can wrongly merge (the
		// population Figure 9's screening rule separates).
		if prev := prevPop[as]; prev != nil && k >= 2 && !unresp && !prev.unresp &&
			genRand.Float64() < cfg.PSharedLastHop {
			shared := 1 + genRand.Intn(k-1+1)
			if shared >= k {
				shared = k - 1 // keep at least one own router
			}
			if shared > len(prev.lastHops) {
				shared = len(prev.lastHops)
			}
			for i := 0; i < shared; i++ {
				p.lastHops[i] = prev.lastHops[i%len(prev.lastHops)]
			}
		}
		prevPop[as] = p
		p.kind = KindResidential
		p.rdnsKind = metadata.NameGenericISP
		p.rdnsReg = as.region.name
		p.rdnsVar = int(p.id)
		p.size = size
		p.starved = size > 1 && genRand.Float64() < cfg.PStarved
		if p.starved && len(p.lastHops) >= 3 {
			p.flowDiv = true
		}
		segs = append(segs, w.splitSegments(p, size, genRand)...)
	}

	// Fill in the AS of every non-hetero segment from its pop.
	for i := range segs {
		if segs[i].as == nil {
			segs[i].as = w.pops[segs[i].pop].as
		}
	}

	// Group segments into per-AS allocation regions. A registry hands an
	// AS a few contiguous allocations scattered through the address
	// space; the AS lays its aggregates out inside them. This yields
	// both the wide min/max separation of Figure 7b (an aggregate's
	// segments land in different regions) and a realistic BGP mix.
	type allocRegion struct {
		as   *asRec
		segs []segment
	}
	byAS := make(map[*asRec][]segment)
	var asOrder []*asRec
	genRand.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	for _, s := range segs {
		if _, ok := byAS[s.as]; !ok {
			asOrder = append(asOrder, s.as)
		}
		byAS[s.as] = append(byAS[s.as], s)
	}
	var regions []allocRegion
	for _, as := range asOrder {
		asSegs := byAS[as]
		nRegions := 2 + genRand.Intn(2)
		if nRegions > len(asSegs) {
			nRegions = len(asSegs)
		}
		regs := make([]allocRegion, nRegions)
		for i := range regs {
			regs[i].as = as
		}
		for _, s := range asSegs {
			// A pop's segments cycle through the AS's regions, so a
			// multi-segment aggregate is guaranteed to span them.
			regs[s.idx%nRegions].segs = append(regs[s.idx%nRegions].segs, s)
		}
		regions = append(regions, regs...)
	}
	genRand.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })

	alloc := newAllocator(genRand)
	for _, reg := range regions {
		for i, seg := range reg.segs {
			gapBefore := genRand.Intn(8)
			if i == 0 {
				// Each allocation region starts in a fresh arena
				// scattered somewhere in the unicast space.
				alloc.nextArena()
				gapBefore = genRand.Intn(64)
			}
			base, err := alloc.take(seg.size, gapBefore)
			if err != nil {
				return err
			}
			if seg.hetero {
				w.materializeHetero(base, seg.as, genRand)
				continue
			}
			p := w.pops[seg.pop]
			for j := 0; j < seg.size; j++ {
				b := base + iputil.Block24(j)
				rec := blockRec{asn: int32(p.as.asn)}
				if p.starved {
					rec.flags |= blockStarved
				}
				var future []entry
				if !p.starved && p.big < 0 {
					if genRand.Float64() < cfg.PLowActivity {
						rec.flags |= blockLowActivity
					}
					// Address exhaustion keeps splitting blocks: a
					// few homogeneous /24s get sub-allocated to
					// distinct customers at a later epoch (the
					// longitudinal future work). Blocks worth
					// splitting are in active use.
					if genRand.Float64() < cfg.PEpochSplit {
						rec.splitEpoch = uint8(1 + genRand.Intn(6))
						future = w.splitEntries(b, p.as, 2016+int(rec.splitEpoch), genRand)
						rec.flags &^= blockLowActivity
					}
				}
				if p.rdnsKind == metadata.NameTimeWarner && genRand.Float64() < 0.2 {
					rec.flags |= blockTWCVariant2
				}
				w.addBlock(b, rec,
					[]entry{{prefix: iputil.PrefixOf(b.Base(), 24), pop: p.id}}, future)
			}
		}
	}
	return w.checkInvariants()
}

func weightedIdx(genRand *rand.Rand, weights []float64) int {
	var total float64
	for _, v := range weights {
		total += v
	}
	target := genRand.Float64() * total
	for i, v := range weights {
		target -= v
		if target < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// splitSegments divides a pop's /24 span into up to SegmentsPerAggregate
// contiguous runs so that large aggregates appear as separated contiguous
// sub-blocks (Section 5.3).
func (w *World) splitSegments(p *pop, size int, genRand *rand.Rand) []segment {
	if size <= 1 {
		return []segment{{pop: p.id, size: size}}
	}
	maxSegs := w.cfg.SegmentsPerAggregate
	if maxSegs < 2 {
		maxSegs = 2
	}
	// Multi-/24 aggregates always split into at least two runs: real
	// allocations of one customer accrete over time in different parts
	// of the registry's space (the Figure 7b separation).
	n := 2 + genRand.Intn(maxSegs-1)
	if n > size {
		n = size
	}
	// Random composition of size into n positive parts.
	cuts := make([]int, 0, n-1)
	for len(cuts) < n-1 {
		c := 1 + genRand.Intn(size-1)
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	segs := make([]segment, 0, n)
	prev := 0
	for _, c := range cuts {
		if c > prev {
			segs = append(segs, segment{pop: p.id, size: c - prev, idx: len(segs)})
			prev = c
		}
	}
	if size > prev {
		segs = append(segs, segment{pop: p.id, size: size - prev, idx: len(segs)})
	}
	return segs
}

// addBlock registers one /24: its entries (and any future sub-allocation
// entries) are appended to the shared entry arena, the record's index
// fields are filled in, and the record joins the flat recs/blockList
// pair (co-sorted by New once the build finishes).
func (w *World) addBlock(b iputil.Block24, rec blockRec, entries, future []entry) {
	rec.entryIdx = int32(len(w.entryArena))
	rec.entryN = uint8(len(entries))
	w.entryArena = append(w.entryArena, entries...)
	if len(future) > 0 {
		rec.futureIdx = int32(len(w.entryArena))
		rec.futureN = uint8(len(future))
		w.entryArena = append(w.entryArena, future...)
	}
	w.recs = append(w.recs, rec)
	w.blockList = append(w.blockList, b)
}

// splitEntries creates sub-block route entries at base: one mini-pop per
// sub-prefix of a Table-2 composition, plus the WHOIS customer allocations
// that Table 4 verifies against. regYear is the first possible
// registration year (later epochs register later).
func (w *World) splitEntries(base iputil.Block24, as *asRec, regYear int, genRand *rand.Rand) []entry {
	cfg := &w.cfg
	comp := cfg.HeteroCompositions[weightedIdx(genRand, cfg.HeteroCompWeights)]
	lens := append([]int(nil), comp...)
	sort.Ints(lens) // ascending prefix length = descending size: always tiles
	mirror := genRand.Float64() < 0.5

	var entries []entry
	offset := 0
	for i, ln := range lens {
		size := 1 << (32 - uint(ln))
		start := offset
		if mirror {
			start = 256 - offset - size
		}
		offset += size
		prefix := iputil.PrefixOf(base.Addr(start), ln)
		sub := w.newPop(as, 1, false, genRand)
		sub.kind = KindResidential
		sub.rdnsKind = metadata.NameGenericISP
		sub.rdnsReg = as.region.name
		sub.rdnsVar = int(sub.id)
		entries = append(entries, entry{prefix: prefix, pop: sub.id})

		year := regYear + genRand.Intn(2)
		w.whois.Register(metadata.Allocation{
			Prefix:   prefix,
			OrgName:  fmt.Sprintf("Customer-%d-%d-%d", as.asn, base, i),
			NetType:  "CUSTOMER",
			Address:  fmt.Sprintf("%s customer site %d", as.country, i+1),
			Province: as.region.name,
			ZipCode:  fmt.Sprintf("%05d", 10000+genRand.Intn(89999)),
			RegDate:  fmt.Sprintf("%d%02d%02d", year, 1+genRand.Intn(12), 1+genRand.Intn(28)),
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].prefix.Base < entries[j].prefix.Base
	})
	return entries
}

// materializeHetero creates one heterogeneous /24 at base.
func (w *World) materializeHetero(base iputil.Block24, as *asRec, genRand *rand.Rand) {
	rec := blockRec{asn: int32(as.asn), flags: blockHetero}
	w.addBlock(base, rec, w.splitEntries(base, as, 2015, genRand), nil)
	w.heteroBlocks = append(w.heteroBlocks, base)
}

// allocator hands out contiguous /24 runs from arenas scattered across the
// whole usable unicast space in a shuffled order, so the allocation
// regions of different ASes land far apart — the property behind the wide
// min/max separation within aggregates (Figure 7b).
type allocator struct {
	cur    uint32 // next /24 index (addr >> 8)
	arenas []allocSpan
	arena  int
}

type allocSpan struct{ lo, hi uint32 } // /24 index range, inclusive

// arenaBlocks is the arena size in /24s (a /11 worth of space).
const arenaBlocks = 8192

func newAllocator(genRand *rand.Rand) *allocator {
	a := &allocator{}
	// Usable /8s, skipping reserved and special-purpose space as well as
	// 100/8 (router interfaces live in 100.64/10).
	for o := 1; o <= 223; o++ {
		switch o {
		case 10, 100, 127, 169, 172, 192, 198, 203:
			continue
		}
		lo := uint32(o) << 16
		for off := uint32(0); off < 0x10000; off += arenaBlocks {
			a.arenas = append(a.arenas, allocSpan{lo: lo + off, hi: lo + off + arenaBlocks - 1})
		}
	}
	genRand.Shuffle(len(a.arenas), func(i, j int) { a.arenas[i], a.arenas[j] = a.arenas[j], a.arenas[i] })
	a.cur = a.arenas[0].lo
	return a
}

// leave records the unused remainder of the current arena before moving
// on, so a later wrap over the list hands the remainder out instead of
// treating the arena as spent. Before remainders existed, every region's
// arena jump burned the arena's unused tail, and a million-block world
// exhausted the address space with most of it never allocated.
func (a *allocator) leave() {
	sp := &a.arenas[a.arena]
	if a.cur > sp.lo {
		sp.lo = a.cur // may exceed hi: the arena is then empty
	}
}

// next moves to the next arena, wrapping past the end of the shuffled
// list back to the recorded remainders.
func (a *allocator) next() {
	a.leave()
	a.arena++
	if a.arena >= len(a.arenas) {
		a.arena = 0
	}
	a.cur = a.arenas[a.arena].lo
}

// nextArena jumps to the next shuffled arena; allocation regions start
// here so they scatter over the whole space. Worlds small enough that
// fresh arenas never run out — every world that built before wrapping
// existed — allocate identically, because wrapping only changes where
// the allocator lands after the list is spent.
func (a *allocator) nextArena() { a.next() }

var errExhausted = errors.New("netsim: /24 address space exhausted")

// take skips gapBefore /24s and then returns the base of a run of size
// contiguous /24s, spilling into the next arena when the current one is
// full. A full cycle over the list without a fit means no remainder can
// hold the run: the space is genuinely exhausted.
func (a *allocator) take(size, gapBefore int) (iputil.Block24, error) {
	a.cur += uint32(gapBefore)
	for tries := 0; tries <= len(a.arenas); tries++ {
		sp := a.arenas[a.arena]
		if a.cur < sp.lo {
			a.cur = sp.lo
		}
		if a.cur >= sp.lo && a.cur+uint32(size)-1 <= sp.hi {
			base := iputil.Block24(a.cur)
			a.cur += uint32(size)
			return base, nil
		}
		a.next()
	}
	return 0, errExhausted
}
