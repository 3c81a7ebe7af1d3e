package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/metadata"
	"github.com/hobbitscan/hobbit/internal/rttmodel"
)

// World is a generated synthetic Internet. It is immutable after Build and
// safe for concurrent probing.
type World struct {
	cfg  Config
	seed uint64

	routers []router
	regions []*region
	ases    []*asRec
	pops    []*pop

	// Per-block state is flat: recs[i] describes blockList[i], with the
	// two kept sorted in lockstep, and every route entry of every block
	// lives in one shared arena the records index into. A /16-bucketed
	// offset table narrows lookups to one bucket's worth of binary
	// search. The layout holds a million-block universe in three large
	// allocations instead of millions of small heap objects (map buckets,
	// per-block records, per-block entry slices), which is what lets the
	// census scale to the paper's full-address-space sweeps.
	recs       []blockRec
	blockList  []iputil.Block24 // sorted universe
	entryArena []entry
	// idx16[h] is the index in blockList of the first block whose /16
	// equals h; idx16 has 1<<16+1 elements so idx16[h+1] closes bucket h.
	idx16 []int32

	// srcHops holds the access-router pair of each vantage point.
	srcHops [][2]routerID

	geo   *metadata.GeoDB
	whois *metadata.Whois

	// heteroBlocks lists the planted heterogeneous /24s (ground truth).
	heteroBlocks []iputil.Block24

	// epoch is the current measurement epoch (see epoch.go); the caches
	// hold per-(pop, epoch) responsive-address lists and their inverse
	// subscriber permutations for the subscriber model.
	epoch          int
	epochMu        sync.Mutex
	popActiveCache map[popEpochKey][]iputil.Addr
	popPermCache   map[popEpochKey][]int

	// faultEpoch, when pinned via SetFaultEpoch, is the epoch the fault
	// plan is evaluated at — decoupled from the measurement epoch so the
	// monitoring mode can advance route churn without re-drawing host
	// availability (see delta.go). popBlockCache is the lazy pop ->
	// member-/24 index EpochDelta expands storm scopes with.
	faultEpoch    int
	faultEpochSet bool
	popBlockCache map[int32][]iputil.Block24
	popBlockEpoch int

	// faults is the active fault plan (see faults.go); nil for a clean
	// world. Set via SetFaults, never concurrently with probing.
	faults FaultView
}

type routerID int32

type router struct {
	addr       iputil.Addr
	responsive bool
	region     string
}

type region struct {
	name    string
	coreIn  routerID
	coreMid []routerID
	coreOut routerID
	// nameHash is hashString(name), precomputed so the probe path never
	// hashes strings (see precompute in reply.go).
	nameHash uint64
}

type asRec struct {
	asn     int
	org     string
	country string
	otype   metadata.OrgType
	region  *region
	ingress routerID
	chain   []routerID
}

// pop is one point of presence: the unit of true topological homogeneity.
// All addresses routed to a pop share its set of last-hop routers.
type pop struct {
	id       int32
	as       *asRec
	lastHops []routerID
	destMid  []routerID
	destMid2 []routerID
	flowDiv  bool // per-flow hashing reaches the last-hop choice
	srcSens  bool // per-destination hashing includes the source address
	kind     BlockKind
	big      int // index into cfg.BigBlocks, or -1
	starved  bool
	unresp   bool // last-hop routers never answer
	rdnsKind metadata.NameKind
	rdnsReg  string
	rdnsVar  int
	size     int // /24 count (0 for hetero sub-pops)
	// rtt is the pop's delay model, precomputed at build time so probes
	// never re-derive it (see precompute in reply.go).
	rtt rttmodel.Profile
}

// entry maps a sub-prefix of a /24 to its pop: one entry for homogeneous
// blocks, several for heterogeneous blocks.
type entry struct {
	prefix iputil.Prefix
	pop    int32
}

// blockRec flags (see the accessor methods below).
const (
	blockLowActivity = 1 << iota
	blockStarved
	blockHetero
	blockTWCVariant2 // block hosts a second Time Warner naming scheme
)

// blockRec is the per-/24 record: 48 bytes of plain values, no pointers.
// Route entries live in World.entryArena; entryIdx/entryN (and, for
// scheduled splits, futureIdx/futureN) address the block's slice of it.
type blockRec struct {
	entryIdx  int32
	futureIdx int32
	asn       int32
	entryN    uint8
	futureN   uint8
	// splitEpoch > 0 schedules an address-exhaustion-driven split: from
	// that epoch on, the future entries (sub-allocations) replace entries.
	splitEpoch uint8
	flags      uint8
	// rate26 holds the per-/26 activity rates, precomputed at build time
	// (see buildRate26 in reply.go).
	rate26 [4]float64
}

func (rec *blockRec) lowActivity() bool { return rec.flags&blockLowActivity != 0 }
func (rec *blockRec) starved() bool     { return rec.flags&blockStarved != 0 }
func (rec *blockRec) hetero() bool      { return rec.flags&blockHetero != 0 }
func (rec *blockRec) twcVariant2() bool { return rec.flags&blockTWCVariant2 != 0 }

// rec returns the block's record, or nil for blocks outside the universe.
// The /16 bucket bounds the binary search to at most 256 candidates, so
// the probe hot path pays a handful of cache-resident compares instead of
// a map lookup, and allocates nothing.
//
//hobbit:hotpath
func (w *World) rec(b iputil.Block24) *blockRec {
	h := b >> 8
	lo, hi := w.idx16[h], w.idx16[h+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case w.blockList[mid] < b:
			lo = mid + 1
		case w.blockList[mid] > b:
			hi = mid
		default:
			return &w.recs[mid]
		}
	}
	return nil
}

// entriesOf returns the block's original route entries (in force before
// any scheduled split).
func (w *World) entriesOf(rec *blockRec) []entry {
	return w.entryArena[rec.entryIdx : rec.entryIdx+int32(rec.entryN)]
}

// futureOf returns the sub-allocation entries a scheduled split installs.
func (w *World) futureOf(rec *blockRec) []entry {
	return w.entryArena[rec.futureIdx : rec.futureIdx+int32(rec.futureN)]
}

// New builds a world from the configuration. Building is deterministic in
// Config (including Seed).
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:   cfg,
		seed:  cfg.Seed,
		geo:   metadata.NewGeoDB(),
		whois: metadata.NewWhois(),
	}
	genRand := rand.New(rand.NewSource(int64(cfg.Seed)))
	w.buildTopologyCore(genRand)
	if err := w.buildPopulations(genRand); err != nil {
		return nil, err
	}
	sort.Sort(blockSorter{w})
	w.buildIdx16()
	w.populateMetadata()
	w.precompute()
	return w, nil
}

// MustNew builds a world and panics on configuration errors; intended for
// tests and examples.
func MustNew(cfg Config) *World {
	w, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Config returns the configuration the world was built from.
func (w *World) Config() Config { return w.cfg }

// Blocks returns the sorted universe of /24 blocks.
func (w *World) Blocks() []iputil.Block24 { return w.blockList }

// NumRouters returns the number of router interfaces in the topology.
func (w *World) NumRouters() int { return len(w.routers) }

// Geo returns the GeoLite-style metadata database for the world.
func (w *World) Geo() *metadata.GeoDB { return w.geo }

// Whois returns the WHOIS registry for the world.
func (w *World) Whois() *metadata.Whois { return w.whois }

func (w *World) popOf(a iputil.Addr) (*pop, bool) {
	rec := w.rec(a.Block24())
	if rec == nil {
		return nil, false
	}
	return w.popOfRec(rec, a)
}

// popOfRec is popOf with the block record already resolved; the reply
// hot paths look a record up once per call and thread it through these
// …Rec variants instead of re-searching the block index per predicate.
//
//hobbit:hotpath
func (w *World) popOfRec(rec *blockRec, a iputil.Addr) (*pop, bool) {
	entries := w.activeEntries(rec)
	for i := range entries {
		if entries[i].prefix.Contains(a) {
			return w.pops[entries[i].pop], true
		}
	}
	return nil, false
}

func (w *World) routerAddr(id routerID) iputil.Addr { return w.routers[id].addr }

// blockSorter co-sorts blockList and recs by block so the two stay
// parallel; entry-arena indices are positional and unaffected by the sort.
type blockSorter struct{ w *World }

func (s blockSorter) Len() int           { return len(s.w.blockList) }
func (s blockSorter) Less(i, j int) bool { return s.w.blockList[i] < s.w.blockList[j] }
func (s blockSorter) Swap(i, j int) {
	s.w.blockList[i], s.w.blockList[j] = s.w.blockList[j], s.w.blockList[i]
	s.w.recs[i], s.w.recs[j] = s.w.recs[j], s.w.recs[i]
}

// buildIdx16 derives the /16 bucket offsets from the sorted blockList.
func (w *World) buildIdx16() {
	w.idx16 = make([]int32, (1<<16)+1)
	pos := 0
	for h := 0; h < 1<<16; h++ {
		w.idx16[h] = int32(pos)
		for pos < len(w.blockList) && w.blockList[pos]>>8 == iputil.Block24(h) {
			pos++
		}
	}
	w.idx16[1<<16] = int32(pos)
}

// checkInvariants verifies that every block's entries — and any scheduled
// split's — tile the /24 in address order: each entry starts where the
// previous one ended and together they cover all 256 addresses. Every
// address of a universe block therefore resolves to a pop, which is what
// lets the census answer a block from its record alone (ScanBlock).
func (w *World) checkInvariants() error {
	check := func(b iputil.Block24, entries []entry) error {
		next := 0
		for _, e := range entries {
			if e.prefix.Len < 24 || next >= 256 || e.prefix.Base != b.Addr(next) {
				return fmt.Errorf("netsim: block %v entry %v does not tile at offset %d", b, e.prefix, next)
			}
			next += e.prefix.Size()
		}
		if next != 256 {
			return fmt.Errorf("netsim: block %v entries cover %d addresses", b, next)
		}
		return nil
	}
	for i, b := range w.blockList {
		rec := &w.recs[i]
		if err := check(b, w.entriesOf(rec)); err != nil {
			return err
		}
		if rec.splitEpoch > 0 {
			if err := check(b, w.futureOf(rec)); err != nil {
				return err
			}
		}
	}
	return nil
}
