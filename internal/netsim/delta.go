package netsim

import (
	"sort"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Fault-epoch separation: the continuous-monitoring mode advances fault
// plans epoch by epoch while holding everything else about the world —
// host availability, scheduled splits, pop outages, subscriber
// re-addressing — fixed. That split is what makes selective reprobing
// sound: SetEpoch re-draws per-address persistence for the whole
// universe (epochKey), so advancing it invalidates every measurement,
// while SetFaultEpoch moves only the epoch the FaultView is evaluated
// at, so measurements can change only inside the scopes the plan
// touches. EpochDelta is the query that names those scopes as /24
// blocks; everything outside the returned set is bit-identical across
// the two epochs, which the differential harness
// (harness.CheckIncremental) enforces.

// SetFaultEpoch pins the epoch the active fault plan is evaluated at,
// independent of the world's measurement epoch. Like SetEpoch it must
// not be called concurrently with probing. A negative epoch clears the
// pin, returning fault evaluation to the measurement epoch.
func (w *World) SetFaultEpoch(e int) {
	if e < 0 {
		w.faultEpochSet = false
		w.faultEpoch = 0
	} else {
		w.faultEpochSet = true
		w.faultEpoch = e
	}
}

// FaultEpoch returns the epoch fault queries are evaluated at: the
// pinned fault epoch when SetFaultEpoch set one, the measurement epoch
// otherwise.
func (w *World) FaultEpoch() int { return w.faultsEpoch() }

// RouteDelta names the fault-plan scopes whose measurement-visible
// state differs between two epochs. Scopes are conservative supersets:
// a listed block may measure identically, but no unlisted block can
// measure differently (unless All is set).
type RouteDelta struct {
	// Blocks are /24s whose last-hop partition can remap (route flaps).
	Blocks []iputil.Block24
	// Prefixes are route entries whose blackhole state toggled.
	Prefixes []iputil.Prefix
	// Pops are points of presence whose rate-storm state toggled.
	Pops []int32
	// All marks a vantage-global change (congestion onset or recovery):
	// every block's measurement may differ.
	All bool
}

// DeltaView is the optional FaultView extension the monitoring mode
// keys selective reprobing off: implementations report which scopes can
// answer differently between two epochs. faultplan.Schedule implements
// it exactly (its events are the only epoch-dependent state).
type DeltaView interface {
	FaultView
	EpochDelta(e1, e2 int) RouteDelta
}

// EpochDelta returns the sorted /24 blocks whose measurements may
// differ between fault epochs e1 and e2, expanding the active plan's
// changed scopes (flapped blocks, toggled blackhole prefixes, toggled
// storm pops) against the universe. all is true when every block may
// differ: a vantage-global change, or a fault view that does not
// implement DeltaView (no delta information — reprobe everything).
// Blocks outside the returned set answer every probe identically at
// both epochs, because the reply path's only epoch-dependent inputs
// are the fault queries and each is scoped to a destination block, a
// route prefix, a destination pop, or the vantage (faults.go).
func (w *World) EpochDelta(e1, e2 int) (blocks []iputil.Block24, all bool) {
	if e1 == e2 || w.faults == nil {
		return nil, false
	}
	dv, ok := w.faults.(DeltaView)
	if !ok {
		return nil, true
	}
	d := dv.EpochDelta(e1, e2)
	if d.All {
		return nil, true
	}
	seen := make(map[iputil.Block24]bool)
	add := func(b iputil.Block24) {
		if !seen[b] && w.rec(b) != nil {
			seen[b] = true
			blocks = append(blocks, b)
		}
	}
	for _, b := range d.Blocks {
		add(b)
	}
	for _, p := range d.Prefixes {
		lo, hi := p.First().Block24(), p.Last().Block24()
		// Blocks are sorted; binary-search the covered range instead of
		// scanning the universe per prefix.
		i := sort.Search(len(w.blockList), func(i int) bool { return w.blockList[i] >= lo })
		for ; i < len(w.blockList) && w.blockList[i] <= hi; i++ {
			add(w.blockList[i])
		}
	}
	if len(d.Pops) > 0 {
		idx := w.popBlocks()
		for _, id := range d.Pops {
			for _, b := range idx[id] {
				add(b)
			}
		}
	}
	iputil.SortBlocks(blocks)
	return blocks, false
}

// popBlocks returns the pop -> member-/24 index for the current
// measurement epoch, built lazily (splits move blocks between pops, so
// the index is epoch-keyed like popActiveCache).
func (w *World) popBlocks() map[int32][]iputil.Block24 {
	w.epochMu.Lock()
	if w.popBlockCache != nil && w.popBlockEpoch == w.epoch {
		idx := w.popBlockCache
		w.epochMu.Unlock()
		return idx
	}
	w.epochMu.Unlock()

	idx := make(map[int32][]iputil.Block24)
	for i, b := range w.blockList {
		rec := &w.recs[i]
		prev := int32(-1)
		for _, e := range w.activeEntries(rec) {
			if e.pop == prev {
				continue
			}
			prev = e.pop
			members := idx[e.pop]
			if n := len(members); n == 0 || members[n-1] != b {
				idx[e.pop] = append(members, b)
			}
		}
	}
	w.epochMu.Lock()
	w.popBlockCache = idx
	w.popBlockEpoch = w.epoch
	w.epochMu.Unlock()
	return idx
}
