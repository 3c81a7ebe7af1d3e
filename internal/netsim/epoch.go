package netsim

import (
	"sort"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// Epoch support: the paper's stated future work is a longitudinal analysis
// of /24 homogeneity — how availability churn and address-exhaustion-driven
// re-allocation change the block map over time. The world models time as
// discrete epochs: host availability re-draws each epoch, DHCP-style
// subscriber populations re-address within their aggregate, and a small
// fraction of homogeneous /24s get split into sub-allocations as epochs
// advance (the Table 4 phenomenon, which the paper dates to 2015-16).

// Epoch state is separate from the immutable world so concurrent probing
// within one epoch stays race-free; advance epochs only between
// measurement campaigns.

const (
	saltEpochAct = 0xe1
	saltEpochSub = 0xe2
	saltOutage   = 0xe4
)

// popDown reports whether the pop's edge is suffering a whole-aggregate
// outage this epoch. Epoch 0 is outage-free so baselines are clean.
func (w *World) popDown(p *pop) bool {
	if w.epoch == 0 || w.cfg.POutage <= 0 {
		return false
	}
	return rng.Seed(w.seed).Key(uint64(p.id)).Key(uint64(w.epoch)).Key(saltOutage).Bool(w.cfg.POutage)
}

// TrueOutage reports whether the block's aggregate is dark at the current
// epoch (ground truth for outage-tracking experiments).
func (w *World) TrueOutage(b iputil.Block24) bool {
	rec := w.rec(b)
	if rec == nil {
		return false
	}
	for _, e := range w.activeEntries(rec) {
		if !w.popDown(w.pops[e.pop]) {
			return false
		}
	}
	return true
}

// SetEpoch switches the world's measurement epoch. Epoch 0 reproduces the
// original single-snapshot behaviour exactly. Must not be called
// concurrently with probing: every reply reads the epoch.
func (w *World) SetEpoch(e int) {
	if e < 0 {
		e = 0
	}
	w.epoch = e
}

// Epoch returns the current measurement epoch.
func (w *World) Epoch() int { return w.epoch }

// epochKey folds the epoch into an address-derived hash key; epoch 0 keeps
// the original key so all calibration holds.
func (w *World) epochKey(a iputil.Addr) uint64 {
	if w.epoch == 0 {
		return uint64(a)
	}
	return rng.Seed(w.seed).Key(uint64(a)).Key(uint64(w.epoch)).Key(saltEpochAct).Sum()
}

// splitAt reports whether the block's pending sub-allocation split has
// happened by the current epoch.
func (rec *blockRec) splitAt(epoch int) bool {
	return rec.splitEpoch > 0 && epoch >= int(rec.splitEpoch)
}

// activeEntries returns the route entries in force at the current epoch.
func (w *World) activeEntries(rec *blockRec) []entry {
	if rec.splitAt(w.epoch) {
		return w.futureOf(rec)
	}
	return w.entriesOf(rec)
}

// --- Subscriber model (DHCP re-addressing) ---

// Fingerprint identifies a subscriber (an application-layer identity such
// as an SSH host key or TLS certificate) independent of its current
// address.
type Fingerprint uint64

// HostFingerprint returns the identity of the subscriber using the
// address at the current epoch. ok is false when the address does not
// answer probes (no host to fingerprint). Within one epoch the mapping is
// stable; across epochs subscribers of an aggregate re-draw addresses
// within the same aggregate, the way DHCP pools reassign leases.
func (w *World) HostFingerprint(a iputil.Addr) (Fingerprint, bool) {
	if !w.RespondsNow(a) {
		return 0, false
	}
	p, ok := w.popOf(a)
	if !ok {
		return 0, false
	}
	actives := w.popActives(p)
	i := sort.Search(len(actives), func(i int) bool { return actives[i] >= a })
	if i >= len(actives) || actives[i] != a {
		return 0, false
	}
	// The permutation assigns subscriber k to the perm[k]-th active
	// address; invert it for lookups by address.
	inv := w.popPerm(p, len(actives))
	return Fingerprint(rng.Mix(w.seed, uint64(p.id), uint64(inv[i]), saltEpochSub)), true
}

// SubscriberAddr returns the address subscriber k of the pop serving
// `anchor` uses at the current epoch. ok is false when the pop has fewer
// responsive addresses than k+1 this epoch.
func (w *World) SubscriberAddr(anchor iputil.Addr, k int) (iputil.Addr, bool) {
	p, ok := w.popOf(anchor)
	if !ok {
		return 0, false
	}
	actives := w.popActives(p)
	if k < 0 || k >= len(actives) {
		return 0, false
	}
	perm := w.popPermFwd(p, len(actives))
	return actives[perm[k]], true
}

// popActives lists the pop's probe-time responsive addresses this epoch,
// cached per (pop, epoch).
func (w *World) popActives(p *pop) []iputil.Addr {
	key := popEpochKey{pop: p.id, epoch: w.epoch}
	w.epochMu.Lock()
	if w.popActiveCache == nil {
		w.popActiveCache = make(map[popEpochKey][]iputil.Addr)
	}
	if got, ok := w.popActiveCache[key]; ok {
		w.epochMu.Unlock()
		return got
	}
	w.epochMu.Unlock()

	var out []iputil.Addr
	for i := range w.blockList {
		rec := &w.recs[i]
		for _, e := range w.activeEntries(rec) {
			if e.pop != p.id {
				continue
			}
			lo, hi := e.prefix.First(), e.prefix.Last()
			for a := lo; ; a++ {
				if w.RespondsNow(a) {
					out = append(out, a)
				}
				if a == hi {
					break
				}
			}
		}
	}
	w.epochMu.Lock()
	w.popActiveCache[key] = out
	w.epochMu.Unlock()
	return out
}

type popEpochKey struct {
	pop   int32
	epoch int
}

// popPermFwd maps subscriber index -> active-address index this epoch.
func (w *World) popPermFwd(p *pop, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i+1, w.seed, uint64(p.id), uint64(w.epoch), uint64(i), saltEpochSub)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// popPerm returns the inverse permutation: active-address index ->
// subscriber index, cached per (pop, epoch) so HostFingerprint costs a
// lookup rather than a fresh O(n) shuffle per address.
func (w *World) popPerm(p *pop, n int) []int {
	key := popEpochKey{pop: p.id, epoch: w.epoch}
	w.epochMu.Lock()
	inv, ok := w.popPermCache[key]
	w.epochMu.Unlock()
	if ok {
		return inv
	}
	inv = make([]int, n)
	for k, idx := range w.popPermFwd(p, n) {
		inv[idx] = k
	}
	w.epochMu.Lock()
	if w.popPermCache == nil {
		w.popPermCache = make(map[popEpochKey][]int)
	}
	w.popPermCache[key] = inv
	w.epochMu.Unlock()
	return inv
}

// FutureSplitters returns the homogeneous /24s that will split into
// sub-allocations at a later epoch, with the epoch each splits at.
func (w *World) FutureSplitters() map[iputil.Block24]int {
	out := make(map[iputil.Block24]int)
	for i, b := range w.blockList {
		if e := w.recs[i].splitEpoch; e > 0 {
			out[b] = int(e)
		}
	}
	return out
}
