package netsim

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
)

// TrueHomogeneous reports the planted homogeneity of a /24 at the current
// epoch: true unless the block carries (or has grown) split route
// entries. known is false for blocks outside the universe.
func (w *World) TrueHomogeneous(b iputil.Block24) (homogeneous, known bool) {
	rec := w.rec(b)
	if rec == nil {
		return false, false
	}
	return !rec.hetero() && !rec.splitAt(w.epoch), true
}

// TrueEntries returns the planted route-entry prefixes covering the block
// at the current epoch (a single /24 for homogeneous blocks).
func (w *World) TrueEntries(b iputil.Block24) []iputil.Prefix {
	rec := w.rec(b)
	if rec == nil {
		return nil
	}
	entries := w.activeEntries(rec)
	out := make([]iputil.Prefix, len(entries))
	for i, e := range entries {
		out[i] = e.prefix
	}
	return out
}

// TrueAggregate returns the pop identifier of a homogeneous block: blocks
// with the same identifier are truly co-located behind the same last-hop
// routers. ok is false for heterogeneous or unknown blocks.
func (w *World) TrueAggregate(b iputil.Block24) (int32, bool) {
	rec := w.rec(b)
	if rec == nil || rec.hetero() || rec.splitAt(w.epoch) {
		return 0, false
	}
	return w.entriesOf(rec)[0].pop, true
}

// AggregateBlocks returns the sorted /24s of a pop at the current epoch.
func (w *World) AggregateBlocks(popID int32) []iputil.Block24 {
	if popID < 0 || int(popID) >= len(w.pops) {
		return nil
	}
	var out []iputil.Block24
	for _, b := range w.blockList {
		if id, ok := w.TrueAggregate(b); ok && id == popID {
			out = append(out, b)
		}
	}
	return out
}

// HeteroBlocks returns the planted heterogeneous /24s in sorted order.
func (w *World) HeteroBlocks() []iputil.Block24 {
	out := append([]iputil.Block24(nil), w.heteroBlocks...)
	iputil.SortBlocks(out)
	return out
}

// IsStarved reports whether the block belongs to an observation-starved
// aggregate.
func (w *World) IsStarved(b iputil.Block24) bool {
	rec := w.rec(b)
	return rec != nil && rec.starved()
}

// TrueLastHopCardinality returns the planted number of last-hop routers
// (K) serving the block's first route entry; 0 for unknown blocks.
func (w *World) TrueLastHopCardinality(b iputil.Block24) int {
	rec := w.rec(b)
	if rec == nil {
		return 0
	}
	return len(w.pops[w.entriesOf(rec)[0].pop].lastHops)
}

// FlowDivergentLast reports whether the block's pop hashes flow fields
// into its last-hop choice (per-flow paths toward one address may end at
// different last hops).
func (w *World) FlowDivergentLast(b iputil.Block24) bool {
	rec := w.rec(b)
	if rec == nil {
		return false
	}
	return w.pops[w.entriesOf(rec)[0].pop].flowDiv
}

// UnresponsiveLastHop reports whether the block's pop has last-hop routers
// that never answer probes.
func (w *World) UnresponsiveLastHop(b iputil.Block24) bool {
	rec := w.rec(b)
	if rec == nil {
		return false
	}
	return w.pops[w.entriesOf(rec)[0].pop].unresp
}

// BigBlockPops returns, for each named planted aggregate, the pop
// identifiers generated for it (one per spec, several for split specs).
func (w *World) BigBlockPops() map[string][]int32 {
	out := make(map[string][]int32)
	for _, p := range w.pops {
		if p.big >= 0 {
			name := w.cfg.BigBlocks[p.big].Name
			out[name] = append(out[name], p.id)
		}
	}
	return out
}

// PopOfAddr returns the pop identifier serving an address.
func (w *World) PopOfAddr(a iputil.Addr) (int32, bool) {
	p, ok := w.popOf(a)
	if !ok {
		return 0, false
	}
	return p.id, true
}
