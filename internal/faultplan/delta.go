package faultplan

import (
	"github.com/hobbitscan/hobbit/internal/netsim"
)

// EpochDelta implements netsim.DeltaView: it names the scopes whose
// fault answers can differ between epochs e1 and e2, which is exactly
// the event list filtered by window membership and burst draws.
//
//   - A congestion event active in one epoch but not the other changes
//     the vantage's loss floor, which perturbs every measurement: the
//     delta degrades to All.
//   - A route flap active in either epoch marks its block: FlapKey
//     mixes the epoch into the remap key, so an active flap re-draws
//     the block's last-hop partition every epoch even when the window
//     covers both.
//   - A blackhole marks its prefix only when the window boundary falls
//     between the epochs (active(e1) != active(e2)); inside the window
//     the withdrawal answers identically.
//   - A rate storm marks its pop when the firing draw differs — window
//     edges and, for bursty storms (Duty in (0, 1)), the per-epoch
//     seeded burst toggle.
//
// The result is a conservative superset of the blocks whose
// measurements actually change; netsim.World.EpochDelta expands it
// against the block universe. Scopes come out in scope-index order
// (by key, then event), not plan order; the expansion sorts and
// deduplicates, so only the set matters.
func (s *Schedule) EpochDelta(e1, e2 int) netsim.RouteDelta {
	var d netsim.RouteDelta
	if e1 == e2 {
		return d
	}
	for _, i := range s.congestion {
		e := &s.events[i]
		if e.active(e1) != e.active(e2) {
			d.All = true
			return d
		}
	}
	for _, p := range s.flaps {
		if e := &s.events[p.ev]; e.active(e1) || e.active(e2) {
			d.Blocks = append(d.Blocks, e.Block)
		}
	}
	for _, b := range s.holes {
		for _, p := range b.ps {
			if e := &s.events[p.ev]; e.active(e1) != e.active(e2) {
				d.Prefixes = append(d.Prefixes, e.Prefix)
			}
		}
	}
	for _, p := range s.storms {
		i := int(p.ev)
		if e := &s.events[i]; s.stormFiring(i, e, e1) != s.stormFiring(i, e, e2) {
			d.Pops = append(d.Pops, e.Pop)
		}
	}
	return d
}

// Schedule must keep satisfying the monitoring mode's delta interface.
var _ netsim.DeltaView = (*Schedule)(nil)
