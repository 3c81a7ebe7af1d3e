package netsim

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Fault injection: the reply path consults an optional FaultView so a
// deterministic, time-phased adversity plan (internal/faultplan) can
// perturb measurements without touching the world's own structure. The
// same purity rules as the rest of the reply path apply: every answer a
// faulted world gives is a pure function of (seed, plan, epoch, probe
// arguments), so faulted runs replay bit-identically and are independent
// of probe order and worker count.
//
// The four perturbation surfaces:
//
//   - Blackholed(dst): the destination's route entry is withdrawn. Echo
//     replies stop entirely and TTL-exceeded replies stop past the
//     backbone core (hops beyond blackholeCoreHops go dark) — transit
//     routers up to the core still answer, as they would for a prefix
//     withdrawn inside the destination AS.
//   - RateBoost(pop): an ICMP rate-limit storm at the pop's edge. The
//     boost adds to Config.PRateLimit for TTL-exceeded replies on paths
//     toward the pop's addresses.
//   - LossBoost(vantage): vantage-local congestion. The boost adds to
//     Config.PPingLoss for echo replies and to the TTL-exceeded drop
//     probability for probes sent from that vantage.
//   - FlapKey(block): a route flap re-draws the block's per-destination
//     last-hop choices with the returned key folded into the hash, so
//     the observed last-hop partition of the /24 remaps for as long as
//     the flap is active.
//
// Faults never alter the census (ScanBlock/ScanPing): the ZMap snapshot
// predates the measurement window, so eligibility is held fixed while
// measurement-time adversity varies — exactly the comparison the
// accuracy harness needs.

// blackholeCoreHops is the last hop index that still answers toward a
// blackholed destination: the two source access routers plus the
// region's core ingress, ECMP middle, and core egress. Everything past
// the core (the destination AS) is dark.
const blackholeCoreHops = 5

// FaultView is the reply path's view of an active fault plan. Epoch is
// passed explicitly so implementations stay stateless and replayable;
// implementations must be safe for concurrent calls and must answer as
// pure functions of their construction state and the arguments.
type FaultView interface {
	// Blackholed reports whether dst's route entry is withdrawn at the
	// epoch.
	Blackholed(epoch int, dst iputil.Addr) bool
	// RateBoost returns the additive TTL-exceeded drop probability for
	// probes toward the pop's addresses at the epoch.
	RateBoost(epoch int, popID int32) float64
	// LossBoost returns the additive reply-loss probability for probes
	// sent from the vantage at the epoch.
	LossBoost(epoch int, vantage int) float64
	// FlapKey returns the extra hash key remapping the block's last-hop
	// choices at the epoch; ok is false when no flap is active.
	FlapKey(epoch int, b iputil.Block24) (key uint64, ok bool)
}

// SetFaults installs (or, with nil, removes) the active fault plan.
// Like SetEpoch it must not be called concurrently with probing.
func (w *World) SetFaults(f FaultView) {
	w.faults = f
}

// Faults returns the installed fault plan (nil for a clean world).
func (w *World) Faults() FaultView { return w.faults }

// faultBlackholed reports whether dst sits behind a withdrawn route
// entry this epoch.
//
//hobbit:hotpath
func (w *World) faultBlackholed(dst iputil.Addr) bool {
	return w.faults != nil && w.faults.Blackholed(w.faultsEpoch(), dst)
}

// faultRateLimit returns the effective TTL-exceeded drop probability for
// a probe from vantage v toward an address of pop (nil for unrouted
// space): the configured base plus any active rate-storm boost at the pop
// and congestion boost at the vantage.
//
//hobbit:hotpath
func (w *World) faultRateLimit(v int, pop *pop) float64 {
	p := w.cfg.PRateLimit
	if w.faults == nil {
		return p
	}
	if pop != nil {
		p += w.faults.RateBoost(w.faultsEpoch(), pop.id)
	}
	p += w.faults.LossBoost(w.faultsEpoch(), v)
	if p > 1 {
		p = 1
	}
	return p
}

// faultPingLoss returns the effective echo-reply loss probability for
// probes from vantage v.
//
//hobbit:hotpath
func (w *World) faultPingLoss(v int) float64 {
	p := w.cfg.PPingLoss
	if w.faults == nil {
		return p
	}
	p += w.faults.LossBoost(w.faultsEpoch(), v)
	if p > 1 {
		p = 1
	}
	return p
}

// faultFlap returns the active route-flap key for the block, if any.
//
//hobbit:hotpath
func (w *World) faultFlap(b iputil.Block24) (uint64, bool) {
	if w.faults == nil {
		return 0, false
	}
	return w.faults.FlapKey(w.faultsEpoch(), b)
}

// faultsEpoch is the epoch fault queries evaluate at: the pinned fault
// epoch when one is set (monitoring mode), the measurement epoch
// otherwise.
//
//hobbit:hotpath
func (w *World) faultsEpoch() int {
	if w.faultEpochSet {
		return w.faultEpoch
	}
	return w.epoch
}
