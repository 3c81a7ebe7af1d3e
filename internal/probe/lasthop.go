package probe

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/trace"
)

// LastHopResult is the outcome of discovering a destination's last-hop
// router(s), Section 3.4's procedure.
type LastHopResult struct {
	// Responded reports whether the destination answered echo probes at
	// all; when false nothing else is meaningful.
	Responded bool
	// LastHops are the distinct responsive last-hop router interfaces
	// observed across the enumerated per-flow paths.
	LastHops []iputil.Addr
	// Unresponsive reports that at least one path ended at a router
	// that never answered (the "Unresponsive last-hop" category when no
	// LastHops were found at all).
	Unresponsive bool
	// DestTTL is the hop distance at which the destination answered.
	DestTTL int
	// Degraded reports that at least one underlying MDA run crossed the
	// consecutive-loss threshold (see MDAResult.Degraded).
	Degraded bool
}

// pingAttempts is how many echo probes to try before declaring a
// destination unresponsive.
const pingAttempts = 3

// FindLastHops identifies the last-hop router(s) of dst efficiently, per
// Section 3.4: it infers a starting TTL from the destination's echo-reply
// TTL and runs Paris-traceroute MDA from there. When the destination
// answers at the starting TTL itself (an overestimate), the paper halves
// the starting TTL; here the next run starts one TTL lower. An
// overestimate by D costs D one-window runs and the walk then starts at
// the last hop, the only hop Hobbit reads (EXPERIMENTS.md, deviation 6).
// Each run is MDA's walk without the path set: the last hops are read off
// its last TTL row. The result's LastHops is buf[:0] with the last hops
// appended, so a caller that passes the previous result's LastHops
// reuses its array and the search allocates nothing; a nil buf costs
// one allocation per search that finds a last hop.
//
//hobbit:hotpath
func FindLastHops(net Network, dst iputil.Addr, opts MDAOptions, buf []iputil.Addr) LastHopResult {
	opts = opts.Canonical()

	var ping PingResult
	ok := false
	for seq := 0; seq < pingAttempts && !ok; seq++ {
		ping, ok = net.Ping(dst, seq)
	}
	if !ok {
		return LastHopResult{LastHops: buf[:0]}
	}

	firstTTL := HopEstimate(ping.RespTTL) - 1
	if firstTTL < 1 {
		firstTTL = 1
	}
	if firstTTL > opts.MaxTTL {
		firstTTL = opts.MaxTTL
	}

	// Degradation accumulates across the back-off loop's MDA runs: a
	// retrace that went fine does not launder an earlier faulted walk.
	degraded := false
	// The runs share one row buffer. A walk from near the last hop fills
	// a row or two; only a retrace from the source can outgrow it.
	var rows [64]trace.Hop
	for {
		opts.FirstTTL = firstTTL
		res, lastHops, star := walk(net, dst, opts, rows[:0], buf, false)
		degraded = degraded || res.Degraded
		switch {
		case res.ImmediateEcho() && firstTTL > 1:
			// Overestimate: the destination answered before any
			// router hop was seen. Step back and retry.
			firstTTL--
			continue
		case !res.DestReached && firstTTL > 1:
			// The walk from firstTTL never reached the
			// destination; distrust the inference entirely and
			// retrace from the source.
			firstTTL = 1
			continue
		case !res.DestReached:
			// A full trace could not reach the destination: it
			// stopped answering mid-measurement.
			return LastHopResult{LastHops: buf[:0], Degraded: degraded}
		}
		return LastHopResult{
			Responded:    true,
			LastHops:     lastHops,
			Unresponsive: star,
			DestTTL:      res.DestTTL,
			Degraded:     degraded,
		}
	}
}
