package probe

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/trace"
)

// MDAOptions configures a multipath-detection run. The struct is part of
// the serializable request schema (core.Options embeds it into campaign
// submissions), so every field carries a stable snake_case JSON name.
type MDAOptions struct {
	// FirstTTL is the TTL of the first probed hop (1 = full traceroute).
	FirstTTL int `json:"first_ttl"`
	// MaxTTL bounds the probed path length.
	MaxTTL int `json:"max_ttl"`
	// Confidence is the per-hop enumeration confidence (default 0.95).
	Confidence float64 `json:"confidence"`
	// MaxFlows caps the number of distinct flow identifiers used per
	// hop, bounding the probing cost at wide load-balancers.
	MaxFlows int `json:"max_flows"`
	// Retries is how many extra probes to send when one goes
	// unanswered, before recording an unresponsive hop. Zero uses the
	// default (2); pass a negative value for single-shot probing. The
	// retries buy back loss, so they stop where there is nothing to buy:
	// once a flow's window (its probe and retries) dies at a TTL where
	// no flow has answered, that TTL is taken for an anonymous router
	// and every later flow there gets a single attempt, until one of
	// them draws a reply.
	Retries int `json:"retries"`
	// Adaptive and AdaptiveBudget are ignored: MDA has one retry policy,
	// set by Retries, because escalating retransmissions on degraded
	// runs changed almost no verdict (EXPERIMENTS.md, deviation 9). The
	// fields stay for the v1 wire.
	Adaptive       bool `json:"adaptive"`
	AdaptiveBudget int  `json:"adaptive_budget"`
}

// Canonical maps every MDAOptions value onto one representative per
// behaviour class: zero fields become the paper's operating parameters,
// the negative Retries sentinel collapses to -1, and the ignored
// Adaptive fields fold to zero. Two option values with equal Canonical()
// forms produce bit-identical measurements over the same surface, which
// is what lets a result cache key on the canonical form. It is also the
// prober's one table of defaults: MDA and FindLastHops run on the
// canonical form, which is idempotent and keeps the sentinel/zero
// distinction, so applying it twice cannot turn a sentinel back into the
// default.
func (o MDAOptions) Canonical() MDAOptions {
	if o.FirstTTL <= 0 {
		o.FirstTTL = 1
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 32
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.MaxFlows <= 0 {
		o.MaxFlows = 64
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = -1
	}
	o.Adaptive, o.AdaptiveBudget = false, 0
	return o
}

// degradedStreak is how many consecutive fully-lost probing windows, at
// TTLs where some flow has answered, mark an MDA run as degraded. The
// mark only reports the loss: it never changes a packet.
const degradedStreak = 3

// ttlState is what one MDA run has learned about one TTL, for the
// silence rule (see MDAOptions.Retries).
type ttlState uint8

const (
	// ttlOpen: no flow has answered and no window has died yet.
	ttlOpen ttlState = iota
	// ttlSilent: a window died and no flow has answered. Later windows
	// get a single attempt, and their deaths are anonymity, not loss.
	ttlSilent
	// ttlAnswered: some flow drew a reply. Windows get their full
	// retries, and a window that dies anyway counts as loss.
	ttlAnswered
)

// MDAResult is the outcome of one Paris-traceroute MDA run toward a
// destination.
type MDAResult struct {
	// FirstTTL echoes the starting TTL of the run; paths cover hops
	// [FirstTTL, DestTTL-1].
	FirstTTL int
	// DestReached reports whether any probe elicited an echo reply.
	DestReached bool
	// DestTTL is the TTL at which the destination answered.
	DestTTL int
	// Paths enumerates the distinct per-flow load-balanced paths
	// discovered (hop sequences from FirstTTL up to the last-hop
	// router). It is nil, an empty set, when the run saw no router
	// hop.
	Paths *trace.PathSet
	// Degraded reports that the run lost degradedStreak windows in a
	// row at TTLs where some flow had answered. Silence at an anonymous
	// TTL never counts.
	Degraded bool
}

// ImmediateEcho reports whether the destination answered at the starting
// TTL itself, i.e. the run saw no router hop at all — the signature of an
// overestimated first_ttl.
func (r MDAResult) ImmediateEcho() bool {
	return r.DestReached && r.DestTTL == r.FirstTTL
}

// MDA runs the multipath detection algorithm toward dst: at each hop it
// varies the flow identifier and sends probes until the stopping rule for
// the number of interfaces seen is satisfied, then advances, building the
// set of per-flow paths. Per-destination load-balanced paths cannot be
// enumerated this way — they are what Hobbit infers across destinations.
func MDA(net Network, dst iputil.Addr, opts MDAOptions) MDAResult {
	// A full trace's rows fill up to a few hundred hops.
	var rows [256]trace.Hop
	res, _, _ := walk(net, dst, opts.Canonical(), rows[:0], nil, true)
	return res
}

// walk is the one MDA loop, on canonical opts. It lays its TTL rows out
// in hops, an empty buffer from the caller's stack sized for the walks
// the caller makes. MDA keeps the per-flow paths it assembles
// (keepPaths). FindLastHops keeps only each path's last hop: after the
// same probes, walk returns the distinct responsive last hops, sorted,
// appended to buf[:0], and whether some flow's last hop is a star.
func walk(net Network, dst iputil.Addr, opts MDAOptions, hops []trace.Hop, buf []iputil.Addr, keepPaths bool) (res MDAResult, lastHops []iputil.Addr, star bool) {
	res.FirstTTL = opts.FirstTTL

	var salt uint32
	obs, ok := net.(Observer)
	if !ok {
		obs = discard{}
	}
	// failStreak counts consecutive windows lost even after every retry
	// at TTLs that have answered; reaching degradedStreak marks the run
	// degraded.
	failStreak := 0
	retries := max(opts.Retries, 0)
	// probeOnce sends flow's window at ttl and moves the TTL's state
	// along: any reply marks it answered, and a window that dies while
	// nothing there has answered marks it silent.
	probeOnce := func(ttl int, flow uint16, state *ttlState) Result {
		maxAttempts := 0
		if *state != ttlSilent {
			maxAttempts = retries
		}
		for attempt := 0; ; attempt++ {
			salt++
			if attempt > 0 {
				obs.Observe(ProbeRetry)
			}
			r := net.Probe(dst, ttl, flow, salt)
			if r.Kind != NoReply {
				*state = ttlAnswered
				failStreak = 0
				if attempt > 0 {
					obs.Observe(RecoveredRetry)
				}
				return r
			}
			if attempt < maxAttempts {
				continue
			}
			if *state != ttlAnswered {
				*state = ttlSilent
				obs.Observe(SilentWindow)
				return r
			}
			failStreak++
			if !res.Degraded && failStreak >= degradedStreak {
				res.Degraded = true
				obs.Observe(DegradedWindow)
			}
			return r
		}
	}

	// hops holds every TTL's row back to back: the row of TTL FirstTTL+i
	// ends at ends[i] and starts where the previous row ended, with flow
	// f's interface at offset f, and states[i] is that TTL's silence
	// state. seen collects the distinct interfaces observed at the
	// current TTL; a linear scan beats a per-TTL map at the small
	// fan-outs real load balancers have. All of them start in stack
	// buffers that only a wide or long path outgrows, which keeps the
	// walk off the allocator.
	var endBuf [32]int
	var stateBuf [32]ttlState
	var seenBuf [16]iputil.Addr
	ends, states := endBuf[:0], stateBuf[:0]
	maxFlowsUsed := 0
	for ttl := opts.FirstTTL; ttl <= opts.MaxTTL; ttl++ {
		start := len(hops)
		seen := seenBuf[:0]
		state := ttlOpen
		echo := false
		for probed := 0; ; probed++ {
			need := StoppingPoint(len(seen), opts.Confidence)
			if probed >= need || probed >= opts.MaxFlows {
				break
			}
			r := probeOnce(ttl, uint16(probed), &state)
			switch r.Kind {
			case EchoReply:
				echo = true
			case TTLExceeded:
				hops = append(hops, trace.R(r.From))
				if !containsAddr(seen, r.From) {
					seen = append(seen, r.From)
				}
			default:
				hops = append(hops, trace.Star)
			}
			if echo {
				break
			}
		}
		if echo {
			res.DestReached = true
			res.DestTTL = ttl
			hops = hops[:start]
			break
		}
		maxFlowsUsed = max(maxFlowsUsed, len(hops)-start)
		ends = append(ends, len(hops))
		states = append(states, state)
	}

	// Assemble per-flow paths over the hops before the destination. A
	// flow that was not probed at some hop (the stopping rule was met
	// with fewer probes there) is filled in so every enumerated path is
	// complete. Fill-in windows follow the same silence rule: at a TTL
	// whose row is all Star they get one attempt until one answers.
	// A run that recorded no row, such as an immediate echo, returns
	// without allocating.
	if len(ends) == 0 {
		return res, buf[:0], false
	}
	if keepPaths {
		res.Paths = trace.NewPathSet()
	}
	// One scratch path, in a stack buffer like the rows (a path over 32
	// hops grows it onto the heap), is refilled per flow; PathSet.Add
	// clones only the paths it actually keeps, so duplicate flows cost
	// no allocation. Without paths, last collects the distinct last
	// hops the same way seen collects a row's interfaces.
	var scratchBuf [32]trace.Hop
	var lastBuf [16]iputil.Addr
	scratch := append(scratchBuf[:0], make(trace.Path, len(ends))...)
	last := lastBuf[:0]
	for f := 0; f < maxFlowsUsed; f++ {
		start := 0
		for i, end := range ends {
			row := hops[start:end]
			start = end
			if f < len(row) {
				scratch[i] = row[f]
				continue
			}
			r := probeOnce(opts.FirstTTL+i, uint16(f), &states[i])
			switch r.Kind {
			case TTLExceeded:
				scratch[i] = trace.R(r.From)
			default:
				scratch[i] = trace.Star
			}
		}
		if keepPaths {
			res.Paths.Add(scratch)
			continue
		}
		switch h := scratch[len(scratch)-1]; {
		case !h.Responsive:
			star = true
		case !containsAddr(last, h.Addr):
			last = append(last, h.Addr)
		}
	}
	lastHops = append(buf[:0], last...)
	iputil.SortAddrs(lastHops)
	return res, lastHops, star
}

// containsAddr reports whether a holds x; the MDA hot loop uses it instead
// of a map because per-hop interface counts are small.
func containsAddr(a []iputil.Addr, x iputil.Addr) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
