// Package probe implements the measurement primitives of the paper's
// toolchain: ICMP echo probing with TTL-based hop-count inference
// (Section 3.4), Paris-traceroute MDA — the multipath detection algorithm
// that enumerates per-flow load-balanced paths with per-hop statistical
// stopping rules — and the last-hop discovery procedure, which starts MDA
// at the inferred last hop and steps first_ttl back one TTL at a time
// when it overshoots.
//
// Probers operate against the Network interface, satisfied by the netsim
// adapter (SimNetwork) for laboratory runs and by the raw-socket backend
// (ICMPNetwork) on a privileged host.
package probe

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Kind classifies a probe outcome.
type Kind int

// Probe outcomes.
const (
	NoReply Kind = iota
	TTLExceeded
	EchoReply
)

// Result is the outcome of one TTL-limited probe.
type Result struct {
	Kind Kind
	// From is the router interface that sent a TTL-exceeded message.
	From iputil.Addr
	// RTT of the reply, when one arrived.
	RTT time.Duration
}

// PingResult is the outcome of one echo request.
type PingResult struct {
	// RespTTL is the TTL field of the received echo reply, from which
	// the destination's default TTL and hop distance are inferred.
	RespTTL int
	RTT     time.Duration
}

// Network is the probing surface: it answers echo requests and TTL-limited
// probes. flowID selects the per-flow load-balanced path (the header
// fields Paris traceroute keeps constant or varies); salt distinguishes
// retransmissions so rate-limited losses are independent across retries.
type Network interface {
	Ping(dst iputil.Addr, seq int) (PingResult, bool)
	Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result
}

// Signal is one event the prober reports beyond the packets it sends. A
// retransmission is indistinguishable from a fresh probe at the Probe
// call (salt is a free-running nonce), and a window's outcome is not a
// packet at all, so MDA reports each Signal to a Network that implements
// Observer.
type Signal int

// The signals MDA reports.
const (
	// ProbeRetry: an unanswered TTL-limited probe was retransmitted. The
	// retransmission also passes through Probe, so retries are a subset
	// of the probe total, as ping retries are of the ping total.
	ProbeRetry Signal = iota
	// RecoveredRetry: a retransmission drew a reply.
	RecoveredRetry
	// SilentWindow: a window (a flow's probe and its retries) ended
	// unanswered at a TTL where no flow had answered, which the silence
	// rule takes for an anonymous router (see MDAOptions.Retries).
	SilentWindow
	// DegradedWindow: a run lost degradedStreak windows in a row at
	// TTLs that had answered, and turned degraded (MDAResult.Degraded).
	DegradedWindow

	// Instrumented's count tables hold the three packet counts after the
	// signals.
	pingsSent
	probesSent
	pingRetries
	numCounts
)

// Observer is implemented by Networks that want the prober's signals.
type Observer interface {
	Observe(Signal)
}

// discard is the Observer of a Network that implements none.
type discard struct{}

func (discard) Observe(Signal) {}

// Instrumented wraps a Network with the measurement-load accounting the
// paper reports (64.45M destinations probed): echo requests, TTL-limited
// probes, ping retries and every Signal, both as flat totals and — when a
// telemetry registry is attached — as per-stage counters
// ("probe.<stage>.pings", "probe.<stage>.probes",
// "probe.<stage>.ping_retries", "probe.<stage>.probe_retries",
// "probe.<stage>.recovered_retries", "probe.<stage>.silent_windows",
// "probe.<stage>.degraded_windows"), so census, measurement, and reprobe
// validation load stay attributable after a run.
//
// Its own methods count each call as it happens; they serve callers that
// probe it directly. The production prober (hobbit.Measurer) instead takes
// one Batch view per measured /24, which publishes the block's counts
// when the block is done, so live readers (progress events, a metrics
// endpoint) see the counts advance a block at a time. Either way every
// count is exact.
//
// Instrumented is safe for concurrent use whenever the wrapped Network is;
// SetStage may be called between pipeline stages but not concurrently with
// in-flight probes of the old stage.
type Instrumented struct {
	net    Network
	reg    *telemetry.Registry
	stage  atomic.Pointer[stageCounters]
	counts [numCounts]atomic.Int64
}

// stageCounters caches the per-stage registry handles, indexed like
// Instrumented.counts, so hot-path probes do not take the registry lock.
type stageCounters struct {
	name     string
	counters [numCounts]*telemetry.Counter
}

// Instrument wraps net with probe accounting attributed to the given
// stage. A nil registry keeps the flat totals only.
func Instrument(net Network, reg *telemetry.Registry, stage string) *Instrumented {
	n := &Instrumented{net: net, reg: reg}
	n.SetStage(stage)
	return n
}

// SetStage switches the stage new probes are attributed to.
func (n *Instrumented) SetStage(stage string) {
	sc := &stageCounters{name: stage}
	if n.reg != nil {
		sc.counters = [numCounts]*telemetry.Counter{
			pingsSent:      n.reg.Counter("probe." + stage + ".pings"),
			probesSent:     n.reg.Counter("probe." + stage + ".probes"),
			pingRetries:    n.reg.Counter("probe." + stage + ".ping_retries"),
			ProbeRetry:     n.reg.Counter("probe." + stage + ".probe_retries"),
			DegradedWindow: n.reg.Counter("probe." + stage + ".degraded_windows"),
			RecoveredRetry: n.reg.Counter("probe." + stage + ".recovered_retries"),
			SilentWindow:   n.reg.Counter("probe." + stage + ".silent_windows"),
		}
	}
	n.stage.Store(sc)
}

// Stage returns the stage probes are currently attributed to.
func (n *Instrumented) Stage() string { return n.stage.Load().name }

// Ping implements Network. A seq greater than zero marks a retry of an
// unanswered echo request (see FindLastHops' attempt loop).
func (n *Instrumented) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	n.Observe(pingsSent)
	if seq > 0 {
		n.Observe(pingRetries)
	}
	return n.net.Ping(dst, seq)
}

// Probe implements Network.
func (n *Instrumented) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	n.Observe(probesSent)
	return n.net.Probe(dst, ttl, flowID, salt)
}

// Observe implements Observer: it counts s in the flat totals and in the
// current stage's counter.
func (n *Instrumented) Observe(s Signal) {
	n.counts[s].Add(1)
	n.stage.Load().counters[s].Inc()
}

// Pings returns the number of echo requests sent.
func (n *Instrumented) Pings() int64 { return n.counts[pingsSent].Load() }

// Probes returns the number of TTL-limited probes sent.
func (n *Instrumented) Probes() int64 { return n.counts[probesSent].Load() }

// PingRetries returns how many echo requests were retries.
func (n *Instrumented) PingRetries() int64 { return n.counts[pingRetries].Load() }

// ProbeRetries returns how many TTL-limited probes were retransmissions.
func (n *Instrumented) ProbeRetries() int64 { return n.counts[ProbeRetry].Load() }

// DegradedWindows returns how many MDA runs turned degraded.
func (n *Instrumented) DegradedWindows() int64 { return n.counts[DegradedWindow].Load() }

// DegradedRetries returns 0: MDA no longer escalates retransmissions.
// It stays only for cmd/hobbitbench, which still reports it.
func (n *Instrumented) DegradedRetries() int64 { return 0 }

// DegradedExhausted returns 0: MDA no longer has an escalation budget.
// It stays only for cmd/hobbitbench, which still reports it.
func (n *Instrumented) DegradedExhausted() int64 { return 0 }

// RecoveredRetries returns how many retransmissions drew a reply.
func (n *Instrumented) RecoveredRetries() int64 { return n.counts[RecoveredRetry].Load() }

// SilentWindows returns how many windows died at a TTL where no flow had
// answered.
func (n *Instrumented) SilentWindows() int64 { return n.counts[SilentWindow].Load() }

// Batch returns a counting view of net for one goroutine's unit of work,
// and the flush that publishes what the view counted. When net is an
// *Instrumented, the view forwards every packet to the Network under it
// and counts packets and signals in one plain array; flush adds that
// table once to the flat totals and to the per-stage counters of the
// stage current when Batch was called. A hot prober thus pays no
// shared-memory write per packet, and every count stays exact. Any other
// Network comes back unchanged, with a flush that does nothing.
//
// The view must not be shared between goroutines, and flush must run
// once, after its last packet (hobbit.Measurer defers it per block).
func Batch(net Network) (Network, func()) {
	n, ok := net.(*Instrumented)
	if !ok {
		return net, func() {}
	}
	b := &batch{net: n.net, owner: n, stage: n.stage.Load()}
	return b, b.flush
}

// batch is Batch's view of an Instrumented: the same count table, in a
// plain array owned by one goroutine.
type batch struct {
	net    Network
	owner  *Instrumented
	stage  *stageCounters
	counts [numCounts]int64
}

// Ping implements Network, counting like Instrumented.Ping.
func (b *batch) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	b.counts[pingsSent]++
	if seq > 0 {
		b.counts[pingRetries]++
	}
	return b.net.Ping(dst, seq)
}

// Probe implements Network.
func (b *batch) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	b.counts[probesSent]++
	return b.net.Probe(dst, ttl, flowID, salt)
}

// Observe implements Observer.
func (b *batch) Observe(s Signal) { b.counts[s]++ }

// flush adds the view's counts to its Instrumented.
func (b *batch) flush() {
	for i, c := range b.counts {
		b.owner.counts[i].Add(c)
		b.stage.counters[i].Add(c)
	}
}

// InferDefaultTTL buckets a received echo-reply TTL into the assumed
// default TTL of the destination host, per Section 3.4: < 64 → 64,
// 64..127 → 128, 128..191 → 192, and ≥ 192 → 255.
func InferDefaultTTL(respTTL int) int {
	switch {
	case respTTL < 64:
		return 64
	case respTTL < 128:
		return 128
	case respTTL < 192:
		return 192
	default:
		return 255
	}
}

// HopEstimate infers the hop count between the source and the destination
// from a received echo-reply TTL (default TTL minus received TTL). The
// estimate equals the reverse-path length and may be off when forward and
// reverse paths differ; FindLastHops backs off from overestimates and
// walks forward from underestimates.
func HopEstimate(respTTL int) int {
	return InferDefaultTTL(respTTL) - respTTL
}

// mda95Table holds the published 95%-confidence MDA stopping points for
// k = 1..16 seen interfaces, as shipped with Paris traceroute.
var mda95Table = []int{6, 11, 16, 21, 27, 33, 38, 44, 51, 57, 63, 70, 76, 83, 90, 96}

// StoppingPoint returns the number of probes that must be answered by at
// most k distinct next-hop interfaces to rule out a (k+1)-th interface at
// the given confidence level, following the MDA analysis the paper relies
// on (6 probes rule out a second interface at 95%). At 95% it uses the
// published Paris-traceroute table; other confidence levels use the
// closed-form bound.
func StoppingPoint(k int, confidence float64) int {
	if k < 1 {
		k = 1
	}
	alpha := 1 - confidence
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	if math.Abs(alpha-0.05) < 1e-9 && k <= len(mda95Table) {
		return mda95Table[k-1]
	}
	// Smallest n with (k+1) * (k/(k+1))^n < alpha.
	ratio := float64(k) / float64(k+1)
	n := math.Log(alpha/float64(k+1)) / math.Log(ratio)
	return int(math.Ceil(n))
}
