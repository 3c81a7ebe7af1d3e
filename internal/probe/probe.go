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

// Instrumented wraps a Network with the measurement-load accounting the
// paper reports (64.45M destinations probed): echo requests, TTL-limited
// probes, and retransmissions, both as flat totals and — when a telemetry
// registry is attached — as per-stage counters ("probe.<stage>.pings",
// "probe.<stage>.probes", "probe.<stage>.ping_retries",
// "probe.<stage>.probe_retries"), so census, measurement, and reprobe
// validation load stay attributable after a run. It also counts what the
// prober reports through DegradedObserver and SilenceObserver
// ("probe.<stage>.degraded_*", "probe.<stage>.recovered_retries",
// "probe.<stage>.silent_windows").
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
	net   Network
	reg   *telemetry.Registry
	stage atomic.Pointer[stageCounters]

	pings        atomic.Int64
	probes       atomic.Int64
	pingRetries  atomic.Int64
	probeRetries atomic.Int64

	degradedWindows   atomic.Int64
	degradedRetries   atomic.Int64
	degradedExhausted atomic.Int64

	recoveredRetries atomic.Int64
	silentWindows    atomic.Int64
}

// stageCounters caches the per-stage registry handles so hot-path probes
// do not take the registry lock.
type stageCounters struct {
	name              string
	pings             *telemetry.Counter
	probes            *telemetry.Counter
	pingRetries       *telemetry.Counter
	probeRetries      *telemetry.Counter
	degradedWindows   *telemetry.Counter
	degradedRetries   *telemetry.Counter
	degradedExhausted *telemetry.Counter
	recoveredRetries  *telemetry.Counter
	silentWindows     *telemetry.Counter
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
		sc.pings = n.reg.Counter("probe." + stage + ".pings")
		sc.probes = n.reg.Counter("probe." + stage + ".probes")
		sc.pingRetries = n.reg.Counter("probe." + stage + ".ping_retries")
		sc.probeRetries = n.reg.Counter("probe." + stage + ".probe_retries")
		sc.degradedWindows = n.reg.Counter("probe." + stage + ".degraded_windows")
		sc.degradedRetries = n.reg.Counter("probe." + stage + ".degraded_retries")
		sc.degradedExhausted = n.reg.Counter("probe." + stage + ".degraded_exhausted")
		sc.recoveredRetries = n.reg.Counter("probe." + stage + ".recovered_retries")
		sc.silentWindows = n.reg.Counter("probe." + stage + ".silent_windows")
	}
	n.stage.Store(sc)
}

// Stage returns the stage probes are currently attributed to.
func (n *Instrumented) Stage() string { return n.stage.Load().name }

// Ping implements Network. A seq greater than zero marks a retry of an
// unanswered echo request (see FindLastHops' attempt loop).
func (n *Instrumented) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	n.pings.Add(1)
	sc := n.stage.Load()
	sc.pings.Inc()
	if seq > 0 {
		n.pingRetries.Add(1)
		sc.pingRetries.Inc()
	}
	return n.net.Ping(dst, seq)
}

// Probe implements Network.
func (n *Instrumented) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	n.probes.Add(1)
	n.stage.Load().probes.Inc()
	return n.net.Probe(dst, ttl, flowID, salt)
}

// RecordProbeRetry implements ProbeRetryObserver: MDA reports each
// retransmission of an unanswered TTL-limited probe here (the probe itself
// also passes through Probe, so retries are a subset of the probe total,
// mirroring how ping retries relate to the ping total).
func (n *Instrumented) RecordProbeRetry() {
	n.probeRetries.Add(1)
	n.stage.Load().probeRetries.Inc()
}

// RecordDegradedWindow implements DegradedObserver: an MDA run crossed
// the consecutive-loss threshold and turned its escalation on.
func (n *Instrumented) RecordDegradedWindow() {
	n.degradedWindows.Add(1)
	n.stage.Load().degradedWindows.Inc()
}

// RecordDegradedRetry implements DegradedObserver: one escalated
// retransmission was spent from an adaptive budget (also counted by
// RecordProbeRetry, as every retransmission is).
func (n *Instrumented) RecordDegradedRetry() {
	n.degradedRetries.Add(1)
	n.stage.Load().degradedRetries.Inc()
}

// RecordDegradedExhausted implements DegradedObserver: a degraded run
// ran out of escalation budget.
func (n *Instrumented) RecordDegradedExhausted() {
	n.degradedExhausted.Add(1)
	n.stage.Load().degradedExhausted.Inc()
}

// RecordRecoveredRetry implements SilenceObserver: a retransmission
// drew a reply.
func (n *Instrumented) RecordRecoveredRetry() {
	n.recoveredRetries.Add(1)
	n.stage.Load().recoveredRetries.Inc()
}

// RecordSilentWindow implements SilenceObserver: a window ended
// unanswered at a TTL where no flow had answered.
func (n *Instrumented) RecordSilentWindow() {
	n.silentWindows.Add(1)
	n.stage.Load().silentWindows.Inc()
}

// DegradedWindows returns how many MDA runs turned degraded.
func (n *Instrumented) DegradedWindows() int64 { return n.degradedWindows.Load() }

// DegradedRetries returns how many retransmissions were escalations.
func (n *Instrumented) DegradedRetries() int64 { return n.degradedRetries.Load() }

// DegradedExhausted returns how many runs exhausted their budget.
func (n *Instrumented) DegradedExhausted() int64 { return n.degradedExhausted.Load() }

// RecoveredRetries returns how many retransmissions drew a reply.
func (n *Instrumented) RecoveredRetries() int64 { return n.recoveredRetries.Load() }

// SilentWindows returns how many windows died at a TTL where no flow had
// answered.
func (n *Instrumented) SilentWindows() int64 { return n.silentWindows.Load() }

// Pings returns the number of echo requests sent.
func (n *Instrumented) Pings() int64 { return n.pings.Load() }

// Probes returns the number of TTL-limited probes sent.
func (n *Instrumented) Probes() int64 { return n.probes.Load() }

// PingRetries returns how many echo requests were retries.
func (n *Instrumented) PingRetries() int64 { return n.pingRetries.Load() }

// ProbeRetries returns how many TTL-limited probes were retransmissions.
func (n *Instrumented) ProbeRetries() int64 { return n.probeRetries.Load() }

// Batch returns a counting view of net for one goroutine's unit of work,
// and the flush that publishes what the view counted. When net is an
// *Instrumented, the view forwards every packet to the Network under it
// and counts packets, retries, degradation and silence signals in plain
// fields; flush adds those nine totals once to the flat totals and to
// the per-stage counters of the stage current when Batch was called. A hot
// prober thus pays no shared-memory write per packet, and every count
// stays exact. Any other Network comes back unchanged, with a flush that
// does nothing.
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

// batch is Batch's view of an Instrumented: the same nine counts, in
// plain fields owned by one goroutine.
type batch struct {
	net   Network
	owner *Instrumented
	stage *stageCounters

	pings, probes, pingRetries, probeRetries            int64
	degradedWindows, degradedRetries, degradedExhausted int64
	recoveredRetries, silentWindows                     int64
}

// Ping implements Network, counting like Instrumented.Ping.
func (b *batch) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	b.pings++
	if seq > 0 {
		b.pingRetries++
	}
	return b.net.Ping(dst, seq)
}

// Probe implements Network.
func (b *batch) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	b.probes++
	return b.net.Probe(dst, ttl, flowID, salt)
}

// RecordProbeRetry implements ProbeRetryObserver.
func (b *batch) RecordProbeRetry() { b.probeRetries++ }

// RecordDegradedWindow implements DegradedObserver.
func (b *batch) RecordDegradedWindow() { b.degradedWindows++ }

// RecordDegradedRetry implements DegradedObserver.
func (b *batch) RecordDegradedRetry() { b.degradedRetries++ }

// RecordDegradedExhausted implements DegradedObserver.
func (b *batch) RecordDegradedExhausted() { b.degradedExhausted++ }

// RecordRecoveredRetry implements SilenceObserver.
func (b *batch) RecordRecoveredRetry() { b.recoveredRetries++ }

// RecordSilentWindow implements SilenceObserver.
func (b *batch) RecordSilentWindow() { b.silentWindows++ }

// flush adds the view's counts to its Instrumented.
func (b *batch) flush() {
	n, sc := b.owner, b.stage
	n.pings.Add(b.pings)
	sc.pings.Add(b.pings)
	n.probes.Add(b.probes)
	sc.probes.Add(b.probes)
	n.pingRetries.Add(b.pingRetries)
	sc.pingRetries.Add(b.pingRetries)
	n.probeRetries.Add(b.probeRetries)
	sc.probeRetries.Add(b.probeRetries)
	n.degradedWindows.Add(b.degradedWindows)
	sc.degradedWindows.Add(b.degradedWindows)
	n.degradedRetries.Add(b.degradedRetries)
	sc.degradedRetries.Add(b.degradedRetries)
	n.degradedExhausted.Add(b.degradedExhausted)
	sc.degradedExhausted.Add(b.degradedExhausted)
	n.recoveredRetries.Add(b.recoveredRetries)
	sc.recoveredRetries.Add(b.recoveredRetries)
	n.silentWindows.Add(b.silentWindows)
	sc.silentWindows.Add(b.silentWindows)
}

// ProbeRetryObserver is implemented by Networks that want to know when a
// prober retransmits an unanswered TTL-limited probe; retries are
// indistinguishable from fresh probes at the Probe call itself (salt is a
// free-running nonce), so the prober reports them explicitly.
type ProbeRetryObserver interface {
	RecordProbeRetry()
}

// DegradedObserver is implemented by Networks that want the adaptive
// prober's degradation signals: a window crossing the loss threshold, an
// escalated retransmission, and a budget running dry (see MDAOptions
// .Adaptive). Instrumented surfaces them as probe.<stage>.degraded_*
// counters.
type DegradedObserver interface {
	RecordDegradedWindow()
	RecordDegradedRetry()
	RecordDegradedExhausted()
}

// SilenceObserver is implemented by Networks that want to see what MDA's
// retransmissions bought: a retransmission that drew a reply (loss the
// retries recovered), and a window that ended unanswered at a TTL where
// no flow had answered (an anonymous router, which the silence rule
// stops retrying; see MDAOptions.Retries). Instrumented surfaces them as
// probe.<stage>.recovered_retries and probe.<stage>.silent_windows.
type SilenceObserver interface {
	RecordRecoveredRetry()
	RecordSilentWindow()
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
