package probe

import (
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// faultyNet answers like scriptedNet but, at hops in [faultLo, faultHi],
// drops the TTL-exceeded reply of every flow except flow 0: a lossy,
// storm-hit span whose routers still answer some flows, so every other
// window there dies at a TTL that has answered, which is loss. With dark
// set the span drops every reply instead: anonymous routers, which MDA
// must not read as loss. It counts probes so tests can see escalation
// happen, and implements Observer to record what the prober reports.
type faultyNet struct {
	dist             int
	respTTL          int
	lastHop          iputil.Addr
	midBase          iputil.Addr
	faultLo, faultHi int
	dark             bool
	probes           int
	signals          signalCounts
}

// signalCounts is a test fake's tally of the signals MDA reports.
type signalCounts [DegradedExhausted + 1]int

// degraded sums the three degradation signals.
func (c *signalCounts) degraded() int {
	return c[DegradedWindow] + c[DegradedRetry] + c[DegradedExhausted]
}

func (s *faultyNet) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	return PingResult{RespTTL: s.respTTL}, true
}

func (s *faultyNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	s.probes++
	switch {
	case ttl >= s.faultLo && ttl <= s.faultHi && (s.dark || flowID != 0):
		return Result{}
	case ttl >= s.dist:
		return Result{Kind: EchoReply}
	case ttl == s.dist-1:
		return Result{Kind: TTLExceeded, From: s.lastHop}
	default:
		return Result{Kind: TTLExceeded, From: s.midBase + iputil.Addr(ttl)}
	}
}

func (s *faultyNet) Observe(sig Signal) { s.signals[sig]++ }

// TestAdaptiveOffIdentical pins that the Adaptive option defaulting off
// changes nothing: same replies, same probe count, no degraded flags.
func TestAdaptiveOffIdentical(t *testing.T) {
	mk := func() *faultyNet {
		return &faultyNet{dist: 8, respTTL: 56, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 3, faultHi: 5}
	}
	off := mk()
	resOff := MDA(off, 1, MDAOptions{FirstTTL: 1, MaxTTL: 12})
	if resOff.Degraded || resOff.BudgetExhausted {
		t.Fatalf("degradation flagged with Adaptive off: %+v", resOff)
	}
	if off.signals.degraded() != 0 {
		t.Fatalf("degradation observed with Adaptive off")
	}

	// An adaptive run over a fault-free network is also bit-identical:
	// the streak never forms, so no escalation path is taken.
	clean, cleanAdaptive := mk(), mk()
	clean.faultLo, clean.faultHi = -1, -1
	cleanAdaptive.faultLo, cleanAdaptive.faultHi = -1, -1
	r1 := MDA(clean, 1, MDAOptions{FirstTTL: 1, MaxTTL: 12})
	r2 := MDA(cleanAdaptive, 1, MDAOptions{FirstTTL: 1, MaxTTL: 12, Adaptive: true})
	if clean.probes != cleanAdaptive.probes {
		t.Errorf("adaptive run sent %d probes on a clean network, plain run %d", cleanAdaptive.probes, clean.probes)
	}
	if r1.DestTTL != r2.DestTTL || r1.Degraded != r2.Degraded || r2.Degraded {
		t.Errorf("clean adaptive run diverged: %+v vs %+v", r1, r2)
	}
}

// TestAdaptiveEscalates pins the degradation state machine: a lossy span
// whose dead windows cross the streak threshold marks the run degraded,
// and subsequent windows spend escalated retries from the budget
// (visible as extra probes relative to the non-adaptive run).
func TestAdaptiveEscalates(t *testing.T) {
	mk := func() *faultyNet {
		return &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9}
	}
	plain, adaptive := mk(), mk()
	MDA(plain, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16})
	res := MDA(adaptive, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true})
	if !res.Degraded {
		t.Fatal("eight lossy hops did not mark the run degraded")
	}
	if adaptive.signals[DegradedWindow] != 1 {
		t.Errorf("degraded window recorded %d times, want 1", adaptive.signals[DegradedWindow])
	}
	if adaptive.signals[DegradedRetry] == 0 {
		t.Error("no escalated retries recorded")
	}
	if adaptive.probes <= plain.probes {
		t.Errorf("adaptive run sent %d probes, plain %d — escalation invisible", adaptive.probes, plain.probes)
	}
	// Escalated retries are a subset of all retries.
	if adaptive.signals[DegradedRetry] > adaptive.signals[ProbeRetry] {
		t.Errorf("degraded retries %d exceed total retries %d", adaptive.signals[DegradedRetry], adaptive.signals[ProbeRetry])
	}
}

// TestAdaptiveBudgetExhausts pins the cap: with a tiny budget the run
// stops escalating, reports exhaustion exactly once, and never spends
// more than the budget.
func TestAdaptiveBudgetExhausts(t *testing.T) {
	n := &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9}
	res := MDA(n, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true, AdaptiveBudget: 3})
	if !res.Degraded {
		t.Fatal("run not degraded")
	}
	if !res.BudgetExhausted {
		t.Fatal("budget of 3 across eight lossy hops not exhausted")
	}
	if n.signals[DegradedRetry] != 3 {
		t.Errorf("spent %d escalated retries, budget was 3", n.signals[DegradedRetry])
	}
	if n.signals[DegradedExhausted] != 1 {
		t.Errorf("exhaustion recorded %d times, want 1", n.signals[DegradedExhausted])
	}

	// A negative budget means no escalation headroom at all: degraded
	// and exhausted are still reported, but no escalated retry fires.
	n2 := &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9}
	res2 := MDA(n2, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true, AdaptiveBudget: -1})
	if !res2.Degraded || !res2.BudgetExhausted {
		t.Fatalf("zero-headroom run: %+v", res2)
	}
	if n2.signals[DegradedRetry] != 0 {
		t.Errorf("zero-headroom run spent %d escalated retries", n2.signals[DegradedRetry])
	}
}

// TestFindLastHopsPropagatesDegradation pins that the back-off loop ORs
// degradation flags across its MDA runs into the LastHopResult.
func TestFindLastHopsPropagatesDegradation(t *testing.T) {
	// respTTL 56 -> estimate 8 -> firstTTL 7, right at the start of the
	// lossy span [7, 10]: every flow but the first loses its window
	// there, so the MDA run degrades on the first hop and (with a tiny
	// budget) exhausts before the clean hop at 11 and the echo at 12 —
	// and both flags must survive into the LastHopResult.
	n := &faultyNet{dist: 12, respTTL: 56, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 7, faultHi: 10}
	res := FindLastHops(n, 1, MDAOptions{Adaptive: true, AdaptiveBudget: 4})
	if !res.Degraded {
		t.Fatalf("degradation lost by FindLastHops: %+v", res)
	}
	if !res.BudgetExhausted {
		t.Fatalf("exhaustion lost by FindLastHops: %+v", res)
	}
}

// TestFindLastHopsSentinels pins that FindLastHops honours the negative
// sentinels as MDA does: Retries -1 sends no retransmission, and an
// adaptive run at AdaptiveBudget -1 spends no escalated retry, on the
// lossy fixture where the defaults spend both.
func TestFindLastHopsSentinels(t *testing.T) {
	mk := func() *faultyNet {
		return &faultyNet{dist: 12, respTTL: 56, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 7, faultHi: 10}
	}
	def := mk()
	FindLastHops(def, 1, MDAOptions{Adaptive: true})
	if def.signals[ProbeRetry] == 0 || def.signals[DegradedRetry] == 0 {
		t.Fatalf("defaults sent %d retransmissions, %d escalated: the fixture exercises neither", def.signals[ProbeRetry], def.signals[DegradedRetry])
	}

	single := mk()
	if res := FindLastHops(single, 1, MDAOptions{Retries: -1}); !res.Responded {
		t.Fatalf("single-shot run: %+v", res)
	}
	if single.signals[ProbeRetry] != 0 {
		t.Errorf("Retries -1 sent %d retransmissions, want 0", single.signals[ProbeRetry])
	}

	capped := mk()
	res := FindLastHops(capped, 1, MDAOptions{Adaptive: true, AdaptiveBudget: -1})
	if !res.Degraded || !res.BudgetExhausted {
		t.Fatalf("zero-headroom run: %+v", res)
	}
	if capped.signals[DegradedRetry] != 0 {
		t.Errorf("AdaptiveBudget -1 spent %d escalated retries, want 0", capped.signals[DegradedRetry])
	}
}

// TestInstrumentedDegradedCounters pins the telemetry surface: the
// degraded_* counters appear under the active stage and the flat totals
// add up.
func TestInstrumentedDegradedCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	inner := &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9}
	net := Instrument(inner, reg, "measure")
	MDA(net, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true, AdaptiveBudget: 5})
	if net.DegradedWindows() != 1 {
		t.Errorf("DegradedWindows = %d, want 1", net.DegradedWindows())
	}
	if net.DegradedRetries() != 5 {
		t.Errorf("DegradedRetries = %d, want the whole budget of 5", net.DegradedRetries())
	}
	if net.DegradedExhausted() != 1 {
		t.Errorf("DegradedExhausted = %d, want 1", net.DegradedExhausted())
	}
	for name, want := range map[string]int64{
		"probe.measure.degraded_windows":   1,
		"probe.measure.degraded_retries":   5,
		"probe.measure.degraded_exhausted": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestAdaptiveDarkSpanNotDegraded pins that silence is not loss: a span
// where no flow ever answers is a run of anonymous routers, so an
// adaptive run over it marks nothing degraded, escalates nothing, and
// sends exactly the probes of a plain run. Each dark hop costs one full
// window and five single attempts: 8 probes, where retrying every flow
// cost 18.
func TestAdaptiveDarkSpanNotDegraded(t *testing.T) {
	mk := func() *faultyNet {
		return &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9, dark: true}
	}
	plain, adaptive := mk(), mk()
	want := MDA(plain, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16})
	res := MDA(adaptive, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true, AdaptiveBudget: 3})
	if res.Degraded || res.BudgetExhausted {
		t.Fatalf("dark span marked the run degraded: %+v", res)
	}
	if adaptive.signals.degraded() != 0 {
		t.Errorf("degradation observed over a dark span: %d windows, %d retries, %d exhausted",
			adaptive.signals[DegradedWindow], adaptive.signals[DegradedRetry], adaptive.signals[DegradedExhausted])
	}
	if adaptive.probes != plain.probes || res.DestTTL != want.DestTTL || !reflect.DeepEqual(res.Paths.Paths(), want.Paths.Paths()) {
		t.Errorf("adaptive run sent %d probes to TTL %d, plain run %d to TTL %d", adaptive.probes, res.DestTTL, plain.probes, want.DestTTL)
	}
	// Hops 1, 10 and 11 answer all six flows; hops 2-9 are dark; hop 12
	// echoes at once.
	if want := 3*6 + 8*8 + 1; adaptive.probes != want {
		t.Errorf("sent %d probes, want %d", adaptive.probes, want)
	}
	if adaptive.signals[SilentWindow] != 8*6 || adaptive.signals[ProbeRetry] != 8*2 || adaptive.signals[RecoveredRetry] != 0 {
		t.Errorf("silent windows %d, retries %d, recovered %d; want 48, 16, 0", adaptive.signals[SilentWindow], adaptive.signals[ProbeRetry], adaptive.signals[RecoveredRetry])
	}
}
