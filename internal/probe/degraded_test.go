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
// must not read as loss. It counts probes and implements Observer to
// record what the prober reports.
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
type signalCounts [DegradedWindow + 1]int

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

// lossySpan is a 12-hop path whose hops 2-9 answer flow 0 only.
func lossySpan() *faultyNet {
	return &faultyNet{dist: 12, respTTL: 52, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 2, faultHi: 9}
}

// lossyLastHops is a 12-hop path whose hops 7-10 answer flow 0 only; its
// echo TTL puts FindLastHops' first walk at hop 7.
func lossyLastHops() *faultyNet {
	return &faultyNet{dist: 12, respTTL: 56, lastHop: 0x64000001, midBase: 0x63000000, faultLo: 7, faultHi: 10}
}

// TestAdaptiveIgnored pins that the v1 wire's Adaptive fields change no
// packet: on a lossy span that degrades the run, every spelling of them
// sends the probes, reports the signals and returns the MDA and
// FindLastHops results of the zero options.
func TestAdaptiveIgnored(t *testing.T) {
	type outcome struct {
		mda      MDAResult
		lastHops LastHopResult
		probes   int
		signals  signalCounts
	}
	run := func(opts MDAOptions) outcome {
		n, l := lossySpan(), lossyLastHops()
		mdaOpts := opts
		mdaOpts.FirstTTL, mdaOpts.MaxTTL = 1, 16
		o := outcome{mda: MDA(n, 1, mdaOpts), lastHops: FindLastHops(l, 1, opts)}
		o.probes = n.probes + l.probes
		for s := range o.signals {
			o.signals[s] = n.signals[s] + l.signals[s]
		}
		return o
	}
	want := run(MDAOptions{})
	if !want.mda.Degraded || !want.lastHops.Degraded {
		t.Fatalf("the fixture does not degrade: MDA %+v, FindLastHops %+v", want.mda, want.lastHops)
	}
	for _, opts := range []MDAOptions{
		{Adaptive: true},
		{Adaptive: true, AdaptiveBudget: 5},
		{AdaptiveBudget: -1},
	} {
		if got := run(opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: sent %d probes with signals %v, the zero options %d with %v; results equal: MDA %v, FindLastHops %v",
				opts, got.probes, got.signals, want.probes, want.signals,
				reflect.DeepEqual(got.mda, want.mda), reflect.DeepEqual(got.lastHops, want.lastHops))
		}
	}
}

// TestAdaptiveEscalates pins the degradation state machine with
// escalation retired: a lossy span whose dead windows cross the streak
// threshold marks the run degraded and records the degraded window once,
// and an Adaptive run, which once spent escalated retries there, sends
// the plain run's probes and reports its signals.
func TestAdaptiveEscalates(t *testing.T) {
	plain, adaptive := lossySpan(), lossySpan()
	MDA(plain, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16})
	res := MDA(adaptive, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16, Adaptive: true})
	if !res.Degraded {
		t.Fatal("eight lossy hops did not mark the run degraded")
	}
	if adaptive.signals[DegradedWindow] != 1 {
		t.Errorf("degraded window recorded %d times, want 1", adaptive.signals[DegradedWindow])
	}
	if adaptive.signals[ProbeRetry] == 0 {
		t.Error("no retries recorded on a lossy span")
	}
	if adaptive.probes != plain.probes || adaptive.signals != plain.signals {
		t.Errorf("adaptive run sent %d probes with signals %v, plain %d with %v: escalation still runs",
			adaptive.probes, adaptive.signals, plain.probes, plain.signals)
	}
}

// TestFindLastHopsPropagatesDegradation pins that the back-off loop ORs
// degradation flags across its MDA runs into the LastHopResult.
func TestFindLastHopsPropagatesDegradation(t *testing.T) {
	// respTTL 56 -> estimate 8 -> firstTTL 7, right at the start of the
	// lossy span [7, 10]: every flow but the first loses its window
	// there, so the MDA run degrades on the first hop, before the clean
	// hop at 11 and the echo at 12, and the flag must survive into the
	// LastHopResult.
	res := FindLastHops(lossyLastHops(), 1, MDAOptions{})
	if !res.Responded || !res.Degraded {
		t.Fatalf("degradation lost by FindLastHops: %+v", res)
	}
}

// TestFindLastHopsSentinels pins that FindLastHops honours the negative
// Retries sentinel as MDA does: Retries -1 sends no retransmission, on
// the lossy fixture where the defaults send some.
func TestFindLastHopsSentinels(t *testing.T) {
	def := lossyLastHops()
	FindLastHops(def, 1, MDAOptions{})
	if def.signals[ProbeRetry] == 0 {
		t.Fatal("defaults sent no retransmission: the fixture exercises nothing")
	}

	single := lossyLastHops()
	if res := FindLastHops(single, 1, MDAOptions{Retries: -1}); !res.Responded {
		t.Fatalf("single-shot run: %+v", res)
	}
	if single.signals[ProbeRetry] != 0 {
		t.Errorf("Retries -1 sent %d retransmissions, want 0", single.signals[ProbeRetry])
	}
}

// TestInstrumentedDegradedCounters pins loss detection and its telemetry:
// a lossy span whose dead windows cross the streak threshold marks the
// run degraded exactly once, under the active stage's degraded_windows
// counter, and the run sends exactly the packets of the one retry
// policy. Hop 1 and hops 10-11 answer all six flows; each lossy hop
// spends flow 0's probe and three attempts for each of flows 1-5; hop 12
// echoes at once.
func TestInstrumentedDegradedCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	inner := lossySpan()
	net := Instrument(inner, reg, "measure")
	res := MDA(net, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16})
	if !res.Degraded || res.DestTTL != 12 {
		t.Fatalf("eight lossy hops: %+v", res)
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"DegradedWindows", net.DegradedWindows(), 1},
		{"probe.measure.degraded_windows", reg.Counter("probe.measure.degraded_windows").Value(), 1},
		{"Probes", net.Probes(), 3*6 + 8*(1+5*3) + 1},
		{"ProbeRetries", net.ProbeRetries(), 8 * 5 * 2},
		{"DegradedRetries", net.DegradedRetries(), 0},
		{"DegradedExhausted", net.DegradedExhausted(), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestDarkSpanNotDegraded pins that silence is not loss: a span where no
// flow ever answers is a run of anonymous routers, so a run over it
// marks nothing degraded. Each dark hop costs one full window and five
// single attempts: 8 probes, where retrying every flow cost 18.
func TestDarkSpanNotDegraded(t *testing.T) {
	n := lossySpan()
	n.dark = true
	res := MDA(n, 1, MDAOptions{FirstTTL: 1, MaxTTL: 16})
	if res.Degraded || n.signals[DegradedWindow] != 0 {
		t.Fatalf("dark span marked the run degraded: %+v, %d degraded windows", res, n.signals[DegradedWindow])
	}
	// Hops 1, 10 and 11 answer all six flows; hops 2-9 are dark; hop 12
	// echoes at once.
	if want := 3*6 + 8*8 + 1; n.probes != want || res.DestTTL != 12 {
		t.Errorf("sent %d probes to TTL %d, want %d to TTL 12", n.probes, res.DestTTL, want)
	}
	if n.signals[SilentWindow] != 8*6 || n.signals[ProbeRetry] != 8*2 || n.signals[RecoveredRetry] != 0 {
		t.Errorf("silent windows %d, retries %d, recovered %d; want 48, 16, 0", n.signals[SilentWindow], n.signals[ProbeRetry], n.signals[RecoveredRetry])
	}
}
