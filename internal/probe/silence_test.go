package probe

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// silentNet is a path of distinct routers to a destination at TTL dist,
// on which the router at TTL anon never answers: an anonymous hop. With
// wake set, that router does answer flow wake (a hop that is silent only
// to the flows tried first). With wide set, the router at TTL wide
// balances flows over two interfaces, so MDA sends 11 flows there and
// fills flows 6-10 in at every other TTL. It counts probes per TTL and
// records what the prober reports.
type silentNet struct {
	dist, anon int
	wake       int
	wide       int
	probes     map[int]int
	signals    signalCounts
}

func (s *silentNet) Ping(iputil.Addr, int) (PingResult, bool) {
	return PingResult{RespTTL: 64 - s.dist}, true
}

func (s *silentNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	s.probes[ttl]++
	switch {
	case ttl >= s.dist:
		return Result{Kind: EchoReply}
	case ttl == s.anon && (s.wake < 0 || int(flowID) != s.wake):
		return Result{}
	case ttl == s.wide:
		return Result{Kind: TTLExceeded, From: 0x0a000000 + iputil.Addr(ttl)<<8 + iputil.Addr(flowID%2)}
	default:
		return Result{Kind: TTLExceeded, From: 0x0a000000 + iputil.Addr(ttl)<<8}
	}
}

func (s *silentNet) Observe(sig Signal) { s.signals[sig]++ }

// TestMDASilenceRule pins the probes MDA spends at an anonymous hop. The
// first window there gets its two retries; once it dies with no flow
// answered, every later flow gets one attempt, in the main walk and in
// the path-assembly fill-in alike. A reply at that TTL turns retries
// back on for the flows after it. retryAll is what giving every flow its
// retries would cost there.
func TestMDASilenceRule(t *testing.T) {
	cases := []struct {
		name      string
		wake      int
		wide      int
		atAnon    int // probes sent at the anonymous TTL
		retryAll  int
		retries   int
		silent    int
		recovered int
	}{
		// Six flows: one full window, five single attempts.
		{name: "anonymous", wake: -1, atAnon: 8, retryAll: 18, retries: 2, silent: 6},
		// Flows 0-2 die silent (3+1+1), flow 3 answers its single
		// attempt, and flows 4-5 die with full retries again (3+3).
		{name: "wakes", wake: 3, atAnon: 12, retryAll: 16, retries: 2 + 2*2, silent: 3},
		// The wide hop makes MDA send 11 flows, so the anonymous row
		// (six flows: 3+5) is filled in for flows 6-10 at one attempt
		// each.
		{name: "fill-in", wake: -1, wide: 2, atAnon: 8 + 5, retryAll: 33, retries: 2, silent: 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, adaptive := range []bool{false, true} {
				n := &silentNet{dist: 6, anon: 4, wake: tc.wake, wide: tc.wide, probes: map[int]int{}}
				res := MDA(n, 1, MDAOptions{FirstTTL: 1, MaxTTL: 8, Adaptive: adaptive})
				if !res.DestReached || res.DestTTL != 6 {
					t.Fatalf("adaptive=%v: %+v", adaptive, res)
				}
				if got := n.probes[4]; got != tc.atAnon {
					t.Errorf("adaptive=%v: %d probes at the anonymous TTL, want %d (retrying every flow: %d)",
						adaptive, got, tc.atAnon, tc.retryAll)
				}
				if n.signals[ProbeRetry] != tc.retries || n.signals[SilentWindow] != tc.silent || n.signals[RecoveredRetry] != tc.recovered {
					t.Errorf("adaptive=%v: retries %d, silent windows %d, recovered %d; want %d, %d, %d",
						adaptive, n.signals[ProbeRetry], n.signals[SilentWindow], n.signals[RecoveredRetry], tc.retries, tc.silent, tc.recovered)
				}
				if res.Degraded || n.signals.degraded() != 0 {
					t.Errorf("adaptive=%v: one anonymous hop read as loss: %+v", adaptive, res)
				}
			}
		})
	}
}

// lossyNet answers every probe of a three-hop path except the first
// attempt of each window at TTL 2, which a rate limiter eats: every
// window there is recovered by its first retry. A probe is a first
// attempt when the one before it went to another (TTL, flow).
type lossyNet struct{ last [2]int }

func (*lossyNet) Ping(iputil.Addr, int) (PingResult, bool) { return PingResult{RespTTL: 61}, true }

func (n *lossyNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	first := n.last != [2]int{ttl, int(flowID)}
	n.last = [2]int{ttl, int(flowID)}
	switch {
	case ttl >= 3:
		return Result{Kind: EchoReply}
	case ttl == 2 && first:
		return Result{}
	default:
		return Result{Kind: TTLExceeded, From: 0x0a000000 + iputil.Addr(ttl)}
	}
}

// TestSilenceCounters pins the two silence counters through
// Instrumented and a Batch view on scripted networks: recovered_retries
// counts retransmissions that drew a reply, silent_windows windows that
// died where no flow had answered.
func TestSilenceCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	inst := Instrument(&silentNet{dist: 6, anon: 4, wake: -1, probes: map[int]int{}}, reg, "measure")
	MDA(inst, 1, MDAOptions{FirstTTL: 1, MaxTTL: 8})
	lossy := Instrument(&lossyNet{}, reg, "validate")
	view, flush := Batch(lossy)
	MDA(view, 1, MDAOptions{FirstTTL: 1, MaxTTL: 8})
	flush()
	// The anonymous hop's six windows die silent; each of the lossy
	// hop's six windows loses its probe and recovers on the first retry.
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"flat recovered", inst.RecoveredRetries(), 0},
		{"flat silent", inst.SilentWindows(), 6},
		{"probe.measure.recovered_retries", reg.Counter("probe.measure.recovered_retries").Value(), 0},
		{"probe.measure.silent_windows", reg.Counter("probe.measure.silent_windows").Value(), 6},
		{"batched flat recovered", lossy.RecoveredRetries(), 6},
		{"batched flat silent", lossy.SilentWindows(), 0},
		{"probe.validate.recovered_retries", reg.Counter("probe.validate.recovered_retries").Value(), 6},
		{"probe.validate.probe_retries", reg.Counter("probe.validate.probe_retries").Value(), 6},
		{"probe.validate.silent_windows", reg.Counter("probe.validate.silent_windows").Value(), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
