package probe

import (
	"slices"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// scriptedNet is a hand-built Network for exercising the first_ttl
// inference and back-off logic in isolation: one destination at a fixed
// distance behind a known last hop, with a configurable echo-reply TTL.
type scriptedNet struct {
	dist     int // TTL at which the destination answers
	respTTL  int // TTL field of the echo reply
	lastHop  iputil.Addr
	midBase  iputil.Addr
	probeLog []int // TTLs probed, in order
}

func (s *scriptedNet) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	return PingResult{RespTTL: s.respTTL}, true
}

func (s *scriptedNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	s.probeLog = append(s.probeLog, ttl)
	switch {
	case ttl >= s.dist:
		return Result{Kind: EchoReply}
	case ttl == s.dist-1:
		return Result{Kind: TTLExceeded, From: s.lastHop}
	default:
		return Result{Kind: TTLExceeded, From: s.midBase + iputil.Addr(ttl)}
	}
}

func TestFindLastHopsExactEstimate(t *testing.T) {
	// defaultTTL 64, reverse distance = forward distance = 10:
	// respTTL 54 -> estimate 10 -> first_ttl 9 = the last-hop position.
	n := &scriptedNet{dist: 10, respTTL: 54, lastHop: 0x64000001, midBase: 0x63000000}
	res := FindLastHops(n, 1, MDAOptions{}, nil)
	if !res.Responded || len(res.LastHops) != 1 || res.LastHops[0] != n.lastHop {
		t.Fatalf("result = %+v", res)
	}
	if res.DestTTL != 10 {
		t.Errorf("DestTTL = %d", res.DestTTL)
	}
	// Efficiency: no probe below the inferred starting TTL.
	for _, ttl := range n.probeLog {
		if ttl < 9 {
			t.Fatalf("probed ttl %d below first_ttl 9", ttl)
		}
	}
}

// TestFindLastHopsOverestimateBacksOff walks an overestimate of D hops
// through the back-off: with the destination at TTL 20 (last hop at 19)
// and first_ttl 19+D, the runs start at 19+D, 18+D, …, 19, so exactly D
// of them end in an immediate echo and no probe lands below the last
// hop. A destination one hop away stops the back-off at TTL 1.
func TestFindLastHopsOverestimateBacksOff(t *testing.T) {
	const dist = 20
	mk := func(dist, firstTTL int) *scriptedNet {
		// defaultTTL 64: respTTL r -> estimate 64-r -> first_ttl 63-r.
		return &scriptedNet{dist: dist, respTTL: 63 - firstTTL, lastHop: 0x64000001, midBase: 0x63000000}
	}
	// immediateEchoes counts the runs in log that end at their first
	// probe, which is then an echo: every run ends at its first echo
	// (scriptedNet answers every probe, so no fill-in follows it), and
	// a run whose first probe is that echo saw no router hop.
	immediateEchoes := func(log []int, dist int) int {
		immediate, runLen := 0, 0
		for _, ttl := range log {
			runLen++
			if ttl >= dist {
				if runLen == 1 {
					immediate++
				}
				runLen = 0
			}
		}
		return immediate
	}
	opts := MDAOptions{MaxTTL: 64}
	exact := FindLastHops(mk(dist, dist-1), 1, opts, nil)
	if !exact.Responded || !slices.Equal(exact.LastHops, []iputil.Addr{0x64000001}) {
		t.Fatalf("exact estimate: %+v", exact)
	}
	for d := 1; d <= 40; d++ {
		n := mk(dist, dist-1+d)
		res := FindLastHops(n, 1, opts, nil)
		if res.Responded != exact.Responded || res.DestTTL != exact.DestTTL || !slices.Equal(res.LastHops, exact.LastHops) {
			t.Errorf("D=%d: result %+v, want the exact estimate's %+v", d, res, exact)
		}
		if got := immediateEchoes(n.probeLog, dist); got != d {
			t.Errorf("D=%d: %d runs ended in an immediate echo, want %d: %v", d, got, d, n.probeLog)
		}
		if lowest := slices.Min(n.probeLog); lowest != dist-1 {
			t.Errorf("D=%d: lowest probed TTL %d, want the last hop's %d", d, lowest, dist-1)
		}
	}

	// One hop away every TTL from first_ttl 5 down to 1 echoes at once,
	// and the run at TTL 1 is the answer: no router hop, no probe below.
	n := mk(1, 5)
	res := FindLastHops(n, 1, opts, nil)
	if !res.Responded || res.DestTTL != 1 || len(res.LastHops) != 0 {
		t.Errorf("one hop away: %+v", res)
	}
	if got := immediateEchoes(n.probeLog, 1); got != 5 || slices.Min(n.probeLog) != 1 {
		t.Errorf("one hop away: probed %v, want TTLs 5 down to 1, one echo each", n.probeLog)
	}
}

func TestFindLastHopsUnderestimateWalks(t *testing.T) {
	// Reverse path shorter: estimate 7 -> first_ttl 6 -> MDA walks
	// through intermediate routers to the last hop ("find some more
	// routers than the last hop").
	n := &scriptedNet{dist: 10, respTTL: 57, lastHop: 0x64000001, midBase: 0x63000000}
	res := FindLastHops(n, 1, MDAOptions{}, nil)
	if !res.Responded {
		t.Fatal("did not respond")
	}
	// The walk crosses the intermediate routers, but the last hop is
	// still the true one.
	if len(res.LastHops) != 1 || res.LastHops[0] != n.lastHop {
		t.Fatalf("last hops = %v", res.LastHops)
	}
	// One run: TTLs 6 to 9 each answer six flows, and TTL 10 echoes.
	want := []int{6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 10}
	if !slices.Equal(n.probeLog, want) {
		t.Errorf("probed TTLs %v, want a walk from 6 through the last hop at 9: %v", n.probeLog, want)
	}
}

// deadAfterPing answers pings but never answers probes (a destination that
// died mid-measurement).
type deadAfterPing struct{}

func (deadAfterPing) Ping(iputil.Addr, int) (PingResult, bool) { return PingResult{RespTTL: 54}, true }
func (deadAfterPing) Probe(iputil.Addr, int, uint16, uint32) Result {
	return Result{}
}

func TestFindLastHopsDiesMidMeasurement(t *testing.T) {
	res := FindLastHops(deadAfterPing{}, 1, MDAOptions{MaxTTL: 12}, nil)
	if res.Responded {
		t.Errorf("dest that never echoes should not count as responded: %+v", res)
	}
}
