// The zero-alloc assertions run only without -race: the race detector
// instruments allocation sites and perturbs the counts AllocsPerRun sees.
//
//go:build !race

package netsim

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// findEcho locates a destination and TTL whose probe elicits an echo
// reply, so the allocation test covers the reply path (RTT model, default
// TTL, reverse skew), not just the TTL-exceeded path.
func findEcho(t *testing.T, w *World) (iputil.Addr, int) {
	t.Helper()
	for _, b := range w.Blocks() {
		for i := 0; i < 256; i += 3 {
			dst := b.Addr(i)
			for ttl := 1; ttl <= 12; ttl++ {
				if w.Probe(dst, ttl, 0, 1).Kind == EchoReply {
					return dst, ttl
				}
			}
		}
	}
	t.Fatal("no echo-replying destination found")
	return 0, 0
}

// TestProbeZeroAlloc asserts the steady-state probe contract: with
// profiles precomputed, Ping, Probe (both reply kinds, at the unhashed
// access hop and at every hashed hop of the path), ScanPing, and
// ScanBlock perform zero allocations per call.
func TestProbeZeroAlloc(t *testing.T) {
	w := testWorld(t, 60)
	echoDst, echoTTL := findEcho(t, w)
	p, _ := w.popOf(echoDst)
	n := pathLen(p)
	unrouted := iputil.MustParseAddr("223.255.255.7")
	vt := w.Vantage(1)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Probe/ttl-exceeded", func() { w.Probe(echoDst, 1, 2, 1) }},
		{"Probe/core-mid", func() { w.Probe(echoDst, 4, 2, 1) }},
		{"Probe/dest-mid", func() { w.Probe(echoDst, n-2, 2, 1) }},
		{"Probe/dest-mid2", func() { w.Probe(echoDst, n-1, 2, 1) }},
		{"Probe/last-hop", func() { w.Probe(echoDst, n, 2, 1) }},
		{"Probe/echo", func() { w.Probe(echoDst, echoTTL, 0, 1) }},
		{"Probe/unrouted", func() { w.Probe(unrouted, 5, 2, 1) }},
		{"Ping", func() { w.Ping(echoDst, 0) }},
		{"ScanPing", func() { w.ScanPing(echoDst) }},
		{"ScanBlock", func() { w.ScanBlock(echoDst.Block24()) }},
		{"Vantage.Probe", func() { vt.Probe(echoDst, 2, 1, 1) }},
		{"Vantage.Probe/last-hop", func() { vt.Probe(echoDst, n, 1, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
				t.Errorf("%s allocates %.1f times per call, want 0", tc.name, avg)
			}
		})
	}
}
