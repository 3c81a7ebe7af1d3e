// The allocation assertions run only without -race: the race detector
// instruments allocation sites and perturbs the counts AllocsPerRun sees.
//
//go:build !race

package probe

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// TestProberAllocBudget pins the allocations of one full MDA trace and
// one last-hop search, averaged over one responsive destination in each
// of the first 64 /24s that have one. What is left is the result itself.
// For MDA that is the path set, its slice and a copy of each distinct
// path. For FindLastHops it is the last-hop list alone: its walk builds no
// path set, and a search handed the previous search's list as its buffer
// allocates nothing. The TTL rows, the scratch path and every duplicate
// path cost nothing, and so do counting through a Batch view and each
// last-hop run that ends in an immediate echo.
func TestProberAllocBudget(t *testing.T) {
	w, net := simWorld(t, 300)
	var dsts []iputil.Addr
	for _, b := range w.Blocks() {
		for i := 1; i < 255 && len(dsts) < 64; i++ {
			if a := b.Addr(i); w.RespondsNow(a) {
				dsts = append(dsts, a)
				break
			}
		}
	}
	if len(dsts) < 64 {
		t.Fatalf("only %d responsive destinations", len(dsts))
	}
	batched, flush := Batch(Instrument(net, nil, "measure"))
	defer flush()
	var buf []iputil.Addr
	cases := []struct {
		name   string
		budget float64
		fn     func(dst iputil.Addr)
	}{
		{"MDA", 10, func(dst iputil.Addr) { MDA(net, dst, MDAOptions{}) }},
		{"FindLastHops", 1, func(dst iputil.Addr) { FindLastHops(net, dst, MDAOptions{}, nil) }},
		{"FindLastHops/batched", 1, func(dst iputil.Addr) { FindLastHops(batched, dst, MDAOptions{}, nil) }},
		{"FindLastHops/reused", 0, func(dst iputil.Addr) { buf = FindLastHops(net, dst, MDAOptions{}, buf).LastHops }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(5, func() {
				for _, dst := range dsts {
					tc.fn(dst)
				}
			}) / float64(len(dsts))
			t.Logf("%s allocates %.2f times per destination", tc.name, avg)
			if avg > tc.budget {
				t.Errorf("%s allocates %.2f times per destination, budget %.1f", tc.name, avg, tc.budget)
			}
		})
	}
}

// TestMDAImmediateEchoZeroAlloc pins that an MDA run which sees no router
// hop allocates nothing: FindLastHops' back-off runs one per step.
func TestMDAImmediateEchoZeroAlloc(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() {
		if res := MDA(echoNet{}, 1, MDAOptions{FirstTTL: 12}); !res.ImmediateEcho() || res.Paths.Len() != 0 {
			t.Fatalf("result = %+v", res)
		}
	}); avg != 0 {
		t.Errorf("an immediate-echo MDA run allocates %.1f times, want 0", avg)
	}
}
