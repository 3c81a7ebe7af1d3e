//go:build !race

package mcl

import (
	"testing"
)

// TestStepZeroAlloc pins the CSR engine's steady-state contract: once the
// double buffers and scratch have warmed up, a serial expansion +
// inflation round performs no heap allocation at all. The matrix is kept
// below parallelMinColumns so the round takes the serial fallback — the
// path every small similarity-graph component runs — and the engine is
// first driven to convergence so buffer capacities have reached their
// fixed point before counting.
//
// The assertion lives behind !race because the race runtime instruments
// allocations and would report false positives.
func TestStepZeroAlloc(t *testing.T) {
	g := bridgedFamilies(3, 20) // 60 vertices: serial fallback path
	opts := Options{Workers: 1}.withDefaults()
	e := newEngine(g, opts)
	for i := 0; i < maxIter; i++ {
		e.step()
		if delta(&e.nxt, &e.cur) < epsilon {
			break
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %.1f times per round; want 0", allocs)
	}

	// delta itself must also stay off the allocator: it runs once per
	// round over the full matrix pair.
	allocs = testing.AllocsPerRun(50, func() {
		_ = delta(&e.nxt, &e.cur)
	})
	if allocs != 0 {
		t.Fatalf("delta allocates %.1f times per call; want 0", allocs)
	}
}
