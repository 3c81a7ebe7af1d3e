//go:build !race

package mcl

import (
	"fmt"
	"testing"
)

// TestStepZeroAlloc pins the CSR engine's steady-state contract: once the
// double buffers and scratch have warmed up, an expansion + inflation
// round performs no heap allocation at all, on a small component and on
// one larger than any workload's. Each engine is first driven to
// convergence so buffer capacities have reached their fixed point before
// counting.
//
// The assertion lives behind !race because the race runtime instruments
// allocations and would report false positives.
func TestStepZeroAlloc(t *testing.T) {
	for _, shape := range []struct{ families, size int }{{3, 20}, {8, 32}} {
		g := bridgedFamilies(shape.families, shape.size)
		t.Run(fmt.Sprintf("%d-vertices", g.Len()), func(t *testing.T) {
			e := newEngine(g, Options{}.withDefaults())
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

			// delta itself must also stay off the allocator: it runs once
			// per round over the full matrix pair.
			allocs = testing.AllocsPerRun(50, func() {
				_ = delta(&e.nxt, &e.cur)
			})
			if allocs != 0 {
				t.Fatalf("delta allocates %.1f times per call; want 0", allocs)
			}
		})
	}
}
