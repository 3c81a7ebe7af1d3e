//go:build !race

package aggregate

import "testing"

// TestInternHitZeroAlloc pins the interner's lookup: a set already
// interned is found through the reused key buffer, so presenting it
// again allocates nothing. The carried aggregation and the merge step
// intern every set they meet, and most are hits.
//
// The assertion lives behind !race because the race runtime instruments
// allocations and would report false positives.
func TestInternHitZeroAlloc(t *testing.T) {
	in := NewInterner()
	set := hops("10.0.0.1", "10.0.0.2", "10.0.0.3")
	in.Intern(set)
	allocs := testing.AllocsPerRun(100, func() {
		in.Intern(set)
	})
	if allocs != 0 {
		t.Fatalf("interning a known set allocates %.1f times; want 0", allocs)
	}
}
