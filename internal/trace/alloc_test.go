// The allocation assertions run only without -race: the race detector
// instruments allocation sites and perturbs the counts AllocsPerRun sees.
//
//go:build !race

package trace

import "testing"

// TestPathSetAddDuplicateZeroAlloc asserts that adding a path the set
// already holds allocates nothing: MDA offers one path per flow it used,
// and most flows repeat a path already kept.
func TestPathSetAddDuplicateZeroAlloc(t *testing.T) {
	s := NewPathSet(
		mkPath("10.0.0.1", "10.0.1.1", "10.0.2.1"),
		mkPath("10.0.0.1", "10.0.1.2", "*"),
		mkPath("10.0.0.1", "10.0.1.3", "10.0.2.1"),
	)
	dup := mkPath("10.0.0.1", "10.0.1.2", "*")
	if avg := testing.AllocsPerRun(200, func() {
		if s.Add(dup) {
			t.Fatal("duplicate path inserted")
		}
	}); avg != 0 {
		t.Errorf("PathSet.Add of a duplicate allocates %.1f times per call, want 0", avg)
	}
}
