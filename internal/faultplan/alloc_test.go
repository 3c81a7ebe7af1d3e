//go:build !race

package faultplan

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

// TestScheduleQueriesZeroAlloc pins the §4e zero-alloc contract on the
// fault path: at built-in plan sizes on a 20k-/24 world, no Schedule
// query allocates. (Excluded under -race, whose instrumentation
// allocates on its own.)
func TestScheduleQueriesZeroAlloc(t *testing.T) {
	cfg := netsim.DefaultConfig(20000)
	cfg.BigBlockScale = 0.05
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := w.Blocks()
	dsts := make([]iputil.Addr, 0, 256)
	pops := make([]int32, 0, 256)
	for i := 0; i < len(blocks); i += len(blocks) / 256 {
		dst := blocks[i].Addr(1)
		dsts = append(dsts, dst)
		if id, ok := w.PopOfAddr(dst); ok {
			pops = append(pops, id)
		}
	}
	for _, name := range []string{"rate-storm", "churn", "blackhole", "flap"} {
		s, err := CompileBuiltin(name, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.events) == 0 {
			t.Fatalf("%s: no events on a 20k-/24 world", name)
		}
		var sink float64
		allocs := testing.AllocsPerRun(20, func() {
			for epoch := 0; epoch < 4; epoch++ {
				for _, dst := range dsts {
					if s.Blackholed(epoch, dst) {
						sink++
					}
					if _, ok := s.FlapKey(epoch, dst.Block24()); ok {
						sink++
					}
				}
				for _, pop := range pops {
					sink += s.RateBoost(epoch, pop)
				}
				sink += s.LossBoost(epoch, 0)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per query sweep, want 0", name, allocs)
		}
		_ = sink
	}
}
