package monitor_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// TestEpochOutputsStayPut: an epoch's Output must not change after later
// Steps. The monitor carries its aggregation and similarity edges across
// epochs, and validation rewrites the IDs of the blocks it passes
// through, so a later epoch that wrote a block or a member list an
// earlier Output holds would move that Output. Each epoch's encoding is
// taken right after its Step and again after the last one.
func TestEpochOutputsStayPut(t *testing.T) {
	const epochs = 6
	for _, plan := range []string{"churn", "flap"} {
		w, err := api.WorldSpecV1{Blocks: 1500, Scale: 0.05, Seed: netsim.DefaultSeed, FaultPlan: plan}.World()
		if err != nil {
			t.Fatal(err)
		}
		p := &core.Pipeline{
			Net:     probe.NewSimNetwork(w),
			Scanner: w,
			Blocks:  w.Blocks(),
			Seed:    3,
			Options: core.Options{Workers: 4, ValidatePairs: 200},
		}
		m := &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: w}}
		var reps []*monitor.EpochReport
		var first [][]byte
		moved := 0
		for e := 0; e < epochs; e++ {
			rep, err := m.Step(context.Background())
			if err != nil {
				t.Fatalf("plan %q epoch %d: %v", plan, e, err)
			}
			enc := harness.EncodeOutput(rep.Output)
			if e > 0 && !bytes.Equal(enc, first[e-1]) {
				moved++
			}
			reps, first = append(reps, rep), append(first, enc)
		}
		m.Close()
		w.SetFaultEpoch(-1)
		if moved == 0 {
			t.Fatalf("plan %q: no epoch's Output differed from the one before, so nothing was carried", plan)
		}
		for e, rep := range reps {
			if !bytes.Equal(harness.EncodeOutput(rep.Output), first[e]) {
				t.Errorf("plan %q: epoch %d's Output changed after later Steps", plan, e)
			}
		}
	}
}
