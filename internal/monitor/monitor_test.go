package monitor

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// monitorWorld builds a small faulted world plus a pipeline config over
// it, the same shape the harness uses.
func monitorWorld(t *testing.T, plan string) (*netsim.World, *core.Pipeline) {
	t.Helper()
	cfg := netsim.DefaultConfig(200)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		sched, err := faultplan.CompileBuiltin(plan, w)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
	}
	p := &core.Pipeline{
		Net:     probe.NewSimNetwork(w),
		Scanner: w,
		Blocks:  w.Blocks(),
		Seed:    3,
		Options: core.Options{Workers: 4},
	}
	return w, p
}

func TestMonitorConfigErrors(t *testing.T) {
	ctx := context.Background()
	for name, m := range map[string]*Monitor{
		"empty":     {},
		"no source": {Pipeline: &core.Pipeline{}},
		"no net":    {Pipeline: &core.Pipeline{}, Source: &WorldSource{}},
		"no blocks": {Pipeline: &core.Pipeline{Net: probe.NewSimNetwork(nil), Scanner: netsim.MustNew(netsim.DefaultConfig(8))}, Source: &WorldSource{}},
	} {
		if _, err := m.Step(ctx); err == nil {
			t.Errorf("%s: Step accepted a broken config", name)
		}
	}
}

// TestMonitorEpochLoop drives a flap-churned session and checks the
// loop accounting: bootstrap measures everything, later epochs reprobe
// strict subsets, validation and component caches hit, counters tally.
func TestMonitorEpochLoop(t *testing.T) {
	w, p := monitorWorld(t, "flap")
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	var sunk int
	p.ResultSink = func(_ *hobbit.BlockResult) { sunk++ }
	m := &Monitor{Pipeline: p, Source: &WorldSource{W: w}}
	defer m.Close()
	defer w.SetFaultEpoch(-1)

	reps, err := m.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 || m.Epoch() != 4 {
		t.Fatalf("ran %d epochs, Epoch()=%d", len(reps), m.Epoch())
	}
	eligible := len(reps[0].Output.Eligible)
	if !reps[0].All || reps[0].Reprobed != eligible {
		t.Fatalf("bootstrap: All=%v Reprobed=%d eligible=%d", reps[0].All, reps[0].Reprobed, eligible)
	}
	if sunk != 4*eligible {
		t.Errorf("ResultSink saw %d results, want %d", sunk, 4*eligible)
	}
	reusedSomewhere := false
	for _, rep := range reps[1:] {
		if rep.All || rep.Reprobed >= eligible {
			t.Errorf("epoch %d: reprobed %d of %d (All=%v), not incremental", rep.Epoch, rep.Reprobed, eligible, rep.All)
		}
		if rep.Reprobed > rep.Changed {
			t.Errorf("epoch %d: reprobed %d > changed %d", rep.Epoch, rep.Reprobed, rep.Changed)
		}
		if rep.Output == nil || rep.Output.Final == nil {
			t.Fatalf("epoch %d: incomplete output", rep.Epoch)
		}
		if rep.Cluster.Reused > 0 || rep.ValReused > 0 {
			reusedSomewhere = true
		}
	}
	if !reusedSomewhere {
		t.Error("no epoch reused any cluster or validation work")
	}
	snap, err := reg.MarshalCounters()
	if err != nil {
		t.Fatal(err)
	}
	counters := string(snap)
	for _, c := range []string{"monitor.epochs", "monitor.reprobed_blocks", "monitor.validations_reused"} {
		if !strings.Contains(counters, c) {
			t.Errorf("counter %s missing from registry", c)
		}
	}
}

// TestMonitorSkipClustering checks the monitoring loop degrades the
// same way Run does when clustering is off: aggregates pass through.
func TestMonitorSkipClustering(t *testing.T) {
	w, p := monitorWorld(t, "baseline")
	p.SkipClustering = true
	m := &Monitor{Pipeline: p, Source: &WorldSource{W: w}}
	defer m.Close()
	defer w.SetFaultEpoch(-1)
	reps, err := m.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		out := rep.Output
		if out.Clustering != nil || out.Validations != nil {
			t.Fatalf("epoch %d: clustering artifacts present with SkipClustering", rep.Epoch)
		}
		if !reflect.DeepEqual(out.Final, out.Aggregates) {
			t.Fatalf("epoch %d: Final != Aggregates", rep.Epoch)
		}
	}
}

func TestMonitorContextCancel(t *testing.T) {
	w, p := monitorWorld(t, "baseline")
	m := &Monitor{Pipeline: p, Source: &WorldSource{W: w}}
	defer m.Close()
	defer w.SetFaultEpoch(-1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Step(ctx); err == nil {
		t.Fatal("Step ignored a cancelled context")
	}
}

func TestWorldSourcePins(t *testing.T) {
	w := netsim.MustNew(netsim.DefaultConfig(8))
	s := &WorldSource{W: w}
	s.Advance(5)
	if got := w.FaultEpoch(); got != 5 {
		t.Fatalf("FaultEpoch=%d after Advance(5)", got)
	}
	w.SetFaultEpoch(-1)
	if blocks, all := s.Changed(0, 1); blocks != nil || all {
		t.Fatalf("faultless world Changed=(%v,%v), want empty", blocks, all)
	}
}
