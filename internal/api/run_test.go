package api

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// smallWorld is small enough that a campaign over it takes tens of
// milliseconds, so these tests run under -short too.
var smallWorld = WorldSpecV1{Blocks: 200, Scale: 0.02, Seed: 7}

func TestWorld(t *testing.T) {
	spec := smallWorld
	spec.FaultPlan, spec.Epoch = "blackhole", 3
	w, err := spec.World()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Blocks()) != spec.Blocks || w.Config().Seed != spec.Seed || w.Config().BigBlockScale != spec.Scale {
		t.Errorf("world has %d blocks, seed %#x, scale %v; want the spec's %+v",
			len(w.Blocks()), w.Config().Seed, w.Config().BigBlockScale, spec)
	}
	sched, ok := w.Faults().(*faultplan.Schedule)
	if !ok || sched.Name() != "blackhole" || len(sched.Events()) == 0 {
		t.Errorf("installed faults = %#v, want the blackhole plan", w.Faults())
	}
	if w.Epoch() != 3 {
		t.Errorf("epoch = %d, want 3", w.Epoch())
	}

	clean, err := smallWorld.World()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults() != nil || clean.Epoch() != 0 {
		t.Errorf("clean spec built faults %v at epoch %d", clean.Faults(), clean.Epoch())
	}

	for name, bad := range map[string]WorldSpecV1{
		"unknown plan":   {Blocks: 200, Scale: 0.02, FaultPlan: "meteor-strike"},
		"empty universe": {Scale: 0.02},
	} {
		if _, err := bad.World(); err == nil {
			t.Errorf("%s: World() succeeded", name)
		}
	}
}

// handWired runs r the way each front end wired a campaign before Run
// existed, and returns the probing surface it counted on.
func handWired(t *testing.T, r SubmitRequestV1) *probe.Instrumented {
	t.Helper()
	w, err := r.World.World()
	if err != nil {
		t.Fatal(err)
	}
	net := probe.Instrument(probe.NewSimNetwork(w), nil, core.StageMeasure)
	p := &core.Pipeline{Net: net, Scanner: w, Blocks: w.Blocks(), Seed: r.World.Seed, Options: r.Options}
	if r.MonitorEpochs > 0 {
		mon := &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: w}}
		defer mon.Close()
		_, err = mon.Run(context.Background(), r.MonitorEpochs+1)
	} else {
		_, err = p.Run(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRun pins Run's summary to BuildRunSummaryV1 over the output and
// the telemetry Run returns, with the probe totals of a hand-wired run
// of the same campaign, for a plain and a monitoring request.
func TestRun(t *testing.T) {
	for _, r := range []SubmitRequestV1{
		{World: WorldSpecV1{Blocks: 200, Scale: 0.02, Seed: 5, FaultPlan: "rate-storm"}},
		{World: WorldSpecV1{Blocks: 200, Scale: 0.02, Seed: 9, FaultPlan: "churn"}, MonitorEpochs: 2},
	} {
		w, err := r.World.World()
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		c, err := r.Run(context.Background(), w, core.Pipeline{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		wantReports := 0
		if r.MonitorEpochs > 0 {
			wantReports = r.MonitorEpochs + 1
		}
		if len(c.Reports) != wantReports {
			t.Errorf("%s: %d epoch reports, want %d", r.World.FaultPlan, len(c.Reports), wantReports)
		}
		want := BuildRunSummaryV1(len(w.Blocks()), r.World.FaultPlan, c.Output, handWired(t, r), reg)
		want.Monitor = BuildMonitorSummaryV1(c.Reports)
		if !reflect.DeepEqual(c.Summary, want) {
			t.Errorf("%s: summary\n%+v\nwant\n%+v", r.World.FaultPlan, c.Summary, want)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, epochs := range []int{0, 2} {
		w, err := smallWorld.World()
		if err != nil {
			t.Fatal(err)
		}
		r := SubmitRequestV1{World: smallWorld, MonitorEpochs: epochs}
		if _, err := r.Run(ctx, w, core.Pipeline{}); !errors.Is(err, context.Canceled) {
			t.Errorf("monitor_epochs=%d: err = %v, want context.Canceled", epochs, err)
		}
	}
}
