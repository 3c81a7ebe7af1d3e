package main

import (
	"bytes"
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// TestWrapperFidelity runs the pipeline on a churning 2k-/24 world with
// and without the trace wrappers. The wrapped run must produce the same
// final digest and the same deterministic counters: a wrapper that hid
// SetStage or the retry and degradation observers would zero those
// counters without changing the block map. The staged replay must
// reproduce the same digest.
func TestWrapperFidelity(t *testing.T) {
	cfg := netsim.DefaultConfig(2000)
	cfg.BigBlockScale = 0.05
	cfg.Seed = 7
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faultplan.CompileBuiltin("churn", w)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{ValidatePairs: 20000}
	opts.MDA.Adaptive = true
	ctx := context.Background()

	var net, faults layerClock
	run := func(wrapped bool) (string, []byte, *probe.Instrumented) {
		t.Helper()
		reg := telemetry.NewRegistry()
		var clock *layerClock
		if wrapped {
			clock = &net
			w.SetFaults(timedFaults{sched: sched, clock: &faults})
		} else {
			w.SetFaults(sched)
		}
		inst := instrument(w, reg, core.StageMeasure, clock)
		p := &core.Pipeline{Net: inst, Scanner: w, Blocks: w.Blocks(), Seed: 7, Options: opts, StreamChunk: 1024, Telemetry: reg}
		out, err := p.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counters, err := reg.MarshalCounters()
		if err != nil {
			t.Fatal(err)
		}
		return digest(out.Final), counters, inst
	}
	plainDigest, plainCounters, _ := run(false)
	wrappedDigest, wrappedCounters, inst := run(true)
	if plainDigest != wrappedDigest {
		t.Errorf("wrapped run digest %s, plain %s", wrappedDigest, plainDigest)
	}
	if !bytes.Equal(plainCounters, wrappedCounters) {
		t.Errorf("wrapped run counters differ:\nplain   %s\nwrapped %s", plainCounters, wrappedCounters)
	}
	if net.calls.Load() != inst.Pings()+inst.Probes() {
		t.Errorf("timed network saw %d calls, the probe counter %d", net.calls.Load(), inst.Pings()+inst.Probes())
	}
	if faults.calls.Load() == 0 || inst.ProbeRetries() == 0 || inst.DegradedWindows() == 0 {
		t.Errorf("churn run left fault queries %d, probe retries %d, degraded windows %d; want all > 0",
			faults.calls.Load(), inst.ProbeRetries(), inst.DegradedWindows())
	}

	o := newOutcome()
	replayDigest, err := stagedReplay(ctx, nil, "fidelity", layerInput{world: w, sched: sched, seed: 7, opts: opts, chunk: 1024}, o)
	if err != nil {
		t.Fatal(err)
	}
	if replayDigest != plainDigest {
		t.Errorf("staged replay digest %s, Pipeline.Run %s", replayDigest, plainDigest)
	}
	if o.metrics["hobbit.blocks_measured"].Value == 0 || o.metrics["cluster.clusters"].Value == 0 {
		t.Errorf("replay measured nothing: %+v", o.metrics)
	}
}
