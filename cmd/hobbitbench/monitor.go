package main

import (
	"context"
	"fmt"
	"time"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// costEpochs is how many timed epochs (serve: cold campaigns) the probing
// cost averages over.
const costEpochs = 20

// monitorSpec is a continuous-monitoring workload: a churning world
// watched by monitor.Monitor, one timed operation per epoch Step.
type monitorSpec struct {
	blocks int
	scale  float64
	plan   string
	floors harness.Floors
}

// runMonitor bootstraps the monitor (part of setup), then times epoch
// Steps for the budget. Each epoch must stay incremental: never a full
// reprobe, always fewer reprobed blocks than eligible ones.
func runMonitor(ctx context.Context, cfg runConfig, wl string, spec monitorSpec, tr *tracer) (*outcome, layerInput, error) {
	o := newOutcome()
	setup := time.Now()
	universe := cfg.blocksOr(spec.blocks)
	w, err := buildWorld(universe, spec.scale, cfg.seed, o)
	if err != nil {
		return nil, layerInput{}, err
	}
	sched, err := installPlan(w, spec.plan, o)
	if err != nil {
		return nil, layerInput{}, err
	}
	opts := core.Options{ValidatePairs: 20000}
	opts.MDA.Adaptive = true
	p := &core.Pipeline{Scanner: w, Blocks: w.Blocks(), Seed: cfg.seed, Options: opts}
	mon := &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: w}}
	defer mon.Close()

	var net, faults layerClock
	// Each epoch probes through a fresh Instrumented and registry, so
	// its load reads directly off them; the monitor picks up the
	// pipeline's Net and Telemetry at every Step.
	arm := func(traced bool) *probe.Instrumented {
		var clock *layerClock
		if traced {
			clock = &net
		}
		if cfg.trace {
			if traced {
				w.SetFaults(timedFaults{sched: sched, clock: &faults})
			} else {
				w.SetFaults(sched)
			}
		}
		p.Telemetry = telemetry.NewRegistry()
		inst := instrument(w, p.Telemetry, monitor.StageReprobe, clock)
		p.Net = inst
		return inst
	}

	arm(false)
	t0 := time.Now()
	boot, err := mon.Step(ctx)
	if err != nil {
		return nil, layerInput{}, fmt.Errorf("bootstrap epoch: %w", err)
	}
	eligible := len(boot.Output.Eligible)
	o.set("setup.warm_s", time.Since(t0).Seconds(), 1, "bootstrap Step")
	setupRaw := time.Since(setup)

	var times opTimes
	var sim simSamples
	var last, scored *monitor.EpochReport
	var packets, reprobed, changed int64
	var valReused, valTotal, compReused, compTotal int
	epochs, costed := 0, 0
	loop := newLoop(cfg, 3)
	for i := 0; ctx.Err() == nil && loop.next(); i++ {
		traced := cfg.trace && i%2 == 1
		speed, err := cfg.speed.factor()
		if err != nil {
			return nil, layerInput{}, err
		}
		inst := arm(traced)
		n0, f0 := net.read(), faults.read()
		s := tr.start(fmt.Sprintf("%s/epoch-%d", wl, mon.Epoch()), "monitor.Monitor.Step", nil)
		t0, c0 := time.Now(), cpuTime()
		rep, err := mon.Step(ctx)
		d, cpu := time.Since(t0), cpuTime()-c0
		tr.end(s)
		ok := err == nil
		switch {
		case err != nil:
			o.problem("epoch %d: %v", mon.Epoch(), err)
		case rep.All:
			ok = false
			o.problem("epoch %d degraded to a full reprobe", rep.Epoch)
		case rep.Reprobed >= eligible:
			ok = false
			o.problem("epoch %d reprobed %d of %d eligible /24s", rep.Epoch, rep.Reprobed, eligible)
		}
		o.op(ok)
		if !ok {
			continue
		}
		times.add(traced, d, cpu, speed)
		last = rep
		if traced {
			sim.add(tr, s, net.read().sub(n0), faults.read().sub(f0))
			setProbeLayer(o, p.Telemetry, inst, monitor.StageReprobe, monitor.StageValidate)
			continue
		}
		// The probing cost averages a fixed prefix of the epochs and the
		// accuracy is scored at its end, so both depend on the seed alone,
		// not on how many epochs fit the time budget.
		if epochs < costEpochs {
			costed++
			packets += inst.Probes() + inst.Pings()
			scored = rep
		}
		epochs++
		reprobed += int64(rep.Reprobed)
		changed += int64(rep.Changed)
		valReused += rep.ValReused
		valTotal += rep.ValReused + rep.ValRecomputed
		compReused += rep.Cluster.Reused
		compTotal += rep.Cluster.Components
	}
	if last == nil {
		return o, layerInput{}, fmt.Errorf("no epoch of %s completed", wl)
	}
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, layerInput{}, err
	}
	o.set("peak_rss_mb", rss, 1, "VmHWM of this process")
	times.setOpMetrics(o, universe, "universe /24s kept current per second of Step")
	setSetup(o, setupRaw, cfg.speed, "world build, fault plan, bootstrap Step")
	o.set("probes_per_block", float64(packets)/float64(eligible*max(costed, 1)), costed,
		fmt.Sprintf("base: %d eligible /24s x the first %d untraced epochs", eligible, costed))
	if scored == nil {
		scored = last
	}
	scoreOutput(o, spec.plan, w, scored.Output, spec.floors)
	o.setRatio("monitor.reprobe_ratio", newRatio(float64(reprobed), float64(eligible*epochs), "eligible /24s x untraced epochs"))
	o.setRatio("monitor.val_reuse_ratio", newRatio(float64(valReused), float64(valTotal), "cluster validations"))
	o.setRatio("monitor.components_reuse_ratio", newRatio(float64(compReused), float64(compTotal), "components"))
	sim.set(o)
	setServeIdle(o)
	o.extra = append(o.extra,
		fmt.Sprintf("epochs: %d timed after the bootstrap, epoch_s_p50 %.4f s as measured (n=%d), changed /24s per epoch %.1f; speed factor median %.3f",
			loop.n, median(times.plain), len(times.plain), float64(changed)/float64(max(epochs, 1)), median(cfg.speed.factors)))
	return o, layerInput{world: w, sched: sched, seed: cfg.seed, opts: opts, chunk: 1024, want: digest(last.Output.Final)}, nil
}
