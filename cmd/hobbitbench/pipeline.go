package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// traceOut is where a traced run writes its spans.
	traceOut string
	// hobbitd is the daemon binary the serve workload starts.
	hobbitd string
	// blocks and ops shrink a workload to toy size (tests): blocks
	// replaces its universe size, ops fixes the number of timed
	// operations instead of filling the time budget.
	blocks int
	ops    int
	// speed scales timed quantities to the calibration host's speed.
	speed *speedProbe
}

func (c runConfig) blocksOr(n int) int {
	if c.blocks > 0 {
		return c.blocks
	}
	return n
}

// opLoop decides how many timed operations a run makes: a fixed count
// when ops is set, otherwise as many as start within the time budget,
// and never fewer than min, so medians always have samples.
type opLoop struct {
	start  time.Time
	budget time.Duration
	min    int
	fixed  int
	n      int
}

func newLoop(cfg runConfig, min int) *opLoop {
	return &opLoop{start: time.Now(), budget: time.Duration(cfg.seconds * float64(time.Second)), min: min, fixed: cfg.ops}
}

func (l *opLoop) next() bool {
	more := l.n < l.min || time.Since(l.start) < l.budget
	if l.fixed > 0 {
		more = l.n < l.fixed
	}
	if more {
		l.n++
	}
	return more
}

// elapsed is the wall time since the loop started.
func (l *opLoop) elapsed() time.Duration { return time.Since(l.start) }

// opTimes collects per-operation seconds: the untraced operations the
// end-to-end metrics use (as measured, and scaled to the calibration
// host's speed) and the traced ones a traced run interleaves with them.
type opTimes struct {
	plain, scaled, traced, cpu []float64
}

func (t *opTimes) add(traced bool, d, cpu time.Duration, speed float64) {
	if traced {
		t.traced = append(t.traced, d.Seconds())
		return
	}
	t.plain = append(t.plain, d.Seconds())
	t.scaled = append(t.scaled, d.Seconds()*speed)
	t.cpu = append(t.cpu, cpu.Seconds())
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// setOpMetrics records the metrics every workload derives from its
// timed operations: the median latency and the /24 throughput (each
// operation covering blocksPerOp /24s), CPU per operation, and the
// tracing overhead.
func (t *opTimes) setOpMetrics(o *outcome, blocksPerOp int, what string) {
	n := len(t.plain)
	o.set("run_ms_p50", 1000*median(t.scaled), n, "at calibration-host speed")
	o.set("blocks_per_s", float64(blocksPerOp*n)/sum(t.scaled), n, what+", at calibration-host speed")
	o.set("core.cpu_s_per_op", median(t.cpu), len(t.cpu), "median process CPU per untraced operation")
	if len(t.traced) > 0 {
		o.setRatio("trace.overhead_ratio", newRatio(median(t.traced), median(t.plain), "untraced median seconds"))
	}
	q1, q3 := quartiles(t.plain)
	o.extra = append(o.extra, fmt.Sprintf("operation seconds as measured: q1 %.4f, median %.4f, q3 %.4f, min %.4f (n=%d); CPU seconds median %.4f",
		q1, median(t.plain), q3, slices.Min(t.plain), n, median(t.cpu)))
}

// setSetup records setup_s once the run is over: the setup wall time
// scaled by the median of every speed factor the run took, since one
// timing of the reference loop alone is too noisy to scale by.
func setSetup(o *outcome, raw time.Duration, sp *speedProbe, what string) {
	speed := median(sp.factors)
	o.set("setup_s", raw.Seconds()*speed, 1, fmt.Sprintf("%s; %.3fs as measured, speed factor %.3f", what, raw.Seconds(), speed))
}

// buildWorld builds the synthetic world the way cmd/hobbit does: the
// universe size, aggregate scale, and seed from the command line.
func buildWorld(blocks int, scale float64, seed uint64, o *outcome) (*netsim.World, error) {
	cfg := netsim.DefaultConfig(blocks)
	cfg.BigBlockScale = scale
	cfg.Seed = seed
	t0 := time.Now()
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	o.set("netsim.world_build_s", time.Since(t0).Seconds(), 1, "")
	return w, nil
}

// installPlan compiles a built-in fault plan against the world and
// injects it; "" leaves the world clean.
func installPlan(w *netsim.World, plan string, o *outcome) (*faultplan.Schedule, error) {
	if plan == "" {
		o.set("faultplan.events", 0, 1, "clean world")
		return nil, nil
	}
	sched, err := faultplan.CompileBuiltin(plan, w)
	if err != nil {
		return nil, err
	}
	w.SetFaults(sched)
	o.set("faultplan.events", float64(len(sched.Events())), 1, plan)
	return sched, nil
}

// scoreOutput checks a run against the world's ground truth and the
// workload's accuracy floors, and records the accuracy metrics.
func scoreOutput(o *outcome, plan string, w *netsim.World, out *core.Output, floors harness.Floors) {
	r := harness.Score(plan, w, out)
	o.set("precision", r.Precision, r.TP+r.FP, fmt.Sprintf("base: %d homogeneous verdicts", r.TP+r.FP))
	o.set("recall", r.Recall, r.TP+r.FN, fmt.Sprintf("base: %d truly homogeneous blocks", r.TP+r.FN))
	o.set("purity", r.Purity, r.MultiBlocks, fmt.Sprintf("base: %d multi-/24 final blocks", r.MultiBlocks))
	if err := r.Check(floors); err != nil {
		o.problem("accuracy: %v", err)
	}
}

// setProbeLayer records the probing load of one traced operation,
// attributed to the measurement and validation stages.
func setProbeLayer(o *outcome, reg *telemetry.Registry, inst *probe.Instrumented, measure, validate string) {
	c := reg.Snapshot().Counters
	o.set("probe.measure.probes", float64(c["probe."+measure+".probes"]), 1, "stage "+measure)
	o.set("probe.measure.pings", float64(c["probe."+measure+".pings"]), 1, "stage "+measure)
	o.set("probe.validate.probes", float64(c["probe."+validate+".probes"]), 1, "stage "+validate)
	o.set("probe.validate.pings", float64(c["probe."+validate+".pings"]), 1, "stage "+validate)
	retries := inst.PingRetries() + inst.ProbeRetries()
	o.setRatio("probe.retry_ratio", newRatio(float64(retries), float64(inst.Pings()+inst.Probes()), "packets"))
	o.set("probe.degraded_windows", float64(inst.DegradedWindows()), 1, "")
	o.set("probe.degraded_retries", float64(inst.DegradedRetries()), 1, "")
	o.set("probe.degraded_exhausted", float64(inst.DegradedExhausted()), 1, "")
}

// simSamples holds, per traced operation, the simulator and fault-plan
// calls and the busy time spent inside them.
type simSamples struct {
	calls, busy, queries, faultBusy []float64
}

// add records one traced operation's clock deltas, on its span too.
func (m *simSamples) add(tr *tracer, s *span, net, faults clockReading) {
	tr.attr(s, "netsim_calls", net.calls)
	tr.attr(s, "netsim_busy_ns", net.busy)
	tr.attr(s, "faultplan_queries", faults.calls)
	tr.attr(s, "faultplan_busy_ns", faults.busy)
	m.calls = append(m.calls, float64(net.calls))
	m.busy = append(m.busy, time.Duration(net.busy).Seconds())
	m.queries = append(m.queries, float64(faults.calls))
	m.faultBusy = append(m.faultBusy, time.Duration(faults.busy).Seconds())
}

// set records the per-operation medians.
func (m *simSamples) set(o *outcome) {
	n := len(m.calls)
	if n == 0 {
		return
	}
	o.set("netsim.calls", median(m.calls), n, "per traced operation")
	o.set("netsim.busy_s", median(m.busy), n, "summed over workers, per traced operation")
	o.set("netsim.ns_per_call", 1e9*median(m.busy)/median(m.calls), n, "")
	o.set("faultplan.queries", median(m.queries), n, "per traced operation")
	o.setRatio("faultplan.busy_share", newRatio(median(m.faultBusy), median(m.busy), "netsim busy seconds"))
}

// pipelineSpec is a full-run workload: one world, optionally faulted,
// measured end to end by repeated core.Pipeline.Run calls.
type pipelineSpec struct {
	blocks int
	scale  float64
	plan   string
	chunk  int
	floors harness.Floors
}

// runPipeline builds the world, runs one untimed warm-up rep (part of
// setup), then times Pipeline.Run reps for the budget. Every rep must
// reproduce the warm-up's final digest.
func runPipeline(ctx context.Context, cfg runConfig, wl string, spec pipelineSpec, tr *tracer) (*outcome, layerInput, error) {
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
	// Options match cmd/hobbit: validation capped at the paper's 20,000
	// pairs, and a fault plan turns adaptive probing on.
	opts := core.Options{ValidatePairs: 20000}
	opts.MDA.Adaptive = sched != nil

	type repOut struct {
		out  *core.Output
		inst *probe.Instrumented
		reg  *telemetry.Registry
		d    time.Duration
		cpu  time.Duration
	}
	var net, faults layerClock
	rep := func(traced bool) (repOut, error) {
		reg := telemetry.NewRegistry()
		var clock *layerClock
		if traced {
			clock = &net
		}
		if sched != nil && cfg.trace {
			// Both arms of a traced run swap the fault view, so both
			// start from the cold route cache SetFaults leaves behind.
			if traced {
				w.SetFaults(timedFaults{sched: sched, clock: &faults})
			} else {
				w.SetFaults(sched)
			}
		}
		inst := instrument(w, reg, core.StageMeasure, clock)
		p := &core.Pipeline{
			Net: inst, Scanner: w, Blocks: w.Blocks(), Seed: cfg.seed,
			Options: opts, StreamChunk: spec.chunk, Telemetry: reg,
		}
		t0, c0 := time.Now(), cpuTime()
		out, err := p.Run(ctx)
		return repOut{out: out, inst: inst, reg: reg, d: time.Since(t0), cpu: cpuTime() - c0}, err
	}

	warm, err := rep(false)
	if err != nil {
		return nil, layerInput{}, fmt.Errorf("warm-up run: %w", err)
	}
	want := digest(warm.out.Final)
	o.set("setup.warm_s", warm.d.Seconds(), 1, "untimed warm-up Pipeline.Run")
	setupRaw := time.Since(setup)

	var times opTimes
	var sim simSamples
	var last repOut
	loop := newLoop(cfg, 3)
	for i := 0; ctx.Err() == nil && loop.next(); i++ {
		traced := cfg.trace && i%2 == 1
		// Every rep starts from a collected heap, as a fresh CLI run
		// would, so one rep's garbage does not bill the next.
		runtime.GC()
		speed, err := cfg.speed.factor()
		if err != nil {
			return nil, layerInput{}, err
		}
		n0, f0 := net.read(), faults.read()
		s := tr.start(fmt.Sprintf("%s/rep-%d", wl, i), "core.Pipeline.Run", nil)
		r, err := rep(traced)
		tr.end(s)
		ok := err == nil
		if err != nil {
			o.problem("rep %d: %v", i, err)
		} else if got := digest(r.out.Final); got != want {
			ok = false
			o.problem("rep %d: final digest %.12s differs from the warm-up's %.12s", i, got, want)
		}
		o.op(ok)
		if !ok {
			continue
		}
		times.add(traced, r.d, r.cpu, speed)
		last = r
		if traced {
			sim.add(tr, s, net.read().sub(n0), faults.read().sub(f0))
			setProbeLayer(o, r.reg, r.inst, core.StageMeasure, core.StageValidate)
		}
	}
	if last.out == nil {
		return o, layerInput{}, fmt.Errorf("no rep of %s completed", wl)
	}
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, layerInput{}, err
	}
	o.set("peak_rss_mb", rss, 1, "VmHWM of this process")
	times.setOpMetrics(o, universe, "universe /24s per second of Pipeline.Run")
	setSetup(o, setupRaw, cfg.speed, "world build, fault plan, warm-up run")
	eligible := len(last.out.Eligible)
	o.set("probes_per_block", float64(last.inst.Probes()+last.inst.Pings())/float64(eligible), 1,
		fmt.Sprintf("base: %d eligible /24s, validation included", eligible))
	scoreOutput(o, spec.plan, w, last.out, spec.floors)
	sim.set(o)
	setMonitorIdle(o)
	setServeIdle(o)
	o.extra = append(o.extra, fmt.Sprintf("reps: %d timed (+1 warm-up), %.2fs timed wall; speed factor median %.3f",
		loop.n, loop.elapsed().Seconds(), median(cfg.speed.factors)))
	return o, layerInput{world: w, sched: sched, seed: cfg.seed, opts: opts, chunk: spec.chunk, want: want}, nil
}
