package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// digest fingerprints a run's final block map: every final block's
// member /24s and shared last-hop set, in output order.
func digest(final []*aggregate.Block) string {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.BigEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, b := range final {
		put(uint32(len(b.Blocks24)))
		for _, x := range b.Blocks24 {
			put(uint32(x))
		}
		put(uint32(len(b.LastHops)))
		for _, a := range b.LastHops {
			put(uint32(a))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layerInput is what the staged replay needs to rerun a workload's
// pipeline from scratch against the world state its timed operations
// ended on.
type layerInput struct {
	world *netsim.World
	sched *faultplan.Schedule // nil for a clean world
	seed  uint64
	opts  core.Options
	// chunk is the StreamChunk of the reference Pipeline.Run; the
	// replay's census streams in chunks of the same size (1024 when 0).
	chunk int
	// want is the end-to-end digest both the reference run and the
	// replay must reproduce.
	want string
	// untraced, when set, is an untraced Pipeline.Run of the same input
	// (serve: the in-process check run); the tracing overhead is then
	// the reference run's time over it.
	untraced time.Duration
}

// tracedWorld installs the timed fault wrapper (when the world has a
// plan) and returns the function restoring the plain schedule.
func tracedWorld(in layerInput, faults *layerClock) func() {
	if in.sched == nil {
		return func() {}
	}
	in.world.SetFaults(timedFaults{sched: in.sched, clock: faults})
	return func() { in.world.SetFaults(in.sched) }
}

// referenceRun is the traced reference Pipeline.Run of part (b).
type referenceRun struct {
	d      time.Duration
	digest string
	inst   *probe.Instrumented
	reg    *telemetry.Registry
	// sim is the simulator and fault-plan time under it.
	sim simSamples
}

// reference runs core.Pipeline.Run once with every wrapper installed:
// its duration is core.run_s, and its digest anchors the replay.
func reference(ctx context.Context, tr *tracer, wl string, in layerInput) (referenceRun, error) {
	var net, faults layerClock
	restore := tracedWorld(in, &faults)
	defer restore()
	r := referenceRun{reg: telemetry.NewRegistry()}
	r.inst = instrument(in.world, r.reg, core.StageMeasure, &net)
	p := &core.Pipeline{
		Net:         r.inst,
		Scanner:     in.world,
		Blocks:      in.world.Blocks(),
		Seed:        in.seed,
		Options:     in.opts,
		StreamChunk: in.chunk,
		Telemetry:   r.reg,
	}
	s := tr.start(wl+"/reference", "core.Pipeline.Run", nil)
	t0 := time.Now()
	out, err := p.Run(ctx)
	r.d = time.Since(t0)
	tr.end(s)
	r.sim.add(tr, s, net.read(), faults.read())
	if err != nil {
		return r, fmt.Errorf("reference run: %w", err)
	}
	r.digest = digest(out.Final)
	return r, nil
}

// replayReprober is the Section 6.5 exhaustive reprobe, the same adapter
// core's validation stage builds.
type replayReprober struct {
	m  *hobbit.Measurer
	ds *zmap.Dataset
}

func (r replayReprober) Reprobe(b iputil.Block24) []iputil.Addr {
	return r.m.MeasureBlock(b, r.ds.ActivesBy26(b)).LastHops
}

// stagedReplay calls each layer alone, in pipeline order, on the same
// inputs a Pipeline.Run sees: census stream, streamed campaign,
// aggregation, clustering, validation, merge. Every call gets a span
// with its wall time, process CPU, and the simulator time spent under
// it, and the per-layer metrics land in o. It returns the replay's
// final digest.
func stagedReplay(ctx context.Context, tr *tracer, wl string, in layerInput, o *outcome) (string, error) {
	var net, faults layerClock
	restore := tracedWorld(in, &faults)
	defer restore()
	w := in.world
	blocks := w.Blocks()
	reg := telemetry.NewRegistry()
	inst := instrument(w, reg, core.StageMeasure, &net)
	p := &core.Pipeline{Net: inst, Scanner: w, Blocks: blocks, Seed: in.seed, Options: in.opts}
	trace := wl + "/replay"
	root := tr.start(trace, "replay", nil)
	var stagedSum time.Duration

	// layer times one call and returns its span duration, process CPU,
	// and the simulator busy time beneath it.
	layer := func(name string, fn func() error) (time.Duration, time.Duration, time.Duration, error) {
		n0 := net.read()
		s := tr.start(trace, name, root)
		t0, c0 := time.Now(), cpuTime()
		err := fn()
		d, cpu := time.Since(t0), cpuTime()-c0
		tr.end(s)
		busy := time.Duration(net.read().sub(n0).busy)
		tr.attr(s, "netsim_busy_ns", int64(busy))
		stagedSum += d
		return d, cpu, busy, err
	}

	chunk := in.chunk
	if chunk == 0 {
		chunk = 1024
	}
	var ds *zmap.Dataset
	var eligible []iputil.Block24
	d, cpu, _, _ := layer("zmap.Collect(zmap.Stream)", func() error {
		ds = zmap.Collect(zmap.Stream(ctx, w, blocks, zmap.StreamOptions{
			Workers: in.opts.CensusWorkers, ChunkSize: chunk, Telemetry: reg,
		}))
		eligible = ds.EligibleBlocks(blocks, p.MinActiveOrDefault())
		return ctx.Err()
	})
	active := reg.Counter("census.active_blocks").Value()
	o.set("zmap.census_s", d.Seconds(), 1, "")
	o.set("zmap.cpu_s", cpu.Seconds(), 1, "")
	o.set("zmap.active_blocks", float64(active), 1, "")
	o.set("zmap.eligible_blocks", float64(len(eligible)), 1, "")
	o.setRatio("zmap.eligible_ratio", newRatio(float64(len(eligible)), float64(active), "active blocks"))

	var res *hobbit.Result
	d, cpu, busy, err := layer("hobbit.Campaign.RunStream", func() error {
		feed := make(chan hobbit.FeedItem)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(feed)
			for _, b := range eligible {
				select {
				case feed <- hobbit.FeedItem{Block: b, By26: ds.ActivesBy26(b)}:
				case <-ctx.Done():
					return
				}
			}
		}()
		camp := &hobbit.Campaign{Measurer: p.Measurer(false), Workers: in.opts.Workers, Telemetry: reg, Stage: core.StageMeasure}
		var err error
		res, err = camp.RunStream(ctx, feed, nil)
		wg.Wait()
		return err
	})
	if err != nil {
		tr.end(root)
		return "", fmt.Errorf("replay campaign: %w", err)
	}
	homogeneous, degraded, lowConf := 0, 0, 0
	for _, b := range res.Order {
		br := res.Blocks[b]
		if br.Class.Homogeneous() {
			homogeneous++
		}
		if br.Degraded > 0 {
			degraded++
		}
		if br.LowConfidence() {
			lowConf++
		}
	}
	o.set("hobbit.campaign_s", d.Seconds(), 1, "")
	o.set("hobbit.cpu_s", cpu.Seconds(), 1, "")
	o.set("hobbit.self_cpu_s", (cpu - busy).Seconds(), 1, "campaign CPU minus simulator time")
	o.set("hobbit.blocks_measured", float64(len(res.Order)), 1, "")
	o.set("hobbit.homogeneous_blocks", float64(homogeneous), 1, "")
	o.set("hobbit.degraded_blocks", float64(degraded), 1, "")
	o.set("hobbit.low_confidence_blocks", float64(lowConf), 1, "")

	interner := aggregate.NewInterner()
	var aggs []*aggregate.Block
	blocksIn := 0
	d, _, _, _ = layer("aggregate.Builder", func() error {
		bd := aggregate.NewBuilder(interner)
		for _, br := range res.HomogeneousBlocks() {
			if br.LowConfidence() {
				continue
			}
			blocksIn++
			bd.Add(br)
		}
		aggs = bd.Finish()
		return nil
	})
	o.set("aggregate.s", d.Seconds(), 1, "")
	o.set("aggregate.blocks_in", float64(blocksIn), 1, "")
	o.set("aggregate.blocks_out", float64(len(aggs)), 1, "")

	var cl *cluster.Result
	d, cpu, _, _ = layer("cluster.Pipeline.Run", func() error {
		cl = (&cluster.Pipeline{Seed: in.seed, Workers: in.opts.ClusterWorkers, Telemetry: reg}).Run(aggs)
		return nil
	})
	sealed := reg.Counter("cluster.sealed_components").Value()
	invalidated := reg.Counter("cluster.seal_invalidations").Value()
	o.set("cluster.s", d.Seconds(), 1, "")
	o.set("cluster.cpu_s", cpu.Seconds(), 1, "")
	o.set("cluster.edges", float64(reg.Counter("cluster.graph_edges").Value()), 1, "")
	o.set("cluster.components", float64(reg.Counter("cluster.components").Value()), 1, "")
	o.set("cluster.sealed_components", float64(sealed), 1, "")
	o.set("cluster.seal_invalidations", float64(invalidated), 1, "")
	o.setRatio("cluster.wasted_seal_ratio", newRatio(float64(invalidated), float64(sealed), "sealed components"))
	o.set("cluster.clusters", float64(len(cl.Clusters)), 1, "")

	validated := make(map[int]bool)
	d, cpu, _, err = layer("cluster.Validate", func() error {
		inst.SetStage(core.StageValidate)
		rp := replayReprober{m: p.Measurer(true), ds: ds}
		vals := make([]cluster.Validation, len(cl.Clusters))
		pool := parallel.Pool{Workers: in.opts.ClusterWorkers}
		if err := pool.ForEach(ctx, len(cl.Clusters), func(i int) {
			vals[i] = cluster.Validate(cl.Clusters[i], rp, in.opts.ValidatePairs, in.seed)
		}); err != nil {
			return err
		}
		reprobed, pairs := 0, 0
		for i, c := range cl.Clusters {
			reprobed += vals[i].Reprobed
			pairs += vals[i].PairsChecked
			if vals[i].Passes() {
				validated[c.ID] = true
			}
		}
		o.set("validate.blocks_reprobed", float64(reprobed), 1, "")
		o.set("validate.pairs_checked", float64(pairs), 1, "")
		return nil
	})
	if err != nil {
		tr.end(root)
		return "", fmt.Errorf("replay validation: %w", err)
	}
	o.set("validate.s", d.Seconds(), 1, "")
	o.set("validate.cpu_s", cpu.Seconds(), 1, "")
	o.setRatio("validate.accept_ratio", newRatio(float64(len(validated)), float64(len(cl.Clusters)), "clusters"))

	var final []*aggregate.Block
	layer("cluster.ApplyValidatedInterned", func() error {
		final = cluster.ApplyValidatedInterned(cl, validated, interner)
		return nil
	})
	tr.end(root)
	o.set("core.staged_sum_s", stagedSum.Seconds(), 6, "sum of the six layer calls")
	return digest(final), nil
}

// measureLayers is part (b) of a traced run: a traced reference
// Pipeline.Run and the staged replay on the same world state. Both must
// reproduce the workload's end-to-end digest.
//
// A workload whose own operations run out of reach of the wrappers (the
// daemon's campaigns) takes its simulator and probing-load metrics from
// the reference run, and its tracing overhead from the reference run's
// time over the untraced run of the same input.
func measureLayers(ctx context.Context, tr *tracer, wl string, in layerInput, o *outcome) error {
	ref, err := reference(ctx, tr, wl, in)
	if err != nil {
		return err
	}
	got, err := stagedReplay(ctx, tr, wl, in, o)
	if err != nil {
		return err
	}
	o.set("core.run_s", ref.d.Seconds(), 1, "traced reference Pipeline.Run")
	staged := o.metrics["core.staged_sum_s"].Value
	o.setRatio("core.overlap_gain", newRatio(staged, ref.d.Seconds(), "core.run_s seconds"))
	if _, ok := o.metrics["netsim.calls"]; !ok {
		ref.sim.set(o)
		setProbeLayer(o, ref.reg, ref.inst, core.StageMeasure, core.StageValidate)
	}
	if in.untraced > 0 {
		o.setRatio("trace.overhead_ratio", newRatio(ref.d.Seconds(), in.untraced.Seconds(), "untraced run seconds"))
	}
	if ref.digest != in.want {
		o.problem("reference Pipeline.Run digest %.12s differs from the end-to-end digest %.12s", ref.digest, in.want)
	}
	if got != ref.digest {
		o.problem("staged replay digest %.12s differs from the Pipeline.Run digest %.12s", got, ref.digest)
	}
	o.extra = append(o.extra, fmt.Sprintf("digest: end-to-end %.16s, reference %.16s, staged replay %.16s", in.want, ref.digest, got))
	return nil
}
