// Command hobbit runs the full measurement pipeline over a synthetic
// Internet — census scan, per-/24 homogeneity classification,
// identical-set aggregation, MCL clustering with reprobe validation — and
// prints the resulting homogeneous block map, the artifact the paper
// publishes.
//
// Usage:
//
//	hobbit [-blocks N] [-scale F] [-seed S] [-workers W]
//	       [-census-workers W] [-cluster-workers W] [-stream-chunk N]
//	       [-skip-clustering] [-fault-plan NAME] [-dump FILE]
//	       [-output FILE] [-top N] [-json] [-progress]
//	       [-metrics-addr HOST:PORT]
//
// Every run is instrumented: -json emits the versioned api.RunSummaryV1
// (the same bytes hobbitd serves from /v1/campaigns/{id}/result) with a
// telemetry section (per-stage durations, per-stage probe counts,
// histograms), -progress streams live progress lines to stderr, and
// -metrics-addr serves the live registry snapshot as JSON over HTTP while
// the run executes. -output streams every per-/24 measurement result to a
// file as it becomes final — one JSON document, one record per line, run
// summary appended at the end — so million-block runs produce their full
// result set without holding a rendered report in memory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"strings"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/blockmap"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

func main() {
	var (
		blocks   = flag.Int("blocks", 20000, "number of /24 blocks in the synthetic universe")
		scale    = flag.Float64("scale", 0.25, "scale factor for the planted Table-5 aggregates")
		seed     = flag.Uint64("seed", 0x40bb17, "world and measurement seed")
		workers  = flag.Int("workers", 0, "measurement workers (0 = GOMAXPROCS)")
		clWorker = flag.Int("cluster-workers", 0, "clustering stage workers: MCL, validation (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		cnWorker = flag.Int("census-workers", 0, "census sweep workers (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		stream   = flag.Int("stream-chunk", 0, "census chunk size in /24s for the pipelined census, measurement, and aggregation (0 = size derived from the input; output is identical at any size)")
		skipCl   = flag.Bool("skip-clustering", false, "stop after identical-set aggregation")
		monEp    = flag.Int("monitor-epochs", 0, "after the initial run, advance the fault epoch this many times and re-measure incrementally (continuous-monitoring mode; the summary reports the final epoch)")
		plan     = flag.String("fault-plan", "", "inject a built-in fault plan into the synthetic world (one of: "+strings.Join(faultplan.BuiltinNames(), ", ")+")")
		dump     = flag.String("dump", "", "write the final homogeneous block map to this file")
		output   = flag.String("output", "", "stream per-/24 measurement results to this file as JSON (records written as they become final, summary appended)")
		top      = flag.Int("top", 15, "number of largest blocks to characterize")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable run summary instead of tables")
		progress = flag.Bool("progress", false, "stream live measurement progress lines to stderr")
		metrics  = flag.String("metrics-addr", "", "serve the live telemetry snapshot as JSON on this address")
	)
	flag.Parse()

	if err := run(context.Background(), runConfig{
		blocks: *blocks, scale: *scale, seed: *seed, workers: *workers,
		clusterWorkers: *clWorker, censusWorkers: *cnWorker,
		streamChunk: *stream, skipClustering: *skipCl, faultPlan: *plan,
		monitorEpochs: *monEp,
		dump:          *dump, output: *output, top: *top, json: *jsonOut,
		progress: *progress, metricsAddr: *metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "hobbit:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	blocks         int
	scale          float64
	seed           uint64
	workers        int
	clusterWorkers int
	censusWorkers  int
	streamChunk    int
	skipClustering bool
	faultPlan      string
	monitorEpochs  int
	dump           string
	output         string
	top            int
	json           bool
	progress       bool
	metricsAddr    string
	// stdout overrides the output stream (tests capture it; nil means
	// os.Stdout).
	stdout io.Writer
	// metricsReady, when set, receives the bound metrics listener address
	// before the pipeline starts (tests bind to :0 and need the port).
	metricsReady func(net.Addr)
}

func run(ctx context.Context, rc runConfig) error {
	stdout := rc.stdout
	if stdout == nil {
		stdout = os.Stdout
	}
	// Negative worker counts used to flow straight into the worker pools,
	// where they silently behaved like the auto value instead of the
	// serial run the user probably wanted; core.Options.Validate rejects
	// them (and any other out-of-range knob) up front. Zero stays the
	// documented "use GOMAXPROCS" value.
	opts := core.Options{
		Workers:        rc.workers,
		ClusterWorkers: rc.clusterWorkers,
		CensusWorkers:  rc.censusWorkers,
		SkipClustering: rc.skipClustering,
		ValidatePairs:  20000,
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if rc.monitorEpochs < 0 {
		return errors.New("-monitor-epochs must be >= 0")
	}
	if rc.top < 0 {
		return errors.New("-top must be >= 0")
	}
	if rc.monitorEpochs > 0 && rc.output != "" {
		// The monitor re-emits every per-/24 result each epoch; the
		// streamed result file is defined as one record per block.
		return errors.New("-output is not supported with -monitor-epochs")
	}
	// A bad -stream-chunk fails here, before the synthetic world is
	// built, with the same error Pipeline.Run would raise.
	if err := core.ValidateStreamChunk(rc.streamChunk); err != nil {
		return err
	}
	cfg := netsim.DefaultConfig(rc.blocks)
	cfg.BigBlockScale = rc.scale
	cfg.Seed = rc.seed

	start := time.Now()
	world, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	if !rc.json {
		fmt.Fprintf(stdout, "world: %d /24 blocks, %d routers (built in %v)\n",
			len(world.Blocks()), world.NumRouters(), time.Since(start).Round(time.Millisecond))
	}

	reg := telemetry.NewRegistry()
	if rc.metricsAddr != "" {
		// Bind synchronously so a bad address fails the run instead of a
		// goroutine's log line, then give the server a real lifecycle:
		// the serve goroutine is joined on return, after a context-driven
		// graceful shutdown lets in-flight snapshot requests finish.
		ln, err := net.Listen("tcp", rc.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		msrv := &http.Server{Handler: reg}
		var mwg sync.WaitGroup
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			if err := msrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "hobbit: metrics server:", err)
			}
		}()
		defer func() {
			// The graceful drain must outlive ctx: by the time this defer
			// runs, the run context is typically already cancelled, and a
			// shutdown scoped to it would abort in-flight snapshot reads
			// instead of letting them finish.
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := msrv.Shutdown(sctx); err != nil {
				_ = msrv.Close()
			}
			mwg.Wait()
		}()
		if rc.metricsReady != nil {
			rc.metricsReady(ln.Addr())
		}
	}

	if rc.faultPlan != "" {
		sched, err := faultplan.CompileBuiltin(rc.faultPlan, world)
		if err != nil {
			return err
		}
		world.SetFaults(sched)
		if !rc.json {
			fmt.Fprintf(stdout, "fault plan: %s (%d events)\n", sched.Name(), len(sched.Events()))
		}
	}

	pnet := probe.Instrument(probe.NewSimNetwork(world), reg, core.StageMeasure)
	p := &core.Pipeline{
		Net:         pnet,
		Scanner:     world,
		Blocks:      world.Blocks(),
		Seed:        rc.seed,
		Options:     opts,
		StreamChunk: rc.streamChunk,
		Telemetry:   reg,
	}
	if rc.progress {
		p.Progress = telemetry.NewLineSink(os.Stderr, 100)
	}
	var rw *resultWriter
	if rc.output != "" {
		rw, err = newResultWriter(rc.output)
		if err != nil {
			return err
		}
		defer rw.abort()
		p.ResultSink = rw.sink
	}
	start = time.Now()
	var out *core.Output
	var monSum *api.MonitorSummaryV1
	if rc.monitorEpochs > 0 {
		mon := &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: world}}
		defer mon.Close()
		reps, err := mon.Run(ctx, rc.monitorEpochs+1)
		if err != nil {
			return err
		}
		monSum = api.BuildMonitorSummaryV1(reps)
		out = reps[len(reps)-1].Output
		if !rc.json {
			printMonitorEpochs(stdout, reps)
		}
	} else {
		out, err = p.Run(ctx)
		if err != nil {
			return err
		}
	}
	if rw != nil {
		if err := rw.finish(api.BuildRunSummaryV1(len(world.Blocks()), rc.faultPlan, out, pnet, reg)); err != nil {
			return err
		}
		if !rc.json {
			fmt.Fprintf(stdout, "results streamed to %s (%d blocks)\n", rc.output, rw.n)
		}
	}
	if rc.json {
		sum := api.BuildRunSummaryV1(len(world.Blocks()), rc.faultPlan, out, pnet, reg)
		sum.Monitor = monSum
		return api.EncodeRunSummaryV1(stdout, sum)
	}
	fmt.Fprintf(stdout, "pipeline: %d eligible /24s measured in %v (%d pings, %d probes, %d retries)\n\n",
		len(out.Eligible), time.Since(start).Round(time.Millisecond), pnet.Pings(), pnet.Probes(),
		pnet.PingRetries()+pnet.ProbeRetries())

	// Table 1-style classification summary.
	sum := out.Campaign.Summary()
	fmt.Fprintln(stdout, "classification of measured /24 blocks:")
	for _, cls := range []hobbit.Class{
		hobbit.ClassTooFewActive, hobbit.ClassUnresponsiveLastHop,
		hobbit.ClassSameLastHop, hobbit.ClassNonHierarchical,
		hobbit.ClassHierarchical,
	} {
		fmt.Fprintf(stdout, "  %-28s %8d (%5.1f%%)\n", cls, sum.Counts[cls],
			100*float64(sum.Counts[cls])/float64(max(sum.Total, 1)))
	}
	fmt.Fprintf(stdout, "homogeneous: %d of %d measurable (%.1f%%)\n\n",
		sum.Homogeneous(), sum.Measurable(),
		100*float64(sum.Homogeneous())/float64(max(sum.Measurable(), 1)))

	fmt.Fprintf(stdout, "identical-set aggregation: %d homogeneous /24s -> %d blocks\n",
		sum.Homogeneous(), len(out.Aggregates))
	if out.Clustering != nil {
		validated := 0
		for _, c := range out.Clustering.Clusters {
			if out.Validated[c.ID] {
				validated++
			}
		}
		fmt.Fprintf(stdout, "clustering: %d clusters (inflation %.2f), %d validated by reprobing -> %d final blocks\n",
			len(out.Clustering.Clusters), out.Clustering.ChosenInflation, validated, len(out.Final))
	}

	fmt.Fprintln(stdout, "\nstage timings:")
	for _, s := range reg.Spans() {
		fmt.Fprintf(stdout, "  %-12s %8.0fms\n", s.Name, s.DurationMS)
	}

	fmt.Fprintf(stdout, "\ntop %d homogeneous blocks:\n", rc.top)
	fmt.Fprintf(stdout, "  %-5s %-6s %-22s %-18s %s\n", "rank", "#/24s", "organization", "geo-location", "type")
	for i, b := range aggregate.TopBySize(out.Final, rc.top) {
		info, _ := world.Geo().Lookup(b.Blocks24[0])
		loc := info.Country
		if city := world.Geo().City(b.Blocks24[0]); city != "" {
			loc += " (" + city + ")"
		}
		fmt.Fprintf(stdout, "  %-5d %-6d %-22s %-18s %s\n", i+1, b.Size(), info.Org, loc, info.Type)
	}

	if rc.dump != "" {
		if err := dumpBlocks(rc.dump, out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nblock map written to %s\n", rc.dump)
	}
	return nil
}

// printMonitorEpochs renders the monitoring session's per-epoch
// accounting as a table.
func printMonitorEpochs(w io.Writer, reps []*monitor.EpochReport) {
	fmt.Fprintf(w, "monitoring: %d epochs (epoch 0 bootstraps, later epochs reprobe only churned blocks)\n", len(reps))
	fmt.Fprintf(w, "  %-6s %-8s %-9s %-12s %-11s %s\n", "epoch", "changed", "reprobed", "comp-reused", "val-reused", "final")
	for _, r := range reps {
		final := 0
		if r.Output != nil {
			final = len(r.Output.Final)
		}
		fmt.Fprintf(w, "  %-6d %-8d %-9d %-12d %-11d %d\n",
			r.Epoch, r.Changed, r.Reprobed, r.Cluster.Reused, r.ValReused, final)
	}
	fmt.Fprintln(w)
}

// dumpBlocks writes the final block map in the blockmap text format.
// A failed Close fails the dump too: the map may not have reached the
// file.
func dumpBlocks(path string, out *core.Output) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blockmap.Write(f, out.Final); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
