// Command hobbitbench is the repository benchmark: it runs one workload
// of the Hobbit pipeline or the hobbitd daemon, checks the outputs, and
// prints every metric by name with its unit and sample count, followed
// by a one-line JSON result.
//
// Usage:
//
//	hobbitbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	            [-trace-out FILE] [-hobbitd BIN] [-out-dir DIR]
//
// Every input is built from the seed. The end-to-end run (-trace 0)
// times whole operations from outside the program: core.Pipeline.Run,
// monitor.Monitor.Step, or a campaign over the daemon's HTTP API. The
// traced run (-trace 1) interleaves wrapped operations with plain ones,
// then reruns the pipeline once as a reference and once layer by layer,
// and prints the per-layer metrics; its spans go to -trace-out.
// run.sh builds the tool and the daemon and passes -hobbitd and -out-dir;
// README.md documents the workloads, metrics, and calibration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/hobbitscan/hobbit/internal/harness"
)

// workload is one benchmark input set and the driver that times it.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, layerInput, error)
}

// workloads are the benchmark's input sets; README.md records why each
// was chosen. The accuracy floors sit below the lowest value seen over
// the calibration seeds, with margin, as harness.BuiltinScenarios sets
// its floors.
var workloads = []workload{
	{"clean-100k", func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, layerInput, error) {
		return runPipeline(ctx, cfg, "clean-100k", pipelineSpec{
			blocks: 100000, scale: 0.05, chunk: 1024,
			floors: harness.Floors{Precision: 0.97, Recall: 0.94, Purity: 0.97},
		}, tr)
	}},
	{"storm-20k", func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, layerInput, error) {
		return runPipeline(ctx, cfg, "storm-20k", pipelineSpec{
			blocks: 20000, scale: 0.05, plan: "rate-storm", chunk: 1024,
			floors: harness.Floors{Precision: 0.97, Recall: 0.92, Purity: 0.96},
		}, tr)
	}},
	{"monitor-churn-50k", func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, layerInput, error) {
		return runMonitor(ctx, cfg, "monitor-churn-50k", monitorSpec{
			blocks: 50000, scale: 0.05, plan: "churn",
			floors: harness.Floors{Precision: 0.97, Recall: 0.93, Purity: 0.96},
		}, tr)
	}},
	{"serve-2k", func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, layerInput, error) {
		return runServe(ctx, cfg, "serve-2k", serveSpec{
			blocks: 2000, scale: 0.25, clients: 2, warm: 3,
			floors: harness.Floors{Precision: 0.97, Recall: 0.92, Purity: 0.95},
		}, tr)
	}},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	if serveReferenceLoop() {
		return
	}
	name := flag.String("workload", "", "workload to run (one of: "+strings.Join(workloadNames(), ", ")+")")
	seed := flag.Uint64("seed", 7, "seed every input is built from")
	seconds := flag.Float64("seconds", 10, "time budget for the timed operations")
	trace := flag.Int("trace", 0, "0 runs the end-to-end measurement, 1 the traced per-layer run")
	traceOut := flag.String("trace-out", "", "trace file of a traced run (default OUT-DIR/trace-WORKLOAD-seedN.json)")
	hobbitd := flag.String("hobbitd", "", "hobbitd binary the serve workload starts")
	outDir := flag.String("out-dir", ".bench_build", "directory for files the run writes")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hobbitbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, hobbitd: *hobbitd}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Stdout, *name, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hobbitbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and reports it. An error means no result
// was produced (bad arguments, a broken setup); failed checks are part
// of the result instead.
func run(ctx context.Context, stdout io.Writer, name string, cfg runConfig) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	host := currentHost()
	if diff := host.differsFrom(calibrationHost); diff != "" {
		fmt.Fprintf(os.Stderr, "hobbitbench: warning: host differs from the calibration host (%s); the bounds in BENCHMARK.json were set on %s\n",
			diff, calibrationHost)
	}
	fmt.Fprintf(stdout, "hobbitbench: workload=%s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	speed, err := startSpeedProbe(ctx)
	if err != nil {
		return err
	}
	defer speed.stop()
	cfg.speed = speed
	o, in, err := wl.run(ctx, cfg, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	catalog := endToEndMetrics
	if cfg.trace {
		if err := measureLayers(ctx, tr, name, in, o); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		catalog = perLayerMetrics
		layer := make(map[string]metricValue, len(catalog))
		for _, d := range catalog {
			if m, ok := o.metrics[d.name]; ok {
				layer[d.name] = m
			}
		}
		if err := tr.write(cfg.traceOut, host, name, cfg.seed, layer); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %s\n", cfg.traceOut)
	}
	return report(stdout, host, o, catalog)
}
