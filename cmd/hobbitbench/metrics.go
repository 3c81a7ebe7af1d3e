package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef declares one reported metric. The end-to-end set is what a
// user of the pipeline or the daemon sees; the per-layer set is what the
// traced run attributes to single layers. BENCHMARK.json lists the same
// names and units (TestCatalogMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_ms_p50", "ms"},
	{"blocks_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"probes_per_block", "count"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"purity", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"netsim.world_build_s", "s"},
	{"setup.warm_s", "s"},
	{"netsim.calls", "count"},
	{"netsim.busy_s", "s"},
	{"netsim.ns_per_call", "ns"},
	{"faultplan.events", "count"},
	{"faultplan.queries", "count"},
	{"faultplan.busy_share", "ratio"},
	{"zmap.census_s", "s"},
	{"zmap.cpu_s", "s"},
	{"zmap.active_blocks", "count"},
	{"zmap.eligible_blocks", "count"},
	{"zmap.eligible_ratio", "ratio"},
	{"probe.measure.probes", "count"},
	{"probe.measure.pings", "count"},
	{"probe.validate.probes", "count"},
	{"probe.validate.pings", "count"},
	{"probe.retry_ratio", "ratio"},
	{"probe.degraded_windows", "count"},
	{"probe.degraded_retries", "count"},
	{"probe.degraded_exhausted", "count"},
	{"hobbit.campaign_s", "s"},
	{"hobbit.cpu_s", "s"},
	{"hobbit.self_cpu_s", "s"},
	{"hobbit.blocks_measured", "count"},
	{"hobbit.homogeneous_blocks", "count"},
	{"hobbit.degraded_blocks", "count"},
	{"hobbit.low_confidence_blocks", "count"},
	{"aggregate.s", "s"},
	{"aggregate.blocks_in", "count"},
	{"aggregate.blocks_out", "count"},
	{"cluster.s", "s"},
	{"cluster.cpu_s", "s"},
	{"cluster.edges", "count"},
	{"cluster.components", "count"},
	{"cluster.sealed_components", "count"},
	{"cluster.seal_invalidations", "count"},
	{"cluster.wasted_seal_ratio", "ratio"},
	{"cluster.clusters", "count"},
	{"validate.s", "s"},
	{"validate.cpu_s", "s"},
	{"validate.blocks_reprobed", "count"},
	{"validate.pairs_checked", "count"},
	{"validate.accept_ratio", "ratio"},
	{"core.run_s", "s"},
	{"core.staged_sum_s", "s"},
	{"core.overlap_gain", "ratio"},
	{"core.cpu_s_per_op", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"monitor.reprobe_ratio", "ratio"},
	{"monitor.val_reuse_ratio", "ratio"},
	{"monitor.components_reuse_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.worlds_built", "count"},
}

// unitOf looks a metric up in both catalogs.
func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range set {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// metricValue is one reported number. samples and note only feed the
// human-readable report; the JSON result carries value and unit.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
	note    string
}

// outcome is what one workload run produced: the operation tally, the
// failed checks, and every metric it measured.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metricValue
	// extra are workload-specific numbers (tail latencies, per-epoch
	// accounting) that go to the report and the trace file only.
	extra []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metricValue)} }

// set records a catalogued metric. An uncatalogued name is a bug in the
// benchmark, not a measurement condition.
func (o *outcome) set(name string, v float64, samples int, note string) {
	unit, ok := unitOf(name)
	if !ok {
		panic("hobbitbench: metric " + name + " is not in the catalog")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metricValue{Value: v, Unit: unit, samples: samples, note: note}
}

// setRatio records a ratio metric with its base in the note.
func (o *outcome) setRatio(name string, r ratio) {
	o.set(name, r.value(), 1, "base: "+formatNumber(r.base)+" "+r.baseName)
}

// setMonitorIdle and setServeIdle record the monitoring and serving
// layer metrics of a workload that does not exercise those layers.
func setMonitorIdle(o *outcome) {
	for _, n := range []string{"monitor.reprobe_ratio", "monitor.val_reuse_ratio", "monitor.components_reuse_ratio"} {
		o.setRatio(n, newRatio(0, 0, "epochs, not a monitoring workload"))
	}
}

func setServeIdle(o *outcome) {
	o.setRatio("serve.cache_hit_ratio", newRatio(0, 0, "submissions, not a serving workload"))
	o.set("serve.worlds_built", 0, 1, "not a serving workload")
}

// problem records a failed check; the result then reads correct=false.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// op tallies one timed operation.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable block (host, every metric by name
// with unit and sample count, checks) and then the one-line JSON result
// holding the metrics of the selected catalog.
func report(w io.Writer, host hostInfo, o *outcome, catalog []metricDef) error {
	fmt.Fprintf(w, "host: %s\n", host)
	missing := []string{}
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	for _, d := range catalog {
		m, ok := o.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = m
		line := fmt.Sprintf("  %-32s %14s %-6s n=%d", d.name, formatNumber(m.Value), m.Unit, m.samples)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, e := range o.extra {
		fmt.Fprintln(w, "  "+e)
	}
	if len(missing) > 0 {
		res.Correct = false
		o.problem("metrics not measured: %s", strings.Join(missing, ", "))
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (failed_frac %s)\n",
		o.attempted, o.failed, newRatio(float64(o.failed), float64(o.attempted), "operations"))
	if len(o.problems) == 0 {
		fmt.Fprintln(w, "checks: ok")
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "check failed: "+p)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
