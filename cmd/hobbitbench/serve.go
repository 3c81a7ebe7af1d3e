package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// serveSpec is the serving workload: small-world campaigns submitted to
// a hobbitd process by closed-loop clients over loopback.
type serveSpec struct {
	blocks  int
	scale   float64
	clients int
	// warm is how many distinct seeds are pre-computed in setup; every
	// (warm+1)-th operation uses a fresh seed and misses the cache.
	warm   int
	floors harness.Floors
}

// daemon is a running hobbitd child process.
type daemon struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	addr   string
}

// addrWatch is the daemon's stderr: it passes the log through and hands
// the address from the "serving ... on http://ADDR" line to addr, once.
// Only the copying goroutine of exec.Cmd writes to it.
type addrWatch struct {
	addr    chan string
	pending []byte
	sent    bool
}

func (a *addrWatch) Write(p []byte) (int, error) {
	_, _ = os.Stderr.Write(p)
	if a.sent {
		return len(p), nil
	}
	a.pending = append(a.pending, p...)
	for {
		i := bytes.IndexByte(a.pending, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(a.pending[:i])
		a.pending = a.pending[i+1:]
		const marker = "on http://"
		if j := strings.Index(line, marker); j >= 0 {
			a.addr <- strings.TrimSpace(line[j+len(marker):])
			a.sent, a.pending = true, nil
			return len(p), nil
		}
	}
}

// startDaemon launches hobbitd on an ephemeral loopback port and waits
// for the log line naming the bound address.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs -hobbitd (path to a hobbitd binary)")
	}
	dctx, cancel := context.WithCancel(ctx)
	cmd := exec.CommandContext(dctx, bin, "-addr", "127.0.0.1:0")
	// Cancelling asks for hobbitd's graceful drain; a daemon that has
	// not exited after WaitDelay is killed.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 15 * time.Second
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	// Buffered for the single address the watcher sends, so the write
	// never blocks on a receiver that already gave up.
	watch := &addrWatch{addr: make(chan string, 1)}
	cmd.Stderr = watch
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("starting hobbitd: %w", err)
	}
	d := &daemon{cmd: cmd, cancel: cancel}
	select {
	case d.addr = <-watch.addr:
		return d, nil
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.stop()
	return nil, errors.New("hobbitd did not report its listen address")
}

// stop drains the daemon and waits until the process has exited.
func (d *daemon) stop() {
	d.cancel()
	_ = d.cmd.Wait()
}

// client issues campaign operations against the daemon.
type client struct {
	base string
	http *http.Client
}

// campaign is one operation: a synchronous POST /v1/campaigns for the
// world seed, then GET .../result. It returns the result bytes and the
// latency of the POST and of the GET.
func (c *client) campaign(ctx context.Context, spec serveSpec, seed uint64) ([]byte, time.Duration, time.Duration, error) {
	body := fmt.Sprintf(`{"world":{"blocks":%d,"scale":%g,"seed":%d},"options":{},"wait":true}`, spec.blocks, spec.scale, seed)
	t0 := time.Now()
	var sess api.SessionV1
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", strings.NewReader(body), &sess, nil); err != nil {
		return nil, 0, 0, err
	}
	post := time.Since(t0)
	if sess.State != api.StateDone {
		return nil, post, 0, fmt.Errorf("session %s ended %s: %s", sess.ID, sess.State, sess.Error)
	}
	var result bytes.Buffer
	t1 := time.Now()
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+sess.ID+"/result", nil, nil, &result); err != nil {
		return nil, post, 0, err
	}
	return result.Bytes(), post, time.Since(t1), nil
}

// do sends one request; a non-2xx status is an error. The body is
// decoded into v, or copied into raw.
func (c *client) do(ctx context.Context, method, path string, body io.Reader, v any, raw *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	if raw != nil {
		raw.Write(buf.Bytes())
	}
	if v != nil {
		if err := json.Unmarshal(buf.Bytes(), v); err != nil {
			return fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return nil
}

// countersOf fetches the daemon-wide telemetry counters.
func (c *client) countersOf(ctx context.Context) (map[string]int64, error) {
	var snap telemetry.Snapshot
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &snap, nil); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// summaryKey strips the wall-clock part (span durations) from a run
// summary, leaving the deterministic content two runs must share.
func summaryKey(sum api.RunSummaryV1) ([]byte, error) {
	sum.Telemetry.Stages = nil
	return json.Marshal(sum)
}

// localRun runs in-process the campaign the daemon runs for a world
// seed (same world, options, instrumentation, and run shape), giving
// the expected summary, the output to score, and the untraced run time.
func localRun(ctx context.Context, spec serveSpec, seed uint64, o *outcome) (*netsim.World, *core.Output, []byte, time.Duration, error) {
	w, err := buildWorld(spec.blocks, spec.scale, seed, o)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	reg := telemetry.NewRegistry()
	inst := instrument(w, reg, core.StageMeasure, nil)
	p := &core.Pipeline{Net: inst, Scanner: w, Blocks: w.Blocks(), Seed: seed, Telemetry: reg}
	t0 := time.Now()
	out, err := p.Run(ctx)
	d := time.Since(t0)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	key, err := summaryKey(api.BuildRunSummaryV1(len(w.Blocks()), "", out, inst, reg))
	return w, out, key, d, err
}

// serveOp is one timed operation's record.
type serveOp struct {
	k        int
	cold     bool
	ok       bool
	total    time.Duration
	result   time.Duration
	speed    float64
	packets  int64
	eligible int
	err      error
}

// servePhase is how long the clients run between two timings of the
// reference loop: short against the drift of the host's speed, long
// against the idle tail of a phase (one client finishing its last
// campaign while the other waits).
const servePhase = 4 * time.Second

// serveLoad drives the closed-loop clients.
type serveLoad struct {
	c         *client
	spec      serveSpec
	cfg       runConfig
	seedOf    func(k int) (uint64, bool)
	warmBytes [][]byte
	tr        *tracer
	wl        string
	next      atomic.Int64
}

// phase runs the clients from start until the phase or the remaining
// budget is over (or, with a fixed operation count, until it is
// reached), and returns their checked operations.
func (l *serveLoad) phase(ctx context.Context, start time.Time, remaining time.Duration, speed float64) []serveOp {
	perClient := make([][]serveOp, l.spec.clients)
	var wg sync.WaitGroup
	for ci := range perClient {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ctx.Err() == nil && !l.phaseOver(start, remaining) {
				k := int(l.next.Add(1) - 1)
				if l.cfg.ops > 0 && k >= l.cfg.ops {
					return
				}
				perClient[ci] = append(perClient[ci], l.op(ctx, k, speed))
			}
		}(ci)
	}
	wg.Wait()
	var ops []serveOp
	for _, c := range perClient {
		ops = append(ops, c...)
	}
	return ops
}

// minServeOps is the fewest operations a time-budgeted run makes.
const minServeOps = 8

// phaseOver reports whether clients stop taking operations: after
// servePhase, or once the budget is spent, but never before the run has
// made minServeOps operations. With a fixed count only servePhase ends a
// phase.
func (l *serveLoad) phaseOver(start time.Time, remaining time.Duration) bool {
	if l.cfg.ops > 0 {
		return time.Since(start) >= servePhase
	}
	return l.next.Load() >= minServeOps && time.Since(start) >= min(servePhase, remaining)
}

// op runs and checks operation k.
func (l *serveLoad) op(ctx context.Context, k int, speed float64) serveOp {
	seed, cold := l.seedOf(k)
	s := l.tr.start(fmt.Sprintf("%s/op-%d", l.wl, k), "hobbitd POST /v1/campaigns + GET result", nil)
	got, post, res, err := l.c.campaign(ctx, l.spec, seed)
	l.tr.end(s)
	op := serveOp{k: k, cold: cold, total: post + res, result: res, speed: speed, err: err, ok: err == nil}
	switch {
	case err != nil:
	case !cold:
		op.ok = bytes.Equal(got, l.warmBytes[k%(l.spec.warm+1)])
		if !op.ok {
			op.err = fmt.Errorf("warm seed %d: result bytes differ from the setup run", seed)
		}
	default:
		var sum api.RunSummaryV1
		if err := json.Unmarshal(got, &sum); err != nil || sum.Final <= 0 || sum.Eligible <= 0 {
			op.ok = false
			op.err = fmt.Errorf("cold seed %d: result does not decode to a non-empty run summary", seed)
		} else {
			op.packets, op.eligible = sum.Pings+sum.Probes, sum.Eligible
		}
	}
	return op
}

// runServe starts the daemon, warms its result cache (setup), and then
// drives closed-loop clients for the budget. Operation k uses warm seed
// k mod (warm+1) unless that is the last slot, which takes a fresh seed:
// warm/(warm+1) of the operations are cache hits.
func runServe(ctx context.Context, cfg runConfig, wl string, spec serveSpec, tr *tracer) (*outcome, layerInput, error) {
	o := newOutcome()
	setup := time.Now()
	if cfg.blocks > 0 {
		spec.blocks = cfg.blocks
	}
	seedOf := func(k int) (uint64, bool) {
		slot := k % (spec.warm + 1)
		if slot == spec.warm {
			return cfg.seed*1_000_000 + 1000 + uint64(k), true
		}
		return cfg.seed*1_000_000 + uint64(slot) + 1, false
	}

	d, err := startDaemon(ctx, cfg.hobbitd)
	if err != nil {
		return nil, layerInput{}, err
	}
	defer d.stop()
	c := &client{base: "http://" + d.addr, http: &http.Client{Timeout: 2 * time.Minute}}

	// Warm the cache with the warm seeds, and check each daemon result
	// against the same campaign run in-process: identical deterministic
	// content, scored against ground truth.
	warmStart := time.Now()
	warmBytes := make([][]byte, spec.warm)
	var pooled harness.Report
	var in layerInput
	var localD time.Duration
	for j := 0; j < spec.warm && ctx.Err() == nil; j++ {
		seed, _ := seedOf(j)
		got, _, _, err := c.campaign(ctx, spec, seed)
		if err != nil {
			return nil, layerInput{}, fmt.Errorf("warming seed %d: %w", seed, err)
		}
		warmBytes[j] = got
		w, out, want, ld, err := localRun(ctx, spec, seed, o)
		if err != nil {
			return nil, layerInput{}, fmt.Errorf("local run of seed %d: %w", seed, err)
		}
		var sum api.RunSummaryV1
		if err := json.Unmarshal(got, &sum); err != nil {
			return nil, layerInput{}, fmt.Errorf("decoding warm result: %w", err)
		}
		if key, err := summaryKey(sum); err != nil || !bytes.Equal(key, want) {
			o.problem("seed %d: daemon result differs from the in-process run of the same campaign", seed)
		}
		r := harness.Score("", w, out)
		pooled.TP, pooled.FP, pooled.FN = pooled.TP+r.TP, pooled.FP+r.FP, pooled.FN+r.FN
		pooled.TN, pooled.MultiBlocks, pooled.PureBlocks = pooled.TN+r.TN, pooled.MultiBlocks+r.MultiBlocks, pooled.PureBlocks+r.PureBlocks
		if j == 0 {
			in = layerInput{world: w, seed: seed, opts: core.Options{}, want: digest(out.Final)}
			localD = ld
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, layerInput{}, err
	}
	o.set("setup.warm_s", time.Since(warmStart).Seconds(), spec.warm, "warm campaigns plus their in-process checks")
	o.set("faultplan.events", 0, 1, "clean worlds")
	pooled.Precision = frac(pooled.TP, pooled.TP+pooled.FP)
	pooled.Recall = frac(pooled.TP, pooled.TP+pooled.FN)
	pooled.Purity = frac(pooled.PureBlocks, pooled.MultiBlocks)
	pooled.Plan = wl
	o.set("precision", pooled.Precision, pooled.TP+pooled.FP, fmt.Sprintf("base: %d homogeneous verdicts over %d warm worlds", pooled.TP+pooled.FP, spec.warm))
	o.set("recall", pooled.Recall, pooled.TP+pooled.FN, fmt.Sprintf("base: %d truly homogeneous blocks", pooled.TP+pooled.FN))
	o.set("purity", pooled.Purity, pooled.MultiBlocks, fmt.Sprintf("base: %d multi-/24 final blocks", pooled.MultiBlocks))
	if err := pooled.Check(spec.floors); err != nil {
		o.problem("accuracy: %v", err)
	}
	before, err := c.countersOf(ctx)
	if err != nil {
		return nil, layerInput{}, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, layerInput{}, err
	}

	setupRaw := time.Since(setup)

	// Closed loop in phases: within a phase each client sends its next
	// operation only after the previous one returned; between phases the
	// daemon is idle while the reference loop times the host, and that
	// speed factor scales the next phase. Operation indices come from one
	// counter, so the seed sequence is fixed however the clients
	// interleave.
	l := &serveLoad{c: c, spec: spec, cfg: cfg, seedOf: seedOf, warmBytes: warmBytes, tr: tr, wl: wl}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var ops []serveOp
	var wall, scaledWall time.Duration
	for ctx.Err() == nil && (cfg.ops > 0 && int(l.next.Load()) < cfg.ops || cfg.ops == 0 && (wall < budget || l.next.Load() < minServeOps)) {
		speed, err := cfg.speed.factor()
		if err != nil {
			return nil, layerInput{}, err
		}
		start := time.Now()
		ops = append(ops, l.phase(ctx, start, budget-wall, speed)...)
		d := time.Since(start)
		wall += d
		scaledWall += time.Duration(float64(d) * speed)
	}
	if err := ctx.Err(); err != nil {
		return nil, layerInput{}, err
	}

	// In operation order, so the probing cost below averages the same
	// cold campaigns however the clients interleaved.
	sort.Slice(ops, func(i, j int) bool { return ops[i].k < ops[j].k })
	var all, cold, coldScaled, hits, results []float64
	var packets int64
	eligible, costed := 0, 0
	for _, op := range ops {
		o.op(op.ok)
		if !op.ok {
			o.problem("%v", op.err)
			continue
		}
		ms := 1000 * op.total.Seconds()
		all = append(all, ms)
		results = append(results, 1000*op.result.Seconds())
		if !op.cold {
			hits = append(hits, ms)
			continue
		}
		cold = append(cold, ms)
		coldScaled = append(coldScaled, ms*op.speed)
		if costed < costEpochs {
			costed++
			packets += op.packets
			eligible += op.eligible
		}
	}
	after, err := c.countersOf(ctx)
	if err != nil {
		return nil, layerInput{}, err
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, layerInput{}, err
	}
	rss, err := peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return nil, layerInput{}, err
	}
	if len(cold) == 0 {
		return o, layerInput{}, errors.New("no cold campaign completed")
	}
	setSetup(o, setupRaw, cfg.speed, "daemon start, warm campaigns, in-process checks")
	o.set("peak_rss_mb", rss, 1, "VmHWM of the hobbitd process")
	o.set("run_ms_p50", median(coldScaled), len(cold), "cold campaigns (cache misses): POST + GET result, at calibration-host speed")
	o.set("blocks_per_s", float64(spec.blocks*len(all))/scaledWall.Seconds(), len(all), "result /24s served per second of load, at calibration-host speed")
	o.set("probes_per_block", float64(packets)/float64(eligible), costed,
		fmt.Sprintf("base: %d eligible /24s of the first %d cold campaigns", eligible, costed))
	o.set("core.cpu_s_per_op", (cpu1-cpu0).Seconds()/float64(max(len(all), 1)), len(all), "hobbitd CPU per operation")
	submissions := after["serve.cache_hits"] - before["serve.cache_hits"] + after["serve.cache_misses"] - before["serve.cache_misses"]
	o.setRatio("serve.cache_hit_ratio", newRatio(float64(after["serve.cache_hits"]-before["serve.cache_hits"]), float64(submissions), "submissions"))
	o.set("serve.worlds_built", float64(after["serve.worlds_built"]-before["serve.worlds_built"]), 1, "during the load")
	setMonitorIdle(o)
	o.extra = append(o.extra, fmt.Sprintf("load: %d operations from %d closed-loop clients in %.2fs as measured, %d cold, %d cache hits; speed factor median %.3f",
		len(all), spec.clients, wall.Seconds(), len(cold), len(hits), median(cfg.speed.factors)))
	o.extra = append(o.extra, fmt.Sprintf("serve.hit_ms_p50 %.3f ms (n=%d), serve.miss_ms_p50 %.3f ms (n=%d), serve.result_ms_p50 %.3f ms (n=%d)",
		median(hits), len(hits), median(cold), len(cold), median(results), len(results)))
	if p95, err := percentile(all, 0.95); err == nil {
		o.extra = append(o.extra, fmt.Sprintf("req_ms_p95 %.3f ms (n=%d)", p95, len(all)))
	} else {
		o.extra = append(o.extra, "req_ms_p95 not reported: "+err.Error())
	}
	in.untraced = localD
	return o, in, nil
}

func frac(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
