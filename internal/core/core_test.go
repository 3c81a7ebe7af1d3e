package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

func testPipeline(t *testing.T, n int) (*netsim.World, *Pipeline) {
	t.Helper()
	cfg := netsim.DefaultConfig(n)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, &Pipeline{
		Net:     probe.NewSimNetwork(w),
		Scanner: w,
		Blocks:  w.Blocks(),
		Seed:    7,
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is slow")
	}
	w, p := testPipeline(t, 1200)
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Eligible) == 0 {
		t.Fatal("no eligible blocks")
	}
	sum := out.Campaign.Summary()
	if sum.Total != len(out.Eligible) {
		t.Fatalf("campaign covered %d of %d", sum.Total, len(out.Eligible))
	}
	if len(out.Aggregates) == 0 || len(out.Aggregates) > sum.Homogeneous() {
		t.Errorf("aggregates = %d of %d homogeneous", len(out.Aggregates), sum.Homogeneous())
	}
	if out.Clustering == nil {
		t.Fatal("clustering skipped unexpectedly")
	}
	// Final list is never longer than the aggregate list.
	if len(out.Final) > len(out.Aggregates) {
		t.Errorf("final %d > aggregates %d", len(out.Final), len(out.Aggregates))
	}
	// Conservation: final blocks cover exactly the aggregated /24s.
	total24 := 0
	for _, b := range out.Aggregates {
		total24 += b.Size()
	}
	final24 := 0
	for _, b := range out.Final {
		final24 += b.Size()
	}
	if total24 != final24 {
		t.Errorf("/24 conservation broken: %d -> %d", total24, final24)
	}
	// Validated clusters must merge (when any exist).
	merged := 0
	for id, v := range out.Validations {
		if v.Homogeneous {
			merged++
		}
		_ = id
	}
	if merged > 0 && len(out.Final) >= len(out.Aggregates) {
		t.Error("validated clusters did not reduce the block count")
	}
	// True aggregates of the world should mostly survive as single
	// final blocks: spot-check one multi-/24 pop.
	pops := w.BigBlockPops()
	if egi := pops["egi"]; len(egi) > 0 {
		blocks := w.AggregateBlocks(egi[0])
		// Count how many final blocks the pop's measured /24s are
		// spread across.
		owner := make(map[int]bool)
		for _, b := range blocks {
			for _, fb := range out.Final {
				for _, m := range fb.Blocks24 {
					if m == b {
						owner[fb.ID] = true
					}
				}
			}
		}
		if len(owner) > len(blocks) {
			t.Errorf("egi pop fragmented into %d final blocks", len(owner))
		}
	}
}

func TestPipelineSkipClustering(t *testing.T) {
	_, p := testPipeline(t, 300)
	p.SkipClustering = true
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Clustering != nil || out.Validations != nil {
		t.Error("clustering artifacts present despite skip")
	}
	if len(out.Final) != len(out.Aggregates) {
		t.Error("final should equal aggregates when skipping")
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := (&Pipeline{}).Run(context.Background()); err == nil {
		t.Error("missing Net/Scanner should error")
	}
	w, _ := testPipeline(t, 100)
	p := &Pipeline{Net: probe.NewSimNetwork(w), Scanner: w}
	if _, err := p.Run(context.Background()); err == nil {
		t.Error("missing blocks should error")
	}
}

func TestPipelineCancellation(t *testing.T) {
	_, p := testPipeline(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first stage boundary
	out, err := p.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil || out.Dataset == nil {
		t.Fatal("partial output lost on cancellation")
	}
	// No measurement happened, but the partial artifacts are coherent.
	if out.Campaign != nil && out.Campaign.Summary().Total != 0 {
		t.Errorf("cancelled run still measured %d blocks", out.Campaign.Summary().Total)
	}
	if len(out.Final) != 0 {
		t.Error("cancelled run produced final blocks")
	}
}

// waitGoroutines polls until the goroutine count is back at base, and
// fails after a few seconds: no goroutine a Run starts may outlive it.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, %d before Run", what, n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelAfter is a probe.Network that cancels a run's context when the
// n-th probe goes out. The trigger sits on the probing side, so no /24
// is handed out after it however far the campaign's workers may run
// ahead of the emitted prefix.
type cancelAfter struct {
	probe.Network
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Network.Probe(dst, ttl, flowID, salt)
}

// TestPipelineMidCampaignCancellation cancels a run from inside its
// campaign: Run returns the partial artifacts with context.Canceled, and
// neither that run nor a completed one leaves a goroutine behind.
func TestPipelineMidCampaignCancellation(t *testing.T) {
	_, p := testPipeline(t, 400)
	base := runtime.NumGoroutine()
	full, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "completed run")
	p.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the campaign, after a few hundred probes.
	net := &cancelAfter{Network: p.Net, cancel: cancel}
	net.left.Store(300)
	p.Net = net
	base = runtime.NumGoroutine()
	out, err := p.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "cancelled run")
	sum := out.Campaign.Summary()
	if sum.Total == 0 {
		t.Error("mid-campaign cancellation lost the partial result")
	}
	// The census streams, so a cancelled run's Eligible is only the
	// prefix the census reached: compare against an uncancelled run.
	if sum.Total >= len(full.Eligible) {
		t.Errorf("cancellation did not stop the campaign early: measured %d of %d eligible", sum.Total, len(full.Eligible))
	}
	for i, b := range out.Campaign.Order {
		if b != full.Eligible[i] {
			t.Fatalf("partial campaign Order[%d] = %v, want the eligible prefix %v", i, b, full.Eligible[i])
		}
	}
}

// TestPipelineTelemetryDeterministic runs two same-seed pipelines over two
// same-seed worlds and requires byte-identical counter snapshots (timings
// excluded): the telemetry layer doubles as a regression check on
// measurement load.
func TestPipelineTelemetryDeterministic(t *testing.T) {
	snap := func() []byte {
		_, p := testPipeline(t, 300)
		p.Telemetry = telemetry.NewRegistry()
		p.Net = probe.Instrument(p.Net, p.Telemetry, StageMeasure)
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		j, err := p.Telemetry.MarshalCounters()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j1, j2 := snap(), snap()
	if !bytes.Equal(j1, j2) {
		t.Errorf("same-seed counter snapshots differ:\n%s\n%s", j1, j2)
	}
}

// TestPipelineOutputDeterministic is the determinism regression check the
// lint suite exists to protect: full same-seed pipeline runs over
// same-seed worlds must serialize to byte-identical JSON — block lists,
// cluster validations, everything an operator would diff between runs —
// no matter how the work was sharded. It compares a serial
// (ClusterWorkers=1) run against parallel (ClusterWorkers=8) runs, which
// checks both cross-configuration equality and that the parallel path is
// self-deterministic.
func TestPipelineOutputDeterministic(t *testing.T) {
	run := func(clusterWorkers int) []byte {
		_, p := testPipeline(t, 300)
		p.Workers = 4 // concurrency must not leak into the result
		p.ClusterWorkers = clusterWorkers
		out, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(struct {
			Eligible    interface{}
			Aggregates  interface{}
			Validations interface{}
			Validated   interface{}
			Final       interface{}
		}{out.Eligible, out.Aggregates, out.Validations, out.Validated, out.Final})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	serial := run(1)
	parallel1, parallel2 := run(8), run(8)
	if !bytes.Equal(serial, parallel1) {
		t.Errorf("serial (ClusterWorkers=1) and parallel (ClusterWorkers=8) outputs differ:\n%.400s\n%.400s",
			serial, parallel1)
	}
	if !bytes.Equal(parallel1, parallel2) {
		t.Errorf("same-seed parallel pipeline outputs differ:\n%.400s\n%.400s", parallel1, parallel2)
	}
}

// TestPipelineTelemetryCoverage checks that one instrumented run populates
// every stage span and the load counters of each stage.
func TestPipelineTelemetryCoverage(t *testing.T) {
	_, p := testPipeline(t, 300)
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	p.Net = probe.Instrument(p.Net, reg, StageMeasure)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	stages := make(map[string]bool)
	for _, s := range snap.Stages {
		if s.Running {
			t.Errorf("stage %s still running after Run returned", s.Name)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{StageCensus, StageMeasure, StageAggregate, StageCluster, StageValidate} {
		if !stages[want] {
			t.Errorf("no span recorded for stage %s", want)
		}
	}
	for _, c := range []string{
		"census.scan_pings", "census.responders", "census.eligible_blocks",
		"campaign.blocks_measured",
		"probe.measure.pings", "probe.measure.probes",
		"aggregate.blocks_out", "cluster.components",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s is zero", c)
		}
	}
	// Reprobe load is attributed to the validate stage (when any cluster
	// needed validation at this scale).
	if snap.Counters["validate.pairs_checked"] > 0 && snap.Counters["probe.validate.probes"] == 0 {
		t.Error("validation reprobes not attributed to the validate stage")
	}
	if snap.Histograms["campaign.probed_per_block"].Count == 0 {
		t.Error("probed_per_block histogram empty")
	}
	if snap.Counters["campaign.blocks_measured"] != snap.Counters["census.eligible_blocks"] {
		t.Errorf("measured %d blocks of %d eligible",
			snap.Counters["campaign.blocks_measured"], snap.Counters["census.eligible_blocks"])
	}
}

// lossyHopNet scripts a two-/24 universe for loss detection: every
// address answers pings (reply TTL 56, so the inferred walk starts at hop
// 7) and echoes at hop 12 behind a single per-block last-hop router at
// hop 11, making both blocks measure homogeneous. Addresses in the
// faulted block additionally lose the probing window of every flow but
// flow 0 at hop 7 — exactly where the walk starts. The hop answers, so
// the windows that die after flow 0's are loss, not an anonymous router:
// they die in a row and each MDA run degrades. The type is stateless,
// hence safe for any worker count, and doubles as the census scanner
// (everything is active).
type lossyHopNet struct {
	faulted iputil.Block24
}

func (n *lossyHopNet) ScanBlock(iputil.Block24) [4]uint64 {
	return [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

func (n *lossyHopNet) Ping(iputil.Addr, int) (probe.PingResult, bool) {
	return probe.PingResult{RespTTL: 56}, true
}

func (n *lossyHopNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	faulted := dst.Block24() == n.faulted
	switch {
	case faulted && ttl == 7 && flowID != 0:
		return probe.Result{}
	case ttl >= 12:
		return probe.Result{Kind: probe.EchoReply}
	case ttl == 11:
		lh := iputil.Addr(0x0a000001)
		if faulted {
			lh = 0x0b000001
		}
		return probe.Result{Kind: probe.TTLExceeded, From: lh}
	default:
		return probe.Result{Kind: probe.TTLExceeded, From: 0x63000000 + iputil.Addr(ttl)}
	}
}

// TestPipelineDegradedBlockAggregates pins that loss detection only
// reports, end to end: a block measured through a lossy hop is marked
// degraded, still measures homogeneous, and aggregates like the clean
// block beside it.
func TestPipelineDegradedBlockAggregates(t *testing.T) {
	clean := iputil.Addr(0x0a000100).Block24()
	faulted := iputil.Addr(0x0a000200).Block24()
	net := &lossyHopNet{faulted: faulted}
	reg := telemetry.NewRegistry()
	p := &Pipeline{Net: net, Scanner: net, Blocks: []iputil.Block24{clean, faulted}, Seed: 7, Telemetry: reg}
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	br := out.Campaign.Blocks[faulted]
	if br == nil || !br.Class.Homogeneous() || br.Degraded == 0 {
		t.Fatalf("faulted block: %+v, want homogeneous and degraded", br)
	}
	if br := out.Campaign.Blocks[clean]; br == nil || br.Degraded != 0 {
		t.Fatalf("clean block: %+v, want nothing degraded", br)
	}
	if got := reg.Counter("campaign.degraded_blocks").Value(); got != 1 {
		t.Errorf("campaign.degraded_blocks = %d, want 1", got)
	}
	for _, list := range [][]*aggregate.Block{out.Aggregates, out.Final} {
		found := false
		for _, b := range list {
			found = found || slices.Contains(b.Blocks24, faulted)
		}
		if !found || len(list) != 2 {
			t.Errorf("%d blocks, the degraded /24 among them: %v; want both /24s", len(list), found)
		}
	}
}

// TestPipelineGoroutineBound pins the pipelined stages' goroutine budget:
// for W workers each, the census and the campaign run on 2W+1 goroutines
// besides Run's own (the two ordered pools' workers and the census
// emitter). The sink samples the count, and a small chunk size keeps the
// census window open while the campaign measures.
func TestPipelineGoroutineBound(t *testing.T) {
	_, p := testPipeline(t, 400)
	const w = 4
	p.Workers, p.CensusWorkers, p.StreamChunk = w, w, 8
	base := runtime.NumGoroutine()
	peak := 0
	p.ResultSink = func(*hobbit.BlockResult) { peak = max(peak, runtime.NumGoroutine()-base) }
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if peak > 2*w+1 {
		t.Errorf("census and campaign ran %d goroutines at once for %d workers each, want at most %d", peak, w, 2*w+1)
	}
}
