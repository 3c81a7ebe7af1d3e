package hobbit

import (
	"context"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Campaign measures many /24 blocks in parallel on an ordered pool, the
// way the paper's single-vantage measurement iterated over 3.37M blocks.
type Campaign struct {
	// Measurer is the per-block configuration; its Net must be safe for
	// concurrent use (SimNetwork is).
	Measurer *Measurer
	// Dataset supplies the census actives per block to Run (RunFeed and
	// RunStream take them from each FeedItem instead).
	Dataset *zmap.Dataset
	// Workers bounds concurrency; 0 uses GOMAXPROCS.
	Workers int
	// Telemetry receives per-block accounting ("campaign.…" counters and
	// histograms); nil disables it.
	Telemetry *telemetry.Registry
	// Progress receives one ProgressEvent per measured block, in campaign
	// order; nil disables it. Each event is emitted once the next block's
	// result (or the end of the run) is in, so the last event is the only
	// one with Done == Total. Stage names the emitting stage in events
	// (default "measure").
	Progress telemetry.Sink
	Stage    string
}

// Summary tallies a campaign by class.
type Summary struct {
	Counts map[Class]int
	Total  int
}

// Homogeneous returns the number of homogeneous blocks.
func (s Summary) Homogeneous() int {
	return s.Counts[ClassSameLastHop] + s.Counts[ClassNonHierarchical]
}

// Measurable returns the number of analyzable blocks.
func (s Summary) Measurable() int {
	return s.Homogeneous() + s.Counts[ClassHierarchical]
}

// Result is the output of a campaign run.
type Result struct {
	// Blocks maps each measured /24 to its outcome.
	Blocks map[iputil.Block24]*BlockResult
	// Order preserves the input block order for deterministic reports.
	Order []iputil.Block24
}

// Summary tallies the result.
func (r *Result) Summary() Summary {
	s := Summary{Counts: make(map[Class]int)}
	for _, br := range r.Blocks {
		s.Counts[br.Class]++
		s.Total++
	}
	return s
}

// HomogeneousBlocks returns the homogeneous /24s with their observed
// last-hop sets, sorted — the input to aggregation (Section 5).
func (r *Result) HomogeneousBlocks() []*BlockResult {
	var out []*BlockResult
	for _, b := range r.Order {
		if br, ok := r.Blocks[b]; ok && br.Class.Homogeneous() {
			out = append(out, br)
		}
	}
	return out
}

// ClassBlocks returns the blocks of one class in input order.
func (r *Result) ClassBlocks(c Class) []*BlockResult {
	var out []*BlockResult
	for _, b := range r.Order {
		if br, ok := r.Blocks[b]; ok && br.Class == c {
			out = append(out, br)
		}
	}
	return out
}

// loadReporter is the slice of probe.Instrumented the campaign needs for
// progress events; declared locally so the coupling stays structural.
type loadReporter interface {
	Pings() int64
	Probes() int64
}

// campaignMetrics caches the telemetry handles workers write to.
type campaignMetrics struct {
	measured  *telemetry.Counter
	classes   map[Class]*telemetry.Counter
	probed    *telemetry.Histogram
	responded *telemetry.Histogram
	degraded  *telemetry.Counter
}

func (c *Campaign) metrics() campaignMetrics {
	reg := c.Telemetry
	m := campaignMetrics{
		measured:  reg.Counter("campaign.blocks_measured"),
		classes:   make(map[Class]*telemetry.Counter),
		probed:    reg.Histogram("campaign.probed_per_block", []int64{8, 16, 32, 64, 128, 256}),
		responded: reg.Histogram("campaign.responded_per_block", []int64{4, 8, 16, 32, 64, 128, 256}),
		degraded:  reg.Counter("campaign.degraded_blocks"),
	}
	for _, cls := range []Class{
		ClassTooFewActive, ClassUnresponsiveLastHop,
		ClassSameLastHop, ClassNonHierarchical, ClassHierarchical,
	} {
		m.classes[cls] = reg.Counter("campaign.class." + cls.MetricName())
	}
	return m
}

func (c *Campaign) stage() string {
	if c.Stage != "" {
		return c.Stage
	}
	return "measure"
}

// Run measures the given blocks (typically Dataset.EligibleBlocks): it
// feeds them, with their census actives from Dataset, to RunFeed, so
// Result.Order is the input order and progress events carry the known
// total from the first block on. On cancellation it stops feeding,
// drains the in-flight blocks, and returns the measured prefix together
// with ctx.Err(). A nil error means every block was measured.
func (c *Campaign) Run(ctx context.Context, blocks []iputil.Block24) (*Result, error) {
	i := 0
	return c.RunFeed(ctx, func() (FeedItem, bool) {
		if i == len(blocks) {
			return FeedItem{}, false
		}
		b := blocks[i]
		i++
		return FeedItem{Block: b, By26: c.Dataset.ActivesBy26(b)}, true
	}, len(blocks), nil)
}
