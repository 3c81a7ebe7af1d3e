package hobbit

import (
	"context"
	"runtime"
	"sync/atomic"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// FeedItem is one block handed to a streaming campaign: the /24 to
// measure and its census actives split by /26. Carrying the actives on
// the item lets a census stream feed the campaign chunk by chunk, with
// no materialized dataset behind the feed.
type FeedItem struct {
	Block iputil.Block24
	By26  [4][]iputil.Addr
}

// reorderDepth is how many blocks per worker RunFeed lets finish past
// the oldest one not yet emitted. Work per /24 is uneven by design (a
// /24 stops at six responders behind one last hop, while a hierarchical
// one is probed much further), and a worker that reaches the end of the
// window waits for the slow block. Process CPU over wall time of a
// clean-100k-shaped Pipeline.Run (100,000 /24s, scale 0.05) on a 2-CPU
// host, median of 5 rounds at seeds 7 and 11, read 1.76 at 4 per
// worker, 1.91–1.92 at 32, 1.92–1.93 at 64, 1.93–1.94 at 128 and 1.95
// at 256, so 128 is on the plateau. Every slot costs about 17 bytes,
// allocated per RunFeed call, so a feed of known length gets no more
// slots than it has blocks.
const reorderDepth = 128

// RunStream is RunFeed over a channel: it measures the blocks feed
// carries until feed closes or ctx is done.
func (c *Campaign) RunStream(ctx context.Context, feed <-chan FeedItem, sink func(*BlockResult)) (*Result, error) {
	return c.RunFeed(ctx, func() (FeedItem, bool) {
		select {
		case it, ok := <-feed:
			return it, ok
		case <-ctx.Done():
			return FeedItem{}, false
		}
	}, 0, sink)
}

// RunFeed is the campaign: it measures the blocks next yields on an
// ordered pool (parallel.Ordered) of Workers, and hands each result to
// sink, and to the Result's Order, strictly in feed order, no matter how
// the workers interleaved. A campaign fed the blocks of a one-shot block
// list therefore produces that list's exact Result, and a sink consuming
// results incrementally (the pipeline's aggregation) sees them in
// campaign order (TestRunStreamMatchesRun pins this). next runs on the
// pool's workers, one call at a time. Workers may finish up to
// reorderDepth×Workers blocks past the oldest unemitted one, or known
// blocks when that is fewer: deep enough that one slow block does not
// park the other workers (TestRunFeedWorkConserving), and bounded, so a
// stalled block or sink stalls the feed rather than buffering the
// campaign.
//
// known, when the caller knows it up front, is the progress events'
// Total. With known 0 they carry Total 0 until next has run out and the
// exact block count after that: a streamed census cannot know how many
// blocks are eligible until it ends.
//
// sink may be nil; it runs on the calling goroutine. On cancellation
// RunFeed stops calling next, drains in-flight blocks, and returns the
// emitted prefix together with ctx.Err(); Order then lists only the
// emitted blocks.
func (c *Campaign) RunFeed(ctx context.Context, next func() (FeedItem, bool), known int, sink func(*BlockResult)) (*Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Blocks: make(map[iputil.Block24]*BlockResult, known)}
	met := c.metrics()
	load, _ := c.Measurer.Net.(loadReporter)

	// total is the progress events' Total: the known length, else 0
	// until next runs out. fed counts the blocks next yielded; only the
	// pool's one-at-a-time next calls touch it.
	var total atomic.Int64
	total.Store(int64(known))
	fed := 0
	feed := func() (FeedItem, bool) {
		it, ok := next()
		if ok {
			fed++
		} else if ctx.Err() == nil {
			total.CompareAndSwap(0, int64(fed))
		}
		return it, ok
	}
	measure := func(it FeedItem) *BlockResult {
		br := c.Measurer.MeasureBlock(it.Block, it.By26)
		met.measured.Inc()
		met.classes[br.Class].Inc()
		met.probed.Observe(int64(br.Probed))
		met.responded.Observe(int64(br.Responded))
		if br.Degraded > 0 {
			met.degraded.Inc()
		}
		return &br
	}

	// Each block's progress event is held until the next block is
	// emitted (or the run ends), so the final event is the only one that
	// can see Done == Total: a streamed feed's total is learned only when
	// the feed runs out, which may be after the last result arrives.
	var classes map[string]int
	var held *telemetry.ProgressEvent
	flush := func() {
		if held != nil {
			held.Total = int(total.Load())
			c.Progress.Emit(*held)
			held = nil
		}
	}
	if c.Progress != nil {
		classes = make(map[string]int)
	}
	window := reorderDepth * workers
	if known > 0 {
		window = min(window, known)
	}
	err := parallel.Ordered(ctx, workers, window, feed, measure, func(br *BlockResult) {
		res.Blocks[br.Block] = br
		res.Order = append(res.Order, br.Block)
		if sink != nil {
			sink(br)
		}
		if c.Progress != nil {
			flush()
			classes[br.Class.String()]++
			held = &telemetry.ProgressEvent{Stage: c.stage(), Done: len(res.Order), Classes: classes}
			if load != nil {
				held.Pings = load.Pings()
				held.Probes = load.Probes()
			}
		}
	})
	flush()
	return res, err
}
