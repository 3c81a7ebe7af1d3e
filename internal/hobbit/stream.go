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
// pool's workers, one call at a time, and at most 4×Workers blocks are
// in flight past the emitted prefix, so a single slow block stalls the
// feed rather than buffering the campaign.
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
	err := parallel.Ordered(ctx, workers, 4*workers, feed, measure, func(br *BlockResult) {
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
