package hobbit

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// FeedItem is one block handed to a streaming campaign: the /24 to
// measure and its census actives split by /26. Carrying the actives on
// the item lets a census stream feed the campaign chunk by chunk, with
// no materialized dataset behind the feeder.
type FeedItem struct {
	Block iputil.Block24
	By26  [4][]iputil.Addr
}

// RunStream measures blocks as a feeder produces them — the campaign's
// one worker pool. Workers drain feed through a bounded handout window;
// results are re-sequenced so that the sink — and the Result's Order —
// observe them strictly in feed order, no matter how the workers
// interleaved. A campaign fed the blocks of a one-shot block list
// therefore produces that list's exact Result, and a sink consuming
// results incrementally (the pipeline's aggregation) sees them in
// campaign order (TestRunStreamMatchesRun pins this).
//
// The re-sequencing window is bounded: a worker may hold at most one
// out-of-order result and at most 4×Workers items are in flight beyond
// the emitted prefix, so a single slow block stalls the feeder rather
// than buffering the campaign.
//
// Progress events carry Total 0 until the feed has closed, and the exact
// block count after that: a streamed census cannot know how many blocks
// are eligible until it ends.
//
// sink may be nil. On cancellation RunStream stops consuming the feed,
// drains in-flight blocks, and returns the emitted prefix together with
// ctx.Err(); Order then lists only the emitted blocks.
func (c *Campaign) RunStream(ctx context.Context, feed <-chan FeedItem, sink func(*BlockResult)) (*Result, error) {
	return c.run(ctx, func() (FeedItem, bool) {
		select {
		case it, ok := <-feed:
			return it, ok
		case <-ctx.Done():
			return FeedItem{}, false
		}
	}, 0, sink)
}

// run is the campaign: next yields the blocks in campaign order (false
// once they are exhausted or ctx is done) and known, when the caller
// knows it up front, is the progress events' Total (0 = learn it when
// next runs out).
func (c *Campaign) run(ctx context.Context, next func() (FeedItem, bool), known int, sink func(*BlockResult)) (*Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Blocks: make(map[iputil.Block24]*BlockResult, known)}
	met := c.metrics()
	load, _ := c.Measurer.Net.(loadReporter)

	type job struct {
		seq int
		it  FeedItem
	}
	type item struct {
		seq int
		br  *BlockResult
	}
	// gate holds one token per item handed out but not yet emitted to
	// the sink; the feeder takes a token before forwarding an item and
	// the collector returns it when the item leaves the reorder buffer.
	gate := make(chan struct{}, 4*workers)
	in := make(chan job)
	out := make(chan item)
	// total is the progress events' Total: the known length, else 0
	// until the feeder runs out of blocks.
	var total atomic.Int64
	total.Store(int64(known))
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range in {
				br := c.Measurer.MeasureBlock(j.it.Block, j.it.By26)
				met.measured.Inc()
				met.classes[br.Class].Inc()
				met.probed.Observe(int64(br.Probed))
				met.responded.Observe(int64(br.Responded))
				if br.Degraded > 0 {
					met.degraded.Inc()
				}
				out <- item{seq: j.seq, br: &br}
			}
		}()
	}
	go func() {
		defer func() {
			close(in)
			wg.Wait()
			close(out)
		}()
		seq := 0
		for {
			it, ok := next()
			if !ok {
				if ctx.Err() == nil {
					total.CompareAndSwap(0, int64(seq))
				}
				return
			}
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case in <- job{seq: seq, it: it}:
			case <-ctx.Done():
				return
			}
			seq++
		}
	}()

	// Each block's progress event is held until the next block is
	// emitted (or the run ends), so the final event is the only one that
	// can see Done == Total: a streamed feed's total is learned only when
	// the feed closes, which may be after the last result arrives.
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
	pending := make(map[int]*BlockResult)
	emitted := 0
	for it := range out {
		pending[it.seq] = it.br
		// Drain the contiguous prefix: bounded by len(pending), which the
		// gate caps at 4×workers, so no ctx check is needed per step.
		for br, ok := pending[emitted]; ok; br, ok = pending[emitted] {
			delete(pending, emitted)
			emitted++
			// A token was banked before this item was handed out, so the
			// receive never blocks on a healthy run; the Done case only
			// matters after cancellation, when tokens stop circulating.
			select {
			case <-gate:
			case <-ctx.Done():
			}
			res.Blocks[br.Block] = br
			res.Order = append(res.Order, br.Block)
			if sink != nil {
				sink(br)
			}
			if c.Progress != nil {
				flush()
				classes[br.Class.String()]++
				held = &telemetry.ProgressEvent{Stage: c.stage(), Done: emitted, Classes: classes}
				if load != nil {
					held.Pings = load.Pings()
					held.Probes = load.Probes()
				}
			}
		}
	}
	flush()
	return res, ctx.Err()
}
