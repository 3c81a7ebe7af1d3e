package hobbit

import (
	"context"
	"runtime"
	"sync"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// runOracle is the one-shot form of the campaign, the oracle RunStream
// and Run are checked against: every block is handed to an unordered
// worker pool and results are keyed by block, with Order copied from the
// input.
func (c *Campaign) runOracle(ctx context.Context, blocks []iputil.Block24) (*Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{
		Blocks: make(map[iputil.Block24]*BlockResult, len(blocks)),
		Order:  append([]iputil.Block24(nil), blocks...),
	}
	met := c.metrics()

	type item struct {
		b  iputil.Block24
		br *BlockResult
	}
	in := make(chan iputil.Block24)
	out := make(chan item)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range in {
				br := c.Measurer.MeasureBlock(b, c.Dataset.ActivesBy26(b))
				met.measured.Inc()
				met.classes[br.Class].Inc()
				met.probed.Observe(int64(br.Probed))
				met.responded.Observe(int64(br.Responded))
				if br.Degraded > 0 {
					met.degraded.Inc()
				}
				if br.LowConfidence() {
					met.lowConf.Inc()
				}
				out <- item{b: b, br: &br}
			}
		}()
	}
	go func() {
		defer func() {
			close(in)
			wg.Wait()
			close(out)
		}()
		for _, b := range blocks {
			select {
			case in <- b:
			case <-ctx.Done():
				return
			}
		}
	}()
	for it := range out {
		res.Blocks[it.b] = it.br
	}
	return res, ctx.Err()
}
