package zmap

import (
	"context"
	"math/bits"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// This file holds the one-shot census sweep, the oracle the streamed
// census is checked against: it scans every block over a worker pool
// into index-addressed slots, then records actives and bumps the
// "census.…" counters serially in block order.

// ScanOptions configures a one-shot sweep.
type ScanOptions struct {
	// Workers bounds the sweep's concurrency (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Telemetry receives the "census.…" counters; nil disables them.
	Telemetry *telemetry.Registry
}

// ScanWith sweeps the blocks over a worker pool and merges the per-block
// bitmaps — and the census counters — serially in block order.
func ScanWith(s Scanner, blocks []iputil.Block24, opts ScanOptions) *Dataset {
	reg := opts.Telemetry
	scanPings := reg.Counter("census.scan_pings")
	responders := reg.Counter("census.responders")
	activeBlocks := reg.Counter("census.active_blocks")
	activePerBlock := reg.Histogram("census.active_per_block", []int64{4, 16, 64, 256})

	bms := make([][4]uint64, len(blocks))
	pool := parallel.Pool{Workers: opts.Workers, Telemetry: reg, Stage: "census"}
	_ = pool.ForEach(context.Background(), len(blocks), func(i int) {
		bms[i] = s.ScanBlock(blocks[i])
	})

	d := NewDataset()
	for i, b := range blocks {
		scanPings.Add(256)
		active := bits.OnesCount64(bms[i][0]) + bits.OnesCount64(bms[i][1]) +
			bits.OnesCount64(bms[i][2]) + bits.OnesCount64(bms[i][3])
		if active > 0 {
			cp := bms[i]
			d.active[b] = &cp
			responders.Add(int64(active))
			activeBlocks.Inc()
			activePerBlock.Observe(int64(active))
		}
	}
	return d
}
