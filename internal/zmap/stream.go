package zmap

import (
	"context"
	"runtime"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Chunk is one block-ordered slice of a streaming census: the blocks it
// covers (a contiguous run of the sweep's input) and the activity
// recorded for them. Start is the index of Blocks[0] in the input slice.
type Chunk struct {
	Start  int
	Blocks []iputil.Block24
	Data   *Dataset
}

// StreamOptions configures a streaming census sweep.
type StreamOptions struct {
	// Workers bounds the sweep's concurrency (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// ChunkSize is the number of blocks per emitted chunk (0 = a size
	// derived from the input, see chunkSize).
	ChunkSize int
	// Telemetry receives the "census.…" counters; nil disables them.
	Telemetry *telemetry.Registry
}

func (o StreamOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize resolves ChunkSize for an n-block sweep over the given
// workers. An explicit size wins; 0 derives one from the input — about
// four chunks per worker, clamped to [16, 1024] blocks — so a small
// universe still spreads over every worker while a large one keeps
// chunks big enough to amortize each hand-off.
func (o StreamOptions) chunkSize(n, workers int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return min(1024, max(16, (n+4*workers-1)/(4*workers)))
}

// Stream is the census: it sweeps every address of the given blocks
// through the scanner and emits the responders as block-ordered chunks
// over the returned channel, never materializing the full sweep (Collect
// does that for callers that need it). The chunks fan out over an
// ordered pool (parallel.Ordered) of Workers, each scanned into a fresh
// dataset; the emitter, the one goroutine Stream starts besides the
// pool's, then applies the "census.…" counters and sends each chunk
// strictly in input order, so the concatenated chunks — and every
// counter — are byte-identical at any worker count and chunk size
// (TestStreamMatchesScanWith pins this against a one-shot sweep).
//
// A chunk stays in the pool's window until the consumer has received
// it, and the window is 2× workers (minimum 2) chunks, so at most that
// many chunk datasets exist at a time: a slow consumer stalls the sweep
// instead of buffering it. The sweep's peak memory is one Dataset per
// in-flight chunk, so the window is what keeps a million-block census
// from materializing.
//
// The channel is closed when the sweep completes or ctx is cancelled;
// on cancellation the already-scanned prefix may be partially emitted.
func Stream(ctx context.Context, s Scanner, blocks []iputil.Block24, opts StreamOptions) <-chan Chunk {
	out := make(chan Chunk)
	go func() {
		defer close(out)
		n := len(blocks)
		if n == 0 {
			return
		}
		workers := opts.workers()
		cs := opts.chunkSize(n, workers)
		workers = min(workers, (n+cs-1)/cs)

		reg := opts.Telemetry
		scanPings := reg.Counter("census.scan_pings")
		responders := reg.Counter("census.responders")
		activeBlocks := reg.Counter("census.active_blocks")
		activePerBlock := reg.Histogram("census.active_per_block", []int64{4, 16, 64, 256})
		lo := 0
		next := func() (Chunk, bool) {
			if lo == n {
				return Chunk{}, false
			}
			c := Chunk{Start: lo, Blocks: blocks[lo:min(lo+cs, n)]}
			lo += len(c.Blocks)
			return c, true
		}
		scan := func(c Chunk) Chunk {
			c.Data = scanChunk(s, c.Blocks)
			return c
		}
		err := parallel.Ordered(ctx, workers, max(2, 2*workers), next, scan, func(c Chunk) {
			for _, b := range c.Blocks {
				scanPings.Add(256)
				if active := c.Data.ActiveCount(b); active > 0 {
					responders.Add(int64(active))
					activeBlocks.Inc()
					activePerBlock.Observe(int64(active))
				}
			}
			select {
			case out <- c:
			case <-ctx.Done():
			}
		})
		// Account the sweep the way internal/parallel accounts every
		// other fan-out ("<stage>.parallel_items/_runs"). Cancelled
		// sweeps, like cancelled ForEach runs, go uncounted.
		if err == nil {
			reg.Counter("census.parallel_items").Add(int64(n))
			reg.Counter("census.parallel_runs").Inc()
		}
	}()
	return out
}

// scanChunk sweeps one contiguous run of blocks serially into a fresh
// dataset — the per-chunk unit of work a Stream worker performs.
func scanChunk(s Scanner, blocks []iputil.Block24) *Dataset {
	// One bitmap array and one presized map per chunk keep the sweep at
	// a few allocations per chunk, not one per active block.
	bms := make([][4]uint64, len(blocks))
	d := &Dataset{active: make(map[iputil.Block24]*[4]uint64, len(blocks))}
	for i, b := range blocks {
		if bms[i] = s.ScanBlock(b); bms[i] != ([4]uint64{}) {
			d.active[b] = &bms[i]
		}
	}
	return d
}

// MergeChunk folds a streamed chunk into the dataset. Chunks of one
// stream cover disjoint blocks, so merging every chunk of a sweep (in any
// order) reproduces the full sweep's dataset exactly.
func (d *Dataset) MergeChunk(c Chunk) {
	for _, b := range c.Blocks {
		if bm, ok := c.Data.active[b]; ok {
			d.active[b] = bm
		}
	}
}

// Collect drains a stream into one dataset — the census for callers that
// need the whole sweep at once.
func Collect(ch <-chan Chunk) *Dataset {
	d := NewDataset()
	for c := range ch {
		d.MergeChunk(c)
	}
	return d
}
