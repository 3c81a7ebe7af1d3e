// Package parallel holds the pipeline's worker pools, so concurrency
// policy (worker bounds, cancellation, telemetry accounting) lives in
// one place and every worker a pool launches has stopped before the
// fan-out returns. Two fan-outs cover every production stage:
//
//   - Pool.ForEach fans an index space [0, n) out over workers that
//     claim indices from one atomic cursor: the MCL component sweeps,
//     reprobe validation and the evaluation's trace corpus.
//   - Ordered, the ordered pool, fans out a feed of unknown length with
//     at most a window of items in flight, and emits the results in
//     input order: the census (zmap.Stream) and the measurement
//     campaign the census feeds (hobbit.Campaign.RunFeed).
//
// The determinism contract: an item's result depends only on the item
// and on inputs that existed before the fan-out. ForEach results land in
// caller-owned, index-addressed storage (slot i of a pre-sized slice)
// that the caller merges by ascending index; Ordered emits them in input
// order itself. Scheduling then affects only *when* a result is
// computed, never *what* it holds or the order it is merged in, so a
// Workers=1 run and a Workers=8 run produce byte-identical output.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Pool bounds and observes a family of fan-outs. The zero value is ready
// to use: GOMAXPROCS workers, no telemetry.
type Pool struct {
	// Workers bounds concurrency: 0 uses GOMAXPROCS, 1 runs serially on
	// the calling goroutine.
	Workers int
	// Telemetry receives "<Stage>.parallel_items" / "<Stage>.parallel_runs"
	// counters for completed fan-outs; nil (or an empty Stage) disables
	// the accounting. Cancelled fan-outs are not counted, so counter
	// snapshots stay deterministic for a fixed seed.
	Telemetry *telemetry.Registry
	// Stage is the metric-name prefix, following the stage.metric_name
	// convention ("cluster", "validate").
	Stage string
}

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// count records a completed fan-out of n items.
func (p Pool) count(n int) {
	if p.Telemetry == nil || p.Stage == "" {
		return
	}
	p.Telemetry.Counter(p.Stage + ".parallel_items").Add(int64(n))
	p.Telemetry.Counter(p.Stage + ".parallel_runs").Inc()
}

// ForEach invokes fn(i) once for every i in [0, n), running at most
// Workers goroutines. Indices are handed out dynamically, so uneven
// per-item cost load-balances; fn must therefore write its result only
// into index-addressed storage it owns (slot i), never append to shared
// state. Cancellation is checked between items: on ctx cancellation
// ForEach stops handing out indices, drains in-flight items, and returns
// ctx.Err() — completed slots remain valid.
func (p Pool) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		p.count(n)
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go claim(ctx, &wg, &next, n, fn)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	p.count(n)
	return nil
}

// claim is one ForEach worker: it draws indices from the shared cursor
// until the space is exhausted or the context is cancelled, and signals
// the pool's WaitGroup on exit.
func claim(ctx context.Context, wg *sync.WaitGroup, next *atomic.Int64, n int, fn func(int)) {
	defer wg.Done()
	for ctx.Err() == nil {
		i := int(next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(i)
	}
}
