// Package parallel is the sanctioned worker pool of the pipeline: a
// bounded, context-aware fan-out over an index space with a deterministic
// ordered merge. Post-campaign fan-outs over an index space (the MCL
// component sweeps and reprobe validation) run through this package, so
// concurrency policy (worker bounds, cancellation, telemetry accounting)
// lives in one place, and every worker it launches is joined before
// ForEach returns.
//
// The determinism contract: callers hand the pool an index space [0, n)
// and a function whose result for index i depends only on i and on
// inputs that existed before the fan-out. Results land in caller-owned,
// index-addressed storage (slot i of a pre-sized slice), and the caller
// merges them by ascending index after the pool drains. Scheduling then
// affects only *when* a slot is written, never *what* it holds or the
// order the merge reads it, so a Workers=1 run and a Workers=8 run
// produce byte-identical output.
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
