package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Ordered is the ordered pool, the fan-out over a feed: it runs fn over
// the items next yields on up to workers goroutines (0 = GOMAXPROCS) and
// hands every result to emit in input order, on the calling goroutine.
//
// Workers take items under one lock, so next never runs concurrently
// with itself and may keep unsynchronized state. next may block waiting
// for its input, and the other workers then wait for the lock; it
// returns false once the feed is exhausted, and its last call happens
// before Ordered returns.
//
// At most window items are in flight past the emitted prefix: a worker
// holds one of window tokens from before it asks next for an item until
// emit has returned that item's result, so a slow item or a slow emit
// stalls the feed instead of buffering results.
//
// Ordered starts no goroutine but its workers, and every worker has
// stopped when it returns. On cancellation it stops calling next, lets
// the in-flight items finish, emits those that extend the emitted
// prefix, and returns ctx.Err(): the emitted results are then a prefix
// of the input.
func Ordered[T, R any](ctx context.Context, workers, window int, next func() (T, bool), fn func(T) R, emit func(R)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window = max(window, 1)
	workers = min(workers, window)

	var mu sync.Mutex
	handed, drained := 0, false
	take := func() (it T, i int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if !drained && ctx.Err() == nil {
			it, ok = next()
		}
		if drained = !ok; ok {
			handed++
		}
		return it, handed - 1, ok
	}
	gate := make(chan struct{}, window)
	// Item i's result waits in slots[i%window] from when it finishes
	// until it is emitted; the tokens keep i+window from being handed
	// out before then. finished carries each finished item's index, and
	// -1 from each worker as it stops, and is sized so that no send
	// blocks.
	slots := make([]R, window)
	finished := make(chan int, window+workers)
	for range workers {
		go func() {
			defer func() { finished <- -1 }()
			for {
				select {
				case gate <- struct{}{}:
				case <-ctx.Done():
					return
				}
				it, i, ok := take()
				if !ok {
					<-gate // the token goes back to a waiting worker
					return
				}
				slots[i%window] = fn(it)
				finished <- i
			}
		}()
	}

	done := make([]bool, window)
	for emitted, live := 0, workers; live > 0; {
		i := <-finished
		if i < 0 {
			live--
			continue
		}
		done[i%window] = true
		for ; done[emitted%window]; emitted++ {
			k := emitted % window
			emit(slots[k])
			slots[k], done[k] = *new(R), false
			<-gate
		}
	}
	return ctx.Err()
}
