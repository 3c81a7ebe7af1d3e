package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at base, and
// fails the test if it is still above base after a few seconds.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spin burns a little CPU that varies with i, so workers finish out of
// input order.
func spin(i int) int {
	x := i
	for k := 0; k < (i*7919)%997; k++ {
		x = x*31 + k
	}
	return x
}

// TestOrderedInputOrder: results reach emit in input order at any worker
// count and window, however the workers interleave.
func TestOrderedInputOrder(t *testing.T) {
	const n = 2000
	for _, workers := range []int{1, 2, 8} {
		for _, window := range []int{1, 3, 32} {
			i := 0
			var got []int
			err := Ordered(context.Background(), workers, window, func() (int, bool) {
				if i == n {
					return 0, false
				}
				i++
				return i - 1, true
			}, func(i int) int {
				spin(i)
				return i
			}, func(r int) { got = append(got, r) })
			if err != nil {
				t.Fatalf("workers=%d window=%d: %v", workers, window, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: emitted %d of %d", workers, window, len(got), n)
			}
			for k, r := range got {
				if r != k {
					t.Fatalf("workers=%d window=%d: emitted %d at position %d", workers, window, r, k)
				}
			}
		}
	}
}

// TestOrderedWindowAndSerialNext: no item is handed out while window
// others are handed out and not yet emitted, and next never runs
// concurrently with itself, with slow emits stalling the feed.
func TestOrderedWindowAndSerialNext(t *testing.T) {
	const n = 3000
	for _, workers := range []int{2, 8} {
		window := 2 * workers
		var handed, emitted, inNext atomic.Int64
		var overlaps, overWindow atomic.Int64
		err := Ordered(context.Background(), workers, window, func() (int, bool) {
			if !inNext.CompareAndSwap(0, 1) {
				overlaps.Add(1)
			}
			defer inNext.Store(0)
			runtime.Gosched()
			if handed.Load() == n {
				return 0, false
			}
			if handed.Add(1)-emitted.Load() > int64(window) {
				overWindow.Add(1)
			}
			return int(handed.Load()) - 1, true
		}, spin, func(int) {
			// An item counts as emitted once emit returns, so a slow
			// emit must hold its item's place in the window.
			if emitted.Load()%50 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			emitted.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if emitted.Load() != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, emitted.Load(), n)
		}
		if overlaps.Load() > 0 {
			t.Errorf("workers=%d: next ran concurrently with itself %d times", workers, overlaps.Load())
		}
		if overWindow.Load() > 0 {
			t.Errorf("workers=%d: %d items were handed out past the %d-item window", workers, overWindow.Load(), window)
		}
	}
}

// TestOrderedCancel cancels an endless feed mid-stream: Ordered stops
// calling next, drains what is in flight and returns ctx.Err(), the
// emitted results are a prefix of the input, and no worker outlives it.
func TestOrderedCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		window := 2 * workers
		handed := 0
		var got []int
		err := Ordered(ctx, workers, window, func() (int, bool) {
			handed++
			return handed - 1, true
		}, spin, func(r int) {
			got = append(got, r)
			if len(got) == 100 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for k, r := range got {
			if r != spin(k) {
				t.Fatalf("workers=%d: emitted result %d is not input %d's", workers, k, k)
			}
		}
		// At cancel time at most window items were past the 99 emitted
		// ones, and at most one next call can have begun after it.
		if handed > 99+window+1 {
			t.Errorf("workers=%d: next handed out %d items, 100 emitted at cancel", workers, handed)
		}
		waitGoroutines(t, base, "cancelled Ordered")
	}
}

// TestOrderedEmptyFeed: an exhausted feed runs and emits nothing.
func TestOrderedEmptyFeed(t *testing.T) {
	calls := 0
	err := Ordered(context.Background(), 4, 8, func() (int, bool) {
		calls++
		return 0, false
	}, func(int) int {
		t.Error("fn ran on an empty feed")
		return 0
	}, func(int) { t.Error("emit ran on an empty feed") })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("next ran %d times on an empty feed, want 1", calls)
	}
}
