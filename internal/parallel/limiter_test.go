package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLimiterBoundsConcurrency(t *testing.T) {
	const slots, tasks = 3, 50
	l := NewLimiter(slots)
	if l.Cap() != slots {
		t.Fatalf("Cap = %d, want %d", l.Cap(), slots)
	}
	var cur, peak, over atomic.Int64
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer l.Release()
			n := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n > slots {
				over.Add(1)
			}
		}()
	}
	wg.Wait()
	if over.Load() > 0 {
		t.Errorf("%d admissions exceeded the %d-slot bound (peak %d)", over.Load(), slots, peak.Load())
	}
	if l.InUse() != 0 {
		t.Errorf("InUse = %d after all releases", l.InUse())
	}
}

func TestLimiterAcquireCancellation(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A waiter blocked on a full limiter unblocks with ctx.Err.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- l.Acquire(ctx)
	}()
	cancel()
	wg.Wait()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("blocked Acquire = %v, want context.Canceled", err)
	}
	// A pre-cancelled context never steals a free slot.
	l.Release()
	if err := l.Acquire(ctx); err != context.Canceled {
		t.Fatalf("pre-cancelled Acquire = %v, want context.Canceled", err)
	}
	if l.InUse() != 0 {
		t.Fatalf("pre-cancelled Acquire leaked a slot (InUse = %d)", l.InUse())
	}
}

func TestLimiterReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release on an idle limiter did not panic")
		}
	}()
	NewLimiter(1).Release()
}

func TestLimiterDefaultCap(t *testing.T) {
	if NewLimiter(0).Cap() < 1 {
		t.Error("zero-slot default should be at least one slot")
	}
}
