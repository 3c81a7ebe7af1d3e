package parallel

import (
	"context"
	"runtime"
)

// Limiter is a context-aware counting semaphore: the admission-control
// sibling of Pool. Where Pool bounds the fan-out *inside* one pipeline
// stage, Limiter bounds how many long-lived activities — whole campaign
// runs in hobbitd — may hold a slot at once, with the same policy
// surface: 0 means GOMAXPROCS, cancellation is honored while waiting,
// and slots are handed out in FIFO arrival order (channel semantics), so
// a burst of admissions drains fairly instead of starving early waiters.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter with n slots (n <= 0 uses GOMAXPROCS).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Limiter{slots: make(chan struct{}, n)}
}

// Cap returns the number of slots.
func (l *Limiter) Cap() int { return cap(l.slots) }

// InUse returns the number of currently held slots (advisory: it may be
// stale by the time the caller reads it).
func (l *Limiter) InUse() int { return len(l.slots) }

// Acquire blocks until a slot is free or ctx is cancelled. It returns
// nil exactly when the caller now holds a slot and must eventually
// Release it; on cancellation it returns ctx.Err() and the caller holds
// nothing. A pre-cancelled context never steals a free slot.
func (l *Limiter) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire. Releasing a slot that was
// never acquired panics — that is a bookkeeping bug, not a recoverable
// condition.
func (l *Limiter) Release() {
	select {
	case <-l.slots:
	default:
		panic("parallel: Limiter.Release without a held slot")
	}
}
