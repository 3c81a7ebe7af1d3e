package parallel

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/hobbitscan/hobbit/internal/telemetry"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		p := Pool{Workers: workers}
		n := 500
		hits := make([]int32, n)
		if err := p.ForEach(context.Background(), n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := Pool{Workers: workers}
		var done atomic.Int64
		err := p.ForEach(ctx, 10000, func(i int) {
			if done.Add(1) == 5 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := done.Load(); n == 0 || n == 10000 {
			t.Fatalf("workers=%d: cancellation did not land mid-run (%d items)", workers, n)
		}
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := Pool{Workers: 2, Telemetry: reg, Stage: "cluster"}
	if err := p.ForEach(context.Background(), 40, func(int) {}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.parallel_items"]; got != 40 {
		t.Errorf("parallel_items = %d, want 40", got)
	}
	if got := snap.Counters["cluster.parallel_runs"]; got != 1 {
		t.Errorf("parallel_runs = %d, want 1", got)
	}

	// Cancelled fan-outs are not counted: snapshots stay deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.ForEach(ctx, 40, func(int) {}); err == nil {
		t.Fatal("cancelled ForEach returned nil")
	}
	if got := reg.Snapshot().Counters["cluster.parallel_items"]; got != 40 {
		t.Errorf("cancelled run leaked into parallel_items: %d", got)
	}
}
