package zmap

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// TestStreamMatchesScanWith pins the census determinism contract: the
// merged chunks of a Stream — and every census counter — must be
// byte-identical to the one-shot ScanWith oracle over the same world, at
// any worker count and chunk size, including chunk sizes that do not
// divide the block count.
func TestStreamMatchesScanWith(t *testing.T) {
	cfg := netsim.DefaultConfig(300)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regWant := telemetry.NewRegistry()
	want := ScanWith(w, w.Blocks(), ScanOptions{Workers: 4, Telemetry: regWant})
	snapWant := regWant.Snapshot()

	for _, tc := range []struct {
		name      string
		workers   int
		chunkSize int
	}{
		{"workers=1", 1, 64},
		{"workers=8", 8, 64},
		{"odd-chunk", 8, 37},
		{"one-chunk", 8, 100000},
		{"defaults", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			got := Collect(Stream(context.Background(), w, w.Blocks(), StreamOptions{
				Workers:   tc.workers,
				ChunkSize: tc.chunkSize,
				Telemetry: reg,
			}))
			if !got.Equal(want) || !want.Equal(got) {
				t.Fatal("streamed dataset differs from the ScanWith oracle")
			}
			snap := reg.Snapshot()
			if !reflect.DeepEqual(snap.Counters, snapWant.Counters) {
				t.Errorf("counters differ:\nstream: %v\nsweep:  %v", snap.Counters, snapWant.Counters)
			}
			if !reflect.DeepEqual(snap.Histograms, snapWant.Histograms) {
				t.Errorf("histograms differ:\nstream: %v\nsweep:  %v", snap.Histograms, snapWant.Histograms)
			}
		})
	}
}

// TestStreamChunksInOrder checks the chunk contract itself: contiguous
// block-ordered runs covering the input exactly once.
func TestStreamChunksInOrder(t *testing.T) {
	cfg := netsim.DefaultConfig(120)
	cfg.BigBlockScale = 0.02
	w := netsim.MustNew(cfg)
	blocks := w.Blocks()
	next := 0
	for c := range Stream(context.Background(), w, blocks, StreamOptions{Workers: 8, ChunkSize: 16}) {
		if c.Start != next {
			t.Fatalf("chunk starts at %d, want %d", c.Start, next)
		}
		for i, b := range c.Blocks {
			if b != blocks[next+i] {
				t.Fatalf("chunk block %d = %v, want %v", next+i, b, blocks[next+i])
			}
		}
		next += len(c.Blocks)
	}
	if next != len(blocks) {
		t.Fatalf("chunks covered %d blocks, want %d", next, len(blocks))
	}
}

// TestStreamDerivedChunks: with ChunkSize 0 the chunk size derives from
// the input, so a small universe still yields several chunks per worker
// instead of one serial chunk.
func TestStreamDerivedChunks(t *testing.T) {
	cfg := netsim.DefaultConfig(500)
	cfg.BigBlockScale = 0.02
	w := netsim.MustNew(cfg)
	blocks := w.Blocks()[:500]
	const workers = 2
	chunks := 0
	for range Stream(context.Background(), w, blocks, StreamOptions{Workers: workers}) {
		chunks++
	}
	if chunks < 2*workers {
		t.Fatalf("%d blocks on %d workers emitted %d chunks, want >= %d", len(blocks), workers, chunks, 2*workers)
	}
	// An explicit size is honoured.
	chunks = 0
	for range Stream(context.Background(), w, blocks, StreamOptions{Workers: workers, ChunkSize: 1024}) {
		chunks++
	}
	if chunks != 1 {
		t.Fatalf("ChunkSize 1024 over %d blocks emitted %d chunks, want 1", len(blocks), chunks)
	}
}

// TestStreamCancel checks that an abandoned consumer does not wedge the
// sweep: cancellation closes the channel after at most the in-flight
// window, and no goroutine of the sweep outlives it.
func TestStreamCancel(t *testing.T) {
	cfg := netsim.DefaultConfig(200)
	cfg.BigBlockScale = 0.02
	w := netsim.MustNew(cfg)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ch := Stream(ctx, w, w.Blocks(), StreamOptions{Workers: 4, ChunkSize: 8})
	if _, ok := <-ch; !ok {
		t.Fatal("stream closed before any chunk")
	}
	cancel()
	for range ch {
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled stream: %d goroutines still running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamEmpty: a zero-block sweep closes immediately.
func TestStreamEmpty(t *testing.T) {
	ch := Stream(context.Background(), bitmapScanner{}, nil, StreamOptions{})
	if _, ok := <-ch; ok {
		t.Fatal("empty stream emitted a chunk")
	}
}
