package hobbit

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// feedBlocks pushes the blocks (with their dataset actives) through a
// fresh feed channel the way the core pipeline's census feeder does.
func feedBlocks(c *Campaign, blocks []iputil.Block24) <-chan FeedItem {
	feed := make(chan FeedItem)
	go func() {
		defer close(feed)
		for _, b := range blocks {
			feed <- FeedItem{Block: b, By26: c.Dataset.ActivesBy26(b)}
		}
	}()
	return feed
}

// TestRunStreamMatchesRun pins the campaign's determinism contract: fed
// the blocks of a one-shot list, RunStream — and Run, its slice feeder —
// must produce the runOracle Result exactly — same verdicts, same Order,
// same counters — with the sink observing results strictly in feed
// order, at any worker count.
func TestRunStreamMatchesRun(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	if len(eligible) < 40 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	regWant := telemetry.NewRegistry()
	c.Workers, c.Telemetry = 4, regWant
	want, err := c.runOracle(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	snapWant := regWant.Snapshot()

	for _, tc := range []struct {
		name    string
		workers int
		slice   bool
	}{
		{"stream/workers=1", 1, false},
		{"stream/workers=8", 8, false},
		{"run/workers=8", 8, true},
	} {
		reg := telemetry.NewRegistry()
		c.Workers, c.Telemetry = tc.workers, reg
		var sunk []iputil.Block24
		var got *Result
		var err error
		if tc.slice {
			got, err = c.Run(context.Background(), eligible)
			sunk = got.Order
		} else {
			got, err = c.RunStream(context.Background(), feedBlocks(c, eligible), func(br *BlockResult) {
				sunk = append(sunk, br.Block)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Order, want.Order) {
			t.Fatalf("%s: Order differs from the oracle", tc.name)
		}
		if !reflect.DeepEqual(sunk, eligible) {
			t.Fatalf("%s: sink did not observe results in feed order", tc.name)
		}
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("%s: %d blocks, want %d", tc.name, len(got.Blocks), len(want.Blocks))
		}
		for b, br := range want.Blocks {
			if !reflect.DeepEqual(got.Blocks[b], br) {
				t.Fatalf("%s: block %v result differs", tc.name, b)
			}
		}
		snap := reg.Snapshot()
		if !reflect.DeepEqual(snap.Counters, snapWant.Counters) {
			t.Errorf("%s: counters differ:\ngot:    %v\noracle: %v",
				tc.name, snap.Counters, snapWant.Counters)
		}
		if !reflect.DeepEqual(snap.Histograms, snapWant.Histograms) {
			t.Errorf("%s: histograms differ", tc.name)
		}
	}
}

// TestRunStreamProgressTotal pins the progress contract of a streamed
// feed: Total is 0 until the feed has closed and exact after that, so
// every event carries 0 or the final count and only the last event
// claims Done == Total — at a handful of worker counts, with the feed
// closing as late as the last handout allows.
func TestRunStreamProgressTotal(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	for _, workers := range []int{1, 2, 8} {
		c.Workers = workers
		var events []telemetry.ProgressEvent
		c.Progress = telemetry.SinkFunc(func(ev telemetry.ProgressEvent) { events = append(events, ev) })
		if _, err := c.RunStream(context.Background(), feedBlocks(c, eligible), nil); err != nil {
			t.Fatal(err)
		}
		n := len(eligible)
		if len(events) != n {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(events), n)
		}
		for i, ev := range events {
			if ev.Total != 0 && ev.Total != n {
				t.Fatalf("workers=%d: event %d Total = %d, want 0 or %d", workers, i, ev.Total, n)
			}
			if last := i == n-1; (ev.Done == ev.Total) != last {
				t.Fatalf("workers=%d: event %d of %d has Done=%d Total=%d", workers, i+1, n, ev.Done, ev.Total)
			}
		}
	}
}

// TestRunStreamCancel: cancelling mid-campaign returns the emitted
// prefix (in feed order) with ctx.Err, and the feeder is not wedged.
func TestRunStreamCancel(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	c.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	feed := make(chan FeedItem)
	go func() {
		defer close(feed)
		for i, b := range eligible {
			if i == 10 {
				cancel()
			}
			select {
			case feed <- FeedItem{Block: b, By26: c.Dataset.ActivesBy26(b)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	res, err := c.RunStream(ctx, feed, nil)
	if err == nil {
		t.Fatal("cancelled RunStream returned nil error")
	}
	for i, b := range res.Order {
		if b != eligible[i] {
			t.Fatalf("partial Order[%d] = %v, want %v", i, b, eligible[i])
		}
	}
}

// TestRunStreamEmptyFeed: a feed that closes without items completes
// with an empty result.
func TestRunStreamEmptyFeed(t *testing.T) {
	_, c, _ := campaignWorld(t, 60)
	feed := make(chan FeedItem)
	close(feed)
	res, err := c.RunStream(context.Background(), feed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 || len(res.Order) != 0 {
		t.Fatalf("empty feed produced %d blocks", len(res.Blocks))
	}
}

// holdBlock is a probe.Network that holds every packet toward one /24
// until packets toward want other /24s have started, or until the
// deadline releases it.
type holdBlock struct {
	probe.Network
	held iputil.Block24
	want int

	mu       sync.Mutex
	started  map[iputil.Block24]bool
	released bool
	// timedOut is set when the deadline released the hold, and atTimeout
	// is how many other /24s had started by then.
	timedOut  bool
	atTimeout int
	release   chan struct{}
}

func (h *holdBlock) send(dst iputil.Addr) {
	b := dst.Block24()
	if b == h.held {
		<-h.release
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.started[b] = true
	if len(h.started) >= h.want {
		h.open(false)
	}
}

// open releases the hold once; h.mu must be held.
func (h *holdBlock) open(deadline bool) {
	if h.released {
		return
	}
	h.released, h.timedOut, h.atTimeout = true, deadline, len(h.started)
	close(h.release)
}

func (h *holdBlock) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	h.send(dst)
	return h.Network.Ping(dst, seq)
}

func (h *holdBlock) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	h.send(dst)
	return h.Network.Probe(dst, ttl, flowID, salt)
}

// TestRunFeedWorkConserving: a slow /24 does not park the other worker.
// With two workers, every packet toward the first eligible /24 waits
// until packets toward 64 later /24s have gone out. A reorder window
// that stops the free worker short of that stalls the campaign until
// the deadline releases the hold, and the test fails.
func TestRunFeedWorkConserving(t *testing.T) {
	const later = 64
	_, c, eligible := campaignWorld(t, 400)
	if len(eligible) <= later {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	h := &holdBlock{
		Network: c.Measurer.Net, held: eligible[0], want: later,
		started: make(map[iputil.Block24]bool), release: make(chan struct{}),
	}
	c.Measurer.Net = h
	c.Workers = 2
	deadline := time.AfterFunc(3*time.Second, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.open(true)
	})
	defer deadline.Stop()
	res, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(eligible) {
		t.Fatalf("measured %d of %d eligible blocks", len(res.Order), len(eligible))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.timedOut {
		t.Fatalf("started only %d of %d later blocks while the first was held", h.atTimeout, later)
	}
}
