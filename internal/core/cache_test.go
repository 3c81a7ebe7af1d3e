package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// blockCounter is a probe.Network that counts the packets sent toward
// each /24.
type blockCounter struct {
	probe.Network

	mu   sync.Mutex
	sent map[iputil.Block24]int
}

func (c *blockCounter) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	c.count(dst)
	return c.Network.Ping(dst, seq)
}

func (c *blockCounter) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	c.count(dst)
	return c.Network.Probe(dst, ttl, flowID, salt)
}

func (c *blockCounter) count(dst iputil.Addr) {
	c.mu.Lock()
	c.sent[dst.Block24()]++
	c.mu.Unlock()
}

// take returns the per-/24 packet counts since the last take.
func (c *blockCounter) take() map[iputil.Block24]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent := c.sent
	c.sent = make(map[iputil.Block24]int)
	return sent
}

func packets(sent map[iputil.Block24]int) int {
	n := 0
	for _, k := range sent {
		n += k
	}
	return n
}

// TestValidationCache drives ValidateClusters with and without a cache
// over one measured and clustered 600-/24 world, at four validation
// workers (they share the cache's answer map, so run it under -race):
//   - a first cached call sends exactly the uncached call's packets, /24
//     by /24, and reuses nothing;
//   - a second call, after an eviction of nothing, reuses every
//     validation and sends no packet;
//   - evicting one member /24 recomputes only its cluster and reprobes
//     only that /24;
//   - evicting everything brings back the first call's packets.
//
// Every call's validations and final blocks equal the uncached call's.
func TestValidationCache(t *testing.T) {
	ctx := context.Background()
	_, p := testPipeline(t, 600)
	net := &blockCounter{Network: p.Net, sent: make(map[iputil.Block24]int)}
	p.Net, p.ClusterWorkers = net, 4
	str := (&cluster.Pipeline{Workers: p.ClusterWorkers}).Stream()
	agg := NewAggregation(str)
	out, err := p.Measure(ctx, StageMeasure, agg.Add)
	if err != nil {
		t.Fatal(err)
	}
	agg.Finish(out, nil)
	out.Clustering = str.Finish()
	clusters := out.Clustering.Clusters
	net.take()

	if _, err := p.ValidateClusters(ctx, StageValidate, out, agg, nil); err != nil {
		t.Fatal(err)
	}
	live := net.take()
	want, wantFinal := out.Validations, out.Final
	if len(clusters) < 2 || packets(live) == 0 {
		t.Fatalf("%d clusters validated with %d packets; the check would compare nothing", len(clusters), packets(live))
	}

	var cache ValidationCache
	validate := func(step string, wantReused int) map[iputil.Block24]int {
		t.Helper()
		reused, err := p.ValidateClusters(ctx, StageValidate, out, agg, &cache)
		if err != nil {
			t.Fatal(err)
		}
		if reused != wantReused {
			t.Errorf("%s: reused %d of %d validations, want %d", step, reused, len(clusters), wantReused)
		}
		if !reflect.DeepEqual(out.Validations, want) || !reflect.DeepEqual(out.Final, wantFinal) {
			t.Errorf("%s: validations or final blocks differ from the uncached call's", step)
		}
		return net.take()
	}

	if first := validate("first call", 0); !reflect.DeepEqual(first, live) {
		t.Errorf("first cached call sent %d packets, the uncached call %d, or to other /24s", packets(first), packets(live))
	}
	cache.Evict(nil, false)
	if again := validate("second call", len(clusters)); len(again) != 0 {
		t.Errorf("second call sent %d packets, want none", packets(again))
	}

	// Evict a member /24 the uncached call reprobed with live packets.
	var changed iputil.Block24
	for _, c := range clusters {
		if b := c.Blocks24()[0]; live[b] > 0 {
			changed = b
			break
		}
	}
	if live[changed] == 0 {
		t.Fatal("no cluster's first member was reprobed with live packets")
	}
	cache.Evict(map[iputil.Block24]bool{changed: true}, false)
	if sent := validate("after evicting one /24", len(clusters)-1); !reflect.DeepEqual(sent, map[iputil.Block24]int{changed: live[changed]}) {
		t.Errorf("after evicting %v: sent %v, want %d packets to it alone", changed, sent, live[changed])
	}

	cache.Evict(nil, true)
	if sent := validate("after evicting all", 0); packets(sent) != packets(live) {
		t.Errorf("after evicting all: sent %d packets, the first call %d", packets(sent), packets(live))
	}
	t.Logf("%d eligible /24s, %d clusters; an uncached validation sent %d packets", len(out.Eligible), len(clusters), packets(live))
}

// TestRemeasure checks that Remeasure returns, for the blocks it is
// given and in their order, the results Measure's campaign returned, and
// attributes its span, probes and progress events to its own stage.
func TestRemeasure(t *testing.T) {
	ctx := context.Background()
	_, p := testPipeline(t, 300)
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	p.Net = probe.Instrument(p.Net, reg, "")
	out, err := p.Measure(ctx, StageMeasure, nil)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []iputil.Block24
	for i, b := range out.Eligible {
		if i%3 == 0 {
			blocks = append(blocks, b)
		}
	}
	measured := reg.Counter("probe.measure.probes").Value()

	const stage = "remeasure"
	var stages []string
	p.Progress = telemetry.SinkFunc(func(ev telemetry.ProgressEvent) { stages = append(stages, ev.Stage) })
	res, err := p.Remeasure(ctx, stage, out.Dataset, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Order, blocks) || len(res.Blocks) != len(blocks) {
		t.Fatalf("remeasured %d blocks in order %v, want %d", len(res.Blocks), res.Order, len(blocks))
	}
	for _, b := range blocks {
		if !reflect.DeepEqual(res.Blocks[b], out.Campaign.Blocks[b]) {
			t.Errorf("%v: remeasured %+v, campaign measured %+v", b, res.Blocks[b], out.Campaign.Blocks[b])
		}
	}
	if got := reg.Counter("probe.measure.probes").Value(); got != measured {
		t.Errorf("Remeasure attributed %d probes to %q", got-measured, StageMeasure)
	}
	if reg.Counter("probe."+stage+".probes").Value() == 0 {
		t.Errorf("no probe attributed to %q", stage)
	}
	if len(stages) != len(blocks) || slices.IndexFunc(stages, func(s string) bool { return s != stage }) >= 0 {
		t.Errorf("progress events carry stages %v, want %d of %q", stages, len(blocks), stage)
	}
	if !slices.ContainsFunc(reg.Spans(), func(s telemetry.SpanSnapshot) bool { return s.Name == stage }) {
		t.Errorf("no %q span recorded", stage)
	}
}
