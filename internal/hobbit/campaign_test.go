package hobbit

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

func campaignWorld(t *testing.T, n int) (*netsim.World, *Campaign, []iputil.Block24) {
	t.Helper()
	cfg := netsim.DefaultConfig(n)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := zmap.Collect(zmap.Stream(context.Background(), w, w.Blocks(), zmap.StreamOptions{}))
	c := &Campaign{
		Measurer: &Measurer{Net: probe.NewSimNetwork(w), Seed: 1},
		Dataset:  ds,
	}
	return w, c, ds.EligibleBlocks(w.Blocks(), 4)
}

func TestCampaignAgainstGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	w, c, eligible := campaignWorld(t, 700)
	if len(eligible) < 200 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	res, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Total != len(eligible) {
		t.Fatalf("summary total = %d, want %d", sum.Total, len(eligible))
	}

	// Verdicts must agree with planted truth at high rates.
	var homTrue, homCalledHet, hetTrue, hetDetected int
	for b, br := range res.Blocks {
		hom, _ := w.TrueHomogeneous(b)
		if !br.Class.Analyzable() {
			continue
		}
		if hom {
			homTrue++
			if !br.Class.Homogeneous() {
				homCalledHet++
			}
		} else {
			hetTrue++
			if br.Class == ClassHierarchical {
				hetDetected++
			}
		}
	}
	if homTrue == 0 {
		t.Fatal("no analyzable homogeneous blocks")
	}
	// The paper bounds the misclassification of homogeneous blocks at
	// the 5% confidence level.
	if frac := float64(homCalledHet) / float64(homTrue); frac > 0.12 {
		t.Errorf("homogeneous misclassified as hierarchical: %.1f%%", 100*frac)
	}
	// Planted heterogeneous blocks that were analyzable should land in
	// the hierarchical class.
	if hetTrue > 0 && hetDetected < hetTrue/2 {
		t.Errorf("heterogeneous detected %d of %d", hetDetected, hetTrue)
	}

	// All five classes should be populated in a default world.
	for _, cls := range []Class{ClassTooFewActive, ClassUnresponsiveLastHop, ClassSameLastHop, ClassNonHierarchical, ClassHierarchical} {
		if sum.Counts[cls] == 0 {
			t.Errorf("class %v empty", cls)
		}
	}
	// An Unresponsive last-hop verdict sits behind last hops that never
	// answer, and six responsive destinations settle it.
	for _, br := range res.Blocks {
		if br.Class != ClassUnresponsiveLastHop {
			continue
		}
		if !w.UnresponsiveLastHop(br.Block) {
			t.Errorf("%v classed %v, but its last hops answer", br.Block, br.Class)
		}
		if br.Responded > singleLastHopProbes {
			t.Errorf("%v classed %v after %d responsive destinations", br.Block, br.Class, br.Responded)
		}
	}
}

func TestMeasureBlockSameLastHop(t *testing.T) {
	w, c, eligible := campaignWorld(t, 600)
	// Find an eligible K=1 block with responsive last hop.
	var target iputil.Block24
	for _, b := range eligible {
		if w.TrueLastHopCardinality(b) == 1 && !w.UnresponsiveLastHop(b) {
			if hom, _ := w.TrueHomogeneous(b); hom && !w.IsStarved(b) {
				target = b
				break
			}
		}
	}
	if target == 0 {
		t.Skip("no K=1 block eligible")
	}
	br := c.Measurer.MeasureBlock(target, c.Dataset.ActivesBy26(target))
	if br.Class != ClassSameLastHop && br.Class != ClassTooFewActive {
		t.Errorf("K=1 block classified %v", br.Class)
	}
	if br.Class == ClassSameLastHop {
		if len(br.LastHops) != 1 {
			t.Errorf("LastHops = %v", br.LastHops)
		}
		trueLH, _ := w.TrueLastHops(target.Addr(1))
		if br.LastHops[0] != trueLH[0] {
			t.Errorf("last hop %v, truth %v", br.LastHops[0], trueLH)
		}
		// Early termination: 6 probes suffice for a single last hop.
		if br.Responded > 8 {
			t.Errorf("probed %d responsive destinations for a K=1 block", br.Responded)
		}
	}
}

// anonNet scripts one /24 for the anonymous-last-hop rule. Every
// destination sits 10 hops away and echoes with TTL 54, so first_ttl
// lands on its last hop at TTL 9. There a destination answers from the
// routers in hops, picked by flow, or stays silent when it has none.
// Destinations in dead never answer the ping.
type anonNet struct {
	hops map[iputil.Addr][]iputil.Addr
	dead map[iputil.Addr]bool
}

func (n *anonNet) Ping(dst iputil.Addr, _ int) (probe.PingResult, bool) {
	return probe.PingResult{RespTTL: 54}, !n.dead[dst]
}

func (n *anonNet) Probe(dst iputil.Addr, ttl int, flowID uint16, _ uint32) probe.Result {
	hops := n.hops[dst]
	switch {
	case ttl >= 10:
		return probe.Result{Kind: probe.EchoReply}
	case ttl < 9:
		return probe.Result{Kind: probe.TTLExceeded, From: 0x63000000 + iputil.Addr(ttl)}
	case len(hops) == 0:
		return probe.Result{Kind: probe.NoReply}
	}
	return probe.Result{Kind: probe.TTLExceeded, From: hops[int(flowID)%len(hops)]}
}

// TestMeasureBlockAnonymousLastHop scripts the anonymous-last-hop rule on
// a /24 of 24 actives, by position in the probing order. Positions 1 and
// 4 never answer the ping: they count in Probed but not toward the six
// responders. Responders before `first` sit behind an anonymous last hop;
// from `first` on they answer from lhA in the /24's first and third /26
// and from lhB in the others, which the oracle comes to call
// non-hierarchical, except the `silent` responders right after `first`,
// which are anonymous again. With both set, responder `first` shows lhA
// and lhB, one per flow.
func TestMeasureBlockAnonymousLastHop(t *testing.T) {
	const lhA, lhB iputil.Addr = 0x64000001, 0x64000002
	b := iputil.MustParseBlock24("192.0.2.0/24")
	var by26 [4][]iputil.Addr
	for i := 0; i < 24; i++ {
		q := i % 4
		by26[q] = append(by26[q], b.Addr(64*q+1+7*(i/4)))
	}
	for _, tc := range []struct {
		name          string
		m             Measurer
		first, silent int
		both          bool
		// stops marks a block the rule settles; probed, responded and
		// class are MeasureBlock's, oracle is the oracle's class.
		stops             bool
		probed, responded int
		class, oracle     Class
	}{
		// Six anonymous responders settle the block, eight
		// destinations in: the two unpinged ones count in Probed only.
		{name: "all-anonymous", stops: true, probed: 8, responded: 6, class: ClassUnresponsiveLastHop, oracle: ClassUnresponsiveLastHop},
		{name: "all-anonymous/exhaustive", m: Measurer{Exhaustive: true}, stops: true, probed: 8, responded: 6, class: ClassUnresponsiveLastHop, oracle: ClassUnresponsiveLastHop},
		{name: "all-anonymous/probe-all", m: Measurer{Exhaustive: true, Term: ProbeAll{}}, stops: true, probed: 8, responded: 6, class: ClassUnresponsiveLastHop, oracle: ClassUnresponsiveLastHop},
		// A MinActive above six raises the stop with it, so the
		// block still counts as analyzable.
		{name: "all-anonymous/min-active-8", m: Measurer{MinActive: 8}, stops: true, probed: 10, responded: 8, class: ClassUnresponsiveLastHop, oracle: ClassUnresponsiveLastHop},
		// An answering last hop by the sixth responder turns the rule
		// off: the block is probed exactly as the oracle probes it,
		// past six responders where the groups need it.
		{name: "answers-at-2", first: 2, probed: 8, responded: 6, class: ClassNonHierarchical, oracle: ClassNonHierarchical},
		{name: "answers-at-6", first: 6, both: true, probed: 11, responded: 9, class: ClassNonHierarchical, oracle: ClassNonHierarchical},
		// Once a last hop has answered, six anonymous responders more
		// do not stop the block either.
		{name: "answers-at-2/then-six-silent", first: 2, both: true, silent: 6, probed: 13, responded: 11, class: ClassTooFewActive, oracle: ClassTooFewActive},
		// The rule's cost: the same /24 one responder later stops at
		// six anonymous responders, before the seventh shows the two
		// last hops that lead the oracle to a homogeneous verdict.
		{name: "answers-at-7", first: 7, both: true, stops: true, probed: 8, responded: 6, class: ClassUnresponsiveLastHop, oracle: ClassNonHierarchical},
		// Had the seventh shown one last hop, the oracle's own
		// single-last-hop rule, which counts anonymous responders,
		// would have ended the block there, too few answering.
		{name: "answers-at-7/one-hop", first: 7, stops: true, probed: 8, responded: 6, class: ClassUnresponsiveLastHop, oracle: ClassTooFewActive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Seed = 1
			n := &anonNet{hops: map[iputil.Addr][]iputil.Addr{}, dead: map[iputil.Addr]bool{}}
			responder := 0
			for pos, dst := range m.Order(b, by26) {
				if pos == 1 || pos == 4 {
					n.dead[dst] = true
					continue
				}
				switch responder++; {
				case tc.first == 0 || responder < tc.first || responder > tc.first && responder <= tc.first+tc.silent:
				case responder == tc.first && tc.both:
					n.hops[dst] = []iputil.Addr{lhA, lhB}
				case dst.Block26()%2 == 0:
					n.hops[dst] = []iputil.Addr{lhA}
				default:
					n.hops[dst] = []iputil.Addr{lhB}
				}
			}
			m.Net = n
			got, want := m.MeasureBlock(b, by26), m.measureBlockOracle(b, by26)
			if got.Class != tc.class || want.Class != tc.oracle {
				t.Fatalf("class %v, oracle %v; want %v and %v", got.Class, want.Class, tc.class, tc.oracle)
			}
			if got.Probed != tc.probed || got.Responded != tc.responded {
				t.Errorf("probed %d, responded %d; want %d, %d", got.Probed, got.Responded, tc.probed, tc.responded)
			}
			switch {
			case !tc.stops && !reflect.DeepEqual(got, want):
				t.Errorf("got %+v, oracle %+v", got, want)
			case tc.stops && (got.UnrespLastHop != got.Responded || len(got.LastHops) != 0 || got.Probed >= want.Probed):
				t.Errorf("got %+v; the oracle probed %d", got, want.Probed)
			}
		})
	}
}

// TestCampaignMinActive pins a campaign's class counts and packets as
// MinActive grows past six. The single-last-hop stop waits for MinActive
// responders, as the anonymous-last-hop stop does, so a /24 behind one
// last hop stays "same last-hop router" instead of stopping at six and
// falling short of MinActive ("too few active"). At MinActive 4 and 6
// the stop is the paper's six, and every count is the rule's without
// MinActive.
func TestCampaignMinActive(t *testing.T) {
	w, c, _ := campaignWorld(t, 2000)
	for _, tc := range []struct {
		minActive, eligible                       int
		same, nonHier, hier, unresp, tooFew, pkts int
	}{
		{minActive: 4, eligible: 762, same: 129, nonHier: 337, hier: 52, unresp: 88, tooFew: 156, pkts: 52151},
		{minActive: 6, eligible: 712, same: 129, nonHier: 224, hier: 52, unresp: 77, tooFew: 230, pkts: 50633},
		{minActive: 7, eligible: 678, same: 124, nonHier: 175, hier: 53, unresp: 75, tooFew: 251, pkts: 51403},
		{minActive: 8, eligible: 632, same: 121, nonHier: 131, hier: 54, unresp: 74, tooFew: 252, pkts: 51334},
	} {
		inst := probe.Instrument(probe.NewSimNetwork(w), nil, "measure")
		c.Measurer = &Measurer{Net: inst, Seed: 7, MinActive: tc.minActive}
		eligible := c.Dataset.EligibleBlocks(w.Blocks(), tc.minActive)
		res, err := c.Run(context.Background(), eligible)
		if err != nil {
			t.Fatal(err)
		}
		n := res.Summary().Counts
		got := []int{len(eligible), n[ClassSameLastHop], n[ClassNonHierarchical], n[ClassHierarchical],
			n[ClassUnresponsiveLastHop], n[ClassTooFewActive], int(inst.Pings() + inst.Probes())}
		want := []int{tc.eligible, tc.same, tc.nonHier, tc.hier, tc.unresp, tc.tooFew, tc.pkts}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MinActive %d: eligible, same, non-hierarchical, hierarchical, unresponsive, too few, packets = %v, want %v",
				tc.minActive, got, want)
		}
	}
}

func TestMeasureBlockHetero(t *testing.T) {
	w, c, _ := campaignWorld(t, 1500)
	found := 0
	for _, b := range w.HeteroBlocks() {
		if !c.Dataset.Eligible(b, 4) {
			continue
		}
		br := c.Measurer.MeasureBlock(b, c.Dataset.ActivesBy26(b))
		if !br.Class.Analyzable() {
			continue
		}
		found++
		if br.Class.Homogeneous() {
			t.Errorf("hetero block %v classified %v", b, br.Class)
			continue
		}
		if br.VeryLikelyHetero {
			// Sub-blocks must be consistent with planted entries:
			// every observed sub-prefix lies within one true entry.
			entries := w.TrueEntries(b)
			for _, sub := range br.SubBlocks {
				inside := false
				for _, e := range entries {
					if e.ContainsPrefix(sub) {
						inside = true
					}
				}
				if !inside {
					t.Errorf("block %v sub %v not within any true entry %v", b, sub, entries)
				}
			}
		}
		if found >= 5 {
			break
		}
	}
	if found == 0 {
		t.Skip("no analyzable hetero blocks at this scale")
	}
}

func TestExhaustiveReprobe(t *testing.T) {
	w, c, eligible := campaignWorld(t, 600)
	// On a K>=2 block, the exhaustive strategy should observe at least
	// as many last hops as the normal strategy.
	var target iputil.Block24
	for _, b := range eligible {
		if w.TrueLastHopCardinality(b) >= 3 && !w.UnresponsiveLastHop(b) && !w.IsStarved(b) {
			if hom, _ := w.TrueHomogeneous(b); hom {
				target = b
				break
			}
		}
	}
	if target == 0 {
		t.Skip("no K>=3 block eligible")
	}
	by26 := c.Dataset.ActivesBy26(target)
	normal := c.Measurer.MeasureBlock(target, by26)
	ex := *c.Measurer
	ex.Exhaustive = true
	exhaustive := ex.MeasureBlock(target, by26)
	if len(exhaustive.LastHops) < len(normal.LastHops) {
		t.Errorf("exhaustive found %d last hops, normal %d",
			len(exhaustive.LastHops), len(normal.LastHops))
	}
	if exhaustive.Responded < normal.Responded {
		t.Errorf("exhaustive responded %d < normal %d", exhaustive.Responded, normal.Responded)
	}
}

func TestOrderCoversAllActives(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	b := eligible[0]
	by26 := c.Dataset.ActivesBy26(b)
	order := c.Measurer.Order(b, by26)
	seen := make(map[iputil.Addr]bool, len(order))
	for _, a := range order {
		if seen[a] {
			t.Fatalf("duplicate %v in order", a)
		}
		seen[a] = true
	}
	total := 0
	for q := 0; q < 4; q++ {
		total += len(by26[q])
		for _, a := range by26[q] {
			if !seen[a] {
				t.Fatalf("active %v missing from order", a)
			}
		}
	}
	if len(order) != total {
		t.Fatalf("order length %d, want %d", len(order), total)
	}
	// First round visits each /26 once before revisiting any.
	quarterSeen := map[int]bool{}
	for i := 0; i < 4 && i < len(order); i++ {
		q := order[i].Block26()
		if quarterSeen[q] {
			t.Errorf("quarter %d revisited within first round", q)
		}
		quarterSeen[q] = true
	}
}

// TestCampaignTelemetry runs an instrumented campaign with many workers —
// the -race half of the concurrent-registry guarantee — and checks the
// accounting against the result. Its faulted leg then checks that the
// counts MeasureBlock publishes once per block equal a count taken on
// every call.
func TestCampaignTelemetry(t *testing.T) {
	w, c, eligible := campaignWorld(t, 400)
	if len(eligible) > 120 {
		eligible = eligible[:120]
	}
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	c.Workers = 8
	c.Measurer.Net = probe.Instrument(probe.NewSimNetwork(w), reg, "measure")
	var events int
	var last telemetry.ProgressEvent
	c.Progress = telemetry.SinkFunc(func(ev telemetry.ProgressEvent) {
		events++
		last = ev
	})
	res, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.blocks_measured"]; got != int64(sum.Total) {
		t.Errorf("blocks_measured = %d, summary total = %d", got, sum.Total)
	}
	for cls, n := range sum.Counts {
		if got := snap.Counters["campaign.class."+cls.MetricName()]; got != int64(n) {
			t.Errorf("class counter %v = %d, summary = %d", cls, got, n)
		}
	}
	if snap.Histograms["campaign.probed_per_block"].Count != int64(sum.Total) {
		t.Errorf("histogram count = %d, want %d",
			snap.Histograms["campaign.probed_per_block"].Count, sum.Total)
	}
	if events != len(eligible) {
		t.Errorf("progress events = %d, want %d", events, len(eligible))
	}
	if last.Done != len(eligible) || last.Total != len(eligible) || last.Stage != "measure" {
		t.Errorf("final event = %+v", last)
	}
	if last.Probes == 0 || last.Pings == 0 {
		t.Errorf("final event missing probe load: %+v", last)
	}

	// The same blocks under a rate storm with adaptive probing, so every
	// retry, degradation and silence signal fires: once through a
	// per-call counter, once through Instrumented. The small escalation
	// budget makes some degraded run exhaust it.
	sched, err := faultplan.CompileBuiltin("rate-storm", w)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	c.Measurer.Opts.Adaptive = true
	c.Measurer.Opts.AdaptiveBudget = 4
	c.Progress = nil
	calls := &callCounter{net: probe.NewSimNetwork(w)}
	c.Measurer.Net = calls
	want, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	reg = telemetry.NewRegistry()
	c.Telemetry = reg
	inst := probe.Instrument(probe.NewSimNetwork(w), reg, "measure")
	c.Measurer.Net = inst
	got, err := c.Run(context.Background(), eligible)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("faulted campaign results differ between the two counters")
	}
	totals := []struct {
		name      string
		calls     int64
		flatTotal int64
	}{
		{"pings", calls.pings.Load(), inst.Pings()},
		{"probes", calls.probes.Load(), inst.Probes()},
		{"ping_retries", calls.pingRetries.Load(), inst.PingRetries()},
		{"probe_retries", calls.signals[probe.ProbeRetry].Load(), inst.ProbeRetries()},
		{"degraded_windows", calls.signals[probe.DegradedWindow].Load(), inst.DegradedWindows()},
		{"degraded_retries", calls.signals[probe.DegradedRetry].Load(), inst.DegradedRetries()},
		{"degraded_exhausted", calls.signals[probe.DegradedExhausted].Load(), inst.DegradedExhausted()},
		{"recovered_retries", calls.signals[probe.RecoveredRetry].Load(), inst.RecoveredRetries()},
		{"silent_windows", calls.signals[probe.SilentWindow].Load(), inst.SilentWindows()},
	}
	counters := reg.Snapshot().Counters
	measureCounters := 0
	for name := range counters {
		if strings.HasPrefix(name, "probe.measure.") {
			measureCounters++
		}
	}
	if measureCounters != len(totals) {
		t.Errorf("%d probe.measure.* counters, want %d", measureCounters, len(totals))
	}
	for _, tc := range totals {
		t.Logf("faulted %s: %d", tc.name, tc.calls)
		if tc.calls == 0 {
			t.Errorf("%s: the faulted campaign counted none", tc.name)
		}
		if tc.flatTotal != tc.calls {
			t.Errorf("%s: flat total %d, per-call count %d", tc.name, tc.flatTotal, tc.calls)
		}
		if got := counters["probe.measure."+tc.name]; got != tc.calls {
			t.Errorf("probe.measure.%s = %d, per-call count %d", tc.name, got, tc.calls)
		}
	}
}

// callCounter counts each packet, retry and degradation signal the
// moment the prober reports it: the reference for the counts
// Instrumented publishes once per measured block.
type callCounter struct {
	net probe.Network

	pings, probes, pingRetries atomic.Int64
	signals                    [probe.DegradedExhausted + 1]atomic.Int64
}

func (c *callCounter) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	c.pings.Add(1)
	if seq > 0 {
		c.pingRetries.Add(1)
	}
	return c.net.Ping(dst, seq)
}

func (c *callCounter) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	c.probes.Add(1)
	return c.net.Probe(dst, ttl, flowID, salt)
}

func (c *callCounter) Observe(s probe.Signal) { c.signals[s].Add(1) }

func TestCampaignCancellation(t *testing.T) {
	_, c, eligible := campaignWorld(t, 400)
	if len(eligible) < 20 {
		t.Fatalf("only %d eligible blocks", len(eligible))
	}
	c.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	c.Progress = telemetry.SinkFunc(func(telemetry.ProgressEvent) {
		if done++; done == 3 {
			cancel()
		}
	})
	res, err := c.Run(ctx, eligible)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Blocks) == 0 {
		t.Error("partial result lost")
	}
	if len(res.Blocks) == len(eligible) {
		t.Error("campaign ran to completion despite cancellation")
	}
	// The partial result stays consistent: every measured block is in
	// Order, and the class accessors skip unmeasured ones.
	if got := len(res.HomogeneousBlocks()); got > len(res.Blocks) {
		t.Errorf("HomogeneousBlocks returned %d of %d measured", got, len(res.Blocks))
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, c1, elig1 := campaignWorld(t, 250)
	_, c2, elig2 := campaignWorld(t, 250)
	r1, err1 := c1.Run(context.Background(), elig1[:50])
	r2, err2 := c2.Run(context.Background(), elig2[:50])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for b, br1 := range r1.Blocks {
		br2 := r2.Blocks[b]
		if br2 == nil || br1.Class != br2.Class || len(br1.LastHops) != len(br2.LastHops) {
			t.Fatalf("nondeterministic result for %v", b)
		}
	}
}
