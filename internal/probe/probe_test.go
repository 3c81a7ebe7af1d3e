package probe

import (
	"sync"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

func simWorld(t *testing.T, n int) (*netsim.World, *SimNetwork) {
	return simWorldCfg(t, n, nil)
}

func simWorldCfg(t *testing.T, n int, mutate func(*netsim.Config)) (*netsim.World, *SimNetwork) {
	t.Helper()
	cfg := netsim.DefaultConfig(n)
	cfg.BigBlockScale = 0.02
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, NewSimNetwork(w)
}

// echoNet answers every probe with an echo reply: every MDA run on it
// ends in an immediate echo. It holds no state, so goroutines may share
// it.
type echoNet struct{}

func (echoNet) Ping(iputil.Addr, int) (PingResult, bool)      { return PingResult{RespTTL: 50}, true }
func (echoNet) Probe(iputil.Addr, int, uint16, uint32) Result { return Result{Kind: EchoReply} }

// findResponsive returns responsive addresses of a homogeneous block with
// the wanted last-hop cardinality (0 = any) and responsive last hops.
func findBlock(t *testing.T, w *netsim.World, wantK int) (iputil.Block24, []iputil.Addr) {
	t.Helper()
	for _, b := range w.Blocks() {
		if hom, _ := w.TrueHomogeneous(b); !hom {
			continue
		}
		if w.UnresponsiveLastHop(b) {
			continue
		}
		if wantK != 0 && w.TrueLastHopCardinality(b) != wantK {
			continue
		}
		var addrs []iputil.Addr
		for i := 1; i < 255; i++ {
			if a := b.Addr(i); w.RespondsNow(a) {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) >= 8 {
			return b, addrs
		}
	}
	t.Fatalf("no suitable block with K=%d", wantK)
	return 0, nil
}

func TestInferDefaultTTL(t *testing.T) {
	cases := []struct{ resp, want int }{
		{10, 64}, {63, 64}, {64, 128}, {120, 128},
		{128, 192}, {191, 192}, {192, 255}, {250, 255},
	}
	for _, c := range cases {
		if got := InferDefaultTTL(c.resp); got != c.want {
			t.Errorf("InferDefaultTTL(%d) = %d, want %d", c.resp, got, c.want)
		}
	}
	if got := HopEstimate(54); got != 10 {
		t.Errorf("HopEstimate(54) = %d, want 10", got)
	}
}

func TestStoppingPointTable(t *testing.T) {
	// The published 95% MDA stopping points.
	want := []int{6, 11, 16, 21, 27, 33, 38, 44, 51, 57}
	for k := 1; k <= len(want); k++ {
		if got := StoppingPoint(k, 0.95); got != want[k-1] {
			t.Errorf("StoppingPoint(%d) = %d, want %d", k, got, want[k-1])
		}
	}
	// k=0 behaves like k=1 (still need 6 probes to call a hop single).
	if StoppingPoint(0, 0.95) != 6 {
		t.Error("StoppingPoint(0) should equal StoppingPoint(1)")
	}
	// Invalid confidence falls back to 95%.
	if StoppingPoint(1, 0) != 6 || StoppingPoint(1, 1.5) != 6 {
		t.Error("confidence fallback broken")
	}
	// Higher confidence needs more probes.
	if StoppingPoint(1, 0.99) <= StoppingPoint(1, 0.95) {
		t.Error("99% confidence should need more probes than 95%")
	}
}

func TestMDAFullTrace(t *testing.T) {
	w, net := simWorld(t, 600)
	_, addrs := findBlock(t, w, 0)
	dst := addrs[0]
	res := MDA(net, dst, MDAOptions{})
	if !res.DestReached {
		t.Fatal("destination not reached")
	}
	if res.Paths.Len() == 0 {
		t.Fatal("no paths enumerated")
	}
	// Every enumerated path ends at a true last hop (or a wildcard).
	trueLH, _ := w.TrueLastHops(dst)
	lhSet := map[iputil.Addr]struct{}{}
	for _, lh := range trueLH {
		lhSet[lh] = struct{}{}
	}
	for _, p := range res.Paths.Paths() {
		if len(p) != res.DestTTL-1 {
			t.Fatalf("path length %d, want %d", len(p), res.DestTTL-1)
		}
		if a, ok := p.LastHop(); ok {
			if _, isTrue := lhSet[a]; !isTrue {
				t.Fatalf("path ends at %v, not a true last hop %v", a, trueLH)
			}
		}
	}
	// Per-flow diversity should surface more than one distinct path for
	// a world with fanout 4 (paths differ at the core diamond).
	if res.Paths.Len() < 2 {
		t.Errorf("MDA found %d paths, expected >= 2 with per-flow fanout", res.Paths.Len())
	}
}

func TestMDAImmediateEcho(t *testing.T) {
	w, net := simWorld(t, 300)
	_, addrs := findBlock(t, w, 0)
	dst := addrs[0]
	full := MDA(net, dst, MDAOptions{})
	if !full.DestReached {
		t.Fatal("destination not reached")
	}
	// Probing from the destination distance itself must yield an
	// immediate echo and no hops.
	res := MDA(net, dst, MDAOptions{FirstTTL: full.DestTTL})
	if !res.ImmediateEcho() {
		t.Fatalf("expected immediate echo at firstTTL=%d", full.DestTTL)
	}
	if res.Paths.Len() != 0 {
		t.Errorf("immediate echo should enumerate no paths, got %d", res.Paths.Len())
	}
	// Starting one hop earlier sees exactly the last hop.
	res = MDA(net, dst, MDAOptions{FirstTTL: full.DestTTL - 1})
	if res.ImmediateEcho() || !res.DestReached {
		t.Fatal("one-hop-short MDA should reach after one row")
	}
	for _, p := range res.Paths.Paths() {
		if len(p) != 1 {
			t.Fatalf("suffix path length = %d, want 1", len(p))
		}
	}
}

func TestMDAUnresponsiveDestination(t *testing.T) {
	w, net := simWorld(t, 300)
	// Find an inactive address in a routed block.
	var dst iputil.Addr
	for _, b := range w.Blocks() {
		for i := 1; i < 255; i++ {
			if a := b.Addr(i); !w.RespondsNow(a) {
				dst = a
				break
			}
		}
		if dst != 0 {
			break
		}
	}
	res := MDA(net, dst, MDAOptions{MaxTTL: 14})
	if res.DestReached {
		t.Fatal("unresponsive destination reached")
	}
	if res.Paths.Len() == 0 {
		t.Error("router hops should still be enumerated")
	}
}

func TestFindLastHopsMatchesTruth(t *testing.T) {
	w, net := simWorld(t, 800)
	for _, wantK := range []int{1, 2} {
		blk, addrs := findBlock(t, w, wantK)
		trueLH, _ := w.TrueLastHops(addrs[0])
		found := map[iputil.Addr]struct{}{}
		for _, a := range addrs[:6] {
			res := FindLastHops(net, a, MDAOptions{})
			if !res.Responded {
				t.Fatalf("responsive %v did not respond", a)
			}
			if len(res.LastHops) == 0 {
				if res.Unresponsive {
					continue
				}
				t.Fatalf("addr %v: no last hops", a)
			}
			// An address sees one last hop, or two when the pop is
			// flow-divergent; all must be in the planted truth.
			if len(res.LastHops) > 2 {
				t.Fatalf("addr %v: %d last hops", a, len(res.LastHops))
			}
			for _, got := range res.LastHops {
				lhOK := false
				for _, lh := range trueLH {
					if got == lh {
						lhOK = true
					}
				}
				if !lhOK {
					t.Fatalf("block %v addr %v: last hop %v not in truth %v (K=%d)",
						blk, a, got, trueLH, wantK)
				}
				found[got] = struct{}{}
			}
		}
		if wantK == 1 && len(found) > 1 {
			t.Errorf("K=1 block yielded %d distinct last hops", len(found))
		}
	}
}

func TestFindLastHopsUnresponsiveDest(t *testing.T) {
	w, net := simWorld(t, 300)
	var dst iputil.Addr
	for _, b := range w.Blocks() {
		for i := 1; i < 255; i++ {
			if a := b.Addr(i); !w.RespondsNow(a) {
				dst = a
				break
			}
		}
		if dst != 0 {
			break
		}
	}
	res := FindLastHops(net, dst, MDAOptions{})
	if res.Responded {
		t.Error("unresponsive destination should not respond")
	}
}

func TestFindLastHopsUnresponsiveLastHop(t *testing.T) {
	w, net := simWorld(t, 1200)
	var target iputil.Addr
	for _, b := range w.Blocks() {
		if !w.UnresponsiveLastHop(b) {
			continue
		}
		for i := 1; i < 255; i++ {
			if a := b.Addr(i); w.RespondsNow(a) {
				target = a
				break
			}
		}
		if target != 0 {
			break
		}
	}
	if target == 0 {
		t.Skip("no responsive host behind an unresponsive last hop")
	}
	res := FindLastHops(net, target, MDAOptions{})
	if !res.Responded {
		t.Fatal("destination should respond")
	}
	if len(res.LastHops) != 0 || !res.Unresponsive {
		t.Errorf("expected unresponsive last hop, got hops=%v unresp=%v",
			res.LastHops, res.Unresponsive)
	}
}

func TestInstrumented(t *testing.T) {
	_, net := simWorld(t, 100)
	reg := telemetry.NewRegistry()
	c := Instrument(net, reg, "measure")
	dst := iputil.MustParseAddr("1.0.0.1")
	c.Ping(dst, 0)
	c.Ping(dst, 1) // a retry: seq > 0
	c.Probe(dst, 3, 1, 1)
	c.Probe(dst, 4, 1, 2)
	c.Observe(ProbeRetry)
	if c.Pings() != 2 || c.Probes() != 2 {
		t.Errorf("counts = %d pings, %d probes", c.Pings(), c.Probes())
	}
	if c.PingRetries() != 1 || c.ProbeRetries() != 1 {
		t.Errorf("retries = %d ping, %d probe", c.PingRetries(), c.ProbeRetries())
	}

	// Per-stage attribution: switching stages moves new probes to fresh
	// counters while the flat totals keep accumulating.
	c.SetStage("validate")
	if c.Stage() != "validate" {
		t.Errorf("stage = %q", c.Stage())
	}
	c.Probe(dst, 5, 1, 3)
	snap := reg.Snapshot()
	want := map[string]int64{
		"probe.measure.pings":         2,
		"probe.measure.ping_retries":  1,
		"probe.measure.probes":        2,
		"probe.measure.probe_retries": 1,
		"probe.validate.probes":       1,
	}
	for name, n := range want {
		if snap.Counters[name] != n {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], n)
		}
	}
	if c.Probes() != 3 {
		t.Errorf("flat probe total = %d, want 3", c.Probes())
	}
}

// TestBatch checks the per-block counting view: nothing is published
// before flush, flush publishes every count to the flat totals and to
// the stage current when the view was taken, and a Network that is not
// an Instrumented comes back unchanged.
func TestBatch(t *testing.T) {
	_, net := simWorld(t, 100)
	got, flush := Batch(net)
	flush()
	if got != Network(net) {
		t.Errorf("Batch(%T) = %T, want the network itself", net, got)
	}

	reg := telemetry.NewRegistry()
	c := Instrument(net, reg, "measure")
	v, flush := Batch(c)
	dst := iputil.MustParseAddr("1.0.0.1")
	v.Ping(dst, 0)
	v.Ping(dst, 1)
	v.Probe(dst, 3, 1, 1)
	obs := v.(Observer)
	obs.Observe(ProbeRetry)
	obs.Observe(DegradedWindow)
	obs.Observe(RecoveredRetry)
	obs.Observe(SilentWindow)
	obs.Observe(SilentWindow)
	obs.Observe(SilentWindow)
	if c.Pings() != 0 || c.Probes() != 0 {
		t.Errorf("published before flush: %d pings, %d probes", c.Pings(), c.Probes())
	}
	c.SetStage("validate")
	flush()
	flat := []struct {
		name      string
		got, want int64
	}{
		{"pings", c.Pings(), 2},
		{"probes", c.Probes(), 1},
		{"ping_retries", c.PingRetries(), 1},
		{"probe_retries", c.ProbeRetries(), 1},
		{"degraded_windows", c.DegradedWindows(), 1},
		{"recovered_retries", c.RecoveredRetries(), 1},
		{"silent_windows", c.SilentWindows(), 3},
	}
	snap := reg.Snapshot()
	for _, f := range flat {
		if f.got != f.want {
			t.Errorf("flat %s = %d, want %d", f.name, f.got, f.want)
		}
		if got := snap.Counters["probe.measure."+f.name]; got != f.want {
			t.Errorf("probe.measure.%s = %d, want %d", f.name, got, f.want)
		}
		if got := snap.Counters["probe.validate."+f.name]; got != 0 {
			t.Errorf("probe.validate.%s = %d, want 0", f.name, got)
		}
	}
}

// TestInstrumentedConcurrent shares one Instrumented among eight
// goroutines: four count on it directly, four through Batch views of
// their own, one per round, each flushed when its round is done, as
// hobbit.Measurer does per block. Every flat total and every
// probe.<stage>.* counter must be exact, across a stage switch.
func TestInstrumentedConcurrent(t *testing.T) {
	const goroutines = 8
	reg := telemetry.NewRegistry()
	c := Instrument(echoNet{}, reg, "measure")
	// run has each goroutine send, per round, one ping (a retry in two
	// rounds of three), two probes, and s+1 of each Signal s; want is
	// what that adds to each counter.
	run := func(rounds int) map[string]int64 {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(direct bool) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					net, flush := Network(c), func() {}
					if !direct {
						net, flush = Batch(c)
					}
					net.Ping(1, r%3)
					net.Probe(1, 3, uint16(r), 1)
					net.Probe(1, 4, uint16(r), 2)
					for s := ProbeRetry; s <= DegradedWindow; s++ {
						for k := ProbeRetry; k <= s; k++ {
							net.(Observer).Observe(s)
						}
					}
					flush()
				}
			}(g%2 == 0)
		}
		wg.Wait()
		n := int64(goroutines * rounds)
		return map[string]int64{
			"pings": n, "ping_retries": n - int64(goroutines*((rounds+2)/3)), "probes": 2 * n,
			"probe_retries": n, "recovered_retries": 2 * n, "silent_windows": 3 * n,
			"degraded_windows": 4 * n,
		}
	}
	measure := run(300)
	c.SetStage("validate")
	validate := run(100)

	flat := map[string]int64{
		"pings": c.Pings(), "ping_retries": c.PingRetries(), "probes": c.Probes(),
		"probe_retries": c.ProbeRetries(), "recovered_retries": c.RecoveredRetries(), "silent_windows": c.SilentWindows(),
		"degraded_windows": c.DegradedWindows(),
	}
	counters := reg.Snapshot().Counters
	for name, got := range flat {
		if want := measure[name] + validate[name]; got != want {
			t.Errorf("flat %s = %d, want %d", name, got, want)
		}
		for stage, want := range map[string]int64{"measure": measure[name], "validate": validate[name]} {
			if got := counters["probe."+stage+"."+name]; got != want {
				t.Errorf("probe.%s.%s = %d, want %d", stage, name, got, want)
			}
		}
	}
	if len(counters) != 2*len(flat) {
		t.Errorf("%d counters, want %d: %v", len(counters), 2*len(flat), counters)
	}
}

// TestNewCounterNoRegistry pins that Instrument with a nil registry
// still keeps the flat totals.
func TestNewCounterNoRegistry(t *testing.T) {
	_, net := simWorld(t, 100)
	c := Instrument(net, nil, "")
	dst := iputil.MustParseAddr("1.0.0.1")
	c.Ping(dst, 0)
	c.Probe(dst, 3, 1, 1)
	if c.Pings() != 1 || c.Probes() != 1 {
		t.Errorf("counts = %d pings, %d probes", c.Pings(), c.Probes())
	}
}

// TestMDAReportsRetries drives MDA over a lossy network and checks that
// retransmissions reach the instrumented wrapper.
func TestMDAReportsRetries(t *testing.T) {
	w, _ := simWorldCfg(t, 200, func(c *netsim.Config) { c.PRateLimit = 0.3 })
	c := Instrument(NewSimNetwork(w), telemetry.NewRegistry(), "measure")
	probed := 0
	for _, b := range w.Blocks() {
		for i := 1; i < 255 && probed < 40; i++ {
			if a := b.Addr(i); w.RespondsNow(a) {
				MDA(c, a, MDAOptions{})
				probed++
			}
		}
		if probed >= 40 {
			break
		}
	}
	if c.Probes() == 0 {
		t.Fatal("no probes recorded")
	}
	if c.ProbeRetries() == 0 {
		t.Error("rate-limited network produced no recorded retries")
	}
	if c.ProbeRetries() >= c.Probes() {
		t.Errorf("retries %d should be a strict subset of probes %d",
			c.ProbeRetries(), c.Probes())
	}
}

func TestMDAOptionsDefaults(t *testing.T) {
	o := MDAOptions{}.Canonical()
	if o.FirstTTL != 1 || o.MaxTTL != 32 || o.Confidence != 0.95 || o.MaxFlows != 64 || o.Retries != 2 {
		t.Errorf("defaults = %+v", o)
	}
	o = MDAOptions{FirstTTL: 5, MaxTTL: 10, Confidence: 0.99, MaxFlows: 8, Retries: 1}.Canonical()
	if o.FirstTTL != 5 || o.MaxTTL != 10 || o.Confidence != 0.99 || o.MaxFlows != 8 || o.Retries != 1 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

func TestParseReplyUnitsViaSim(t *testing.T) {
	// The raw-socket backend is not exercised against the live network
	// in tests, but its reply parser is pure and testable.
	msg := echoRequest(0x1234, 7)
	if icmpChecksum(msg) != 0 {
		t.Error("checksum of checksummed message should be zero")
	}
	kind, _, ident, seq, _, ok := parseReply(append([]byte{
		0x45, 0, 0, 28, 0, 0, 0, 0, 57, 1, 0, 0, // IPv4 header (TTL 57)
		10, 0, 0, 1, 10, 0, 0, 2,
	}, replyFrom(msg)...))
	if !ok || kind != EchoReply || ident != 0x1234 || seq != 7 {
		t.Errorf("parseReply = kind=%v ident=%x seq=%d ok=%v", kind, ident, seq, ok)
	}
	if _, _, _, _, _, ok := parseReply([]byte{1, 2, 3}); ok {
		t.Error("short buffer should not parse")
	}
}

// replyFrom converts an echo request into the matching echo reply bytes.
func replyFrom(req []byte) []byte {
	out := append([]byte(nil), req...)
	out[0] = 0 // echo reply
	out[2], out[3] = 0, 0
	c := icmpChecksum(out)
	out[2] = byte(c >> 8)
	out[3] = byte(c)
	return out
}
