package netsim

import (
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// maxHops bounds the forward path length (src hops + core + AS + pop).
const maxHops = 12

// route is the differential oracle for probeHop: it materializes the whole
// hop sequence from vantage v toward dst for the given flow identifier,
// walking the path hop by hop exactly as the simulator did before it
// learned to derive a single hop. It returns the number of hops written;
// the destination itself sits one hop past the last entry. ok is false
// when dst is not a routed destination, in which case the returned hops
// are the partial path that probes would still traverse (the source
// access routers).
func (w *World) route(v int, dst iputil.Addr, flowID uint16, hops *[maxHops]routerID) (n int, ok bool) {
	if v < 0 || v >= len(w.srcHops) {
		v = 0
	}
	hops[0] = w.srcHops[v][0]
	hops[1] = w.srcHops[v][1]
	n = 2
	p, found := w.popOf(dst)
	if !found {
		return n, false
	}
	var srcKey uint64
	if p.srcSens {
		srcKey = uint64(v)
	}
	reg := p.as.region
	hops[n] = reg.coreIn
	n++
	mid := rng.Intn(len(reg.coreMid), w.seed, uint64(dst), uint64(flowID), uint64(v), saltFlow)
	hops[n] = reg.coreMid[mid]
	n++
	hops[n] = reg.coreOut
	n++
	hops[n] = p.as.ingress
	n++
	for _, c := range p.as.chain {
		hops[n] = c
		n++
	}
	dm := rng.Intn(len(p.destMid), w.seed, uint64(dst), uint64(p.id), srcKey, saltDest)
	hops[n] = p.destMid[dm]
	n++
	dm2 := rng.Intn(len(p.destMid2), w.seed, uint64(dst), uint64(p.id), srcKey, saltDest, 2)
	hops[n] = p.destMid2[dm2]
	n++
	flapKey, flapping := w.faultFlap(dst.Block24())
	var lh int
	switch {
	case p.flowDiv:
		bucket := rng.Intn(2, w.seed, uint64(dst), uint64(flowID), saltFlow, 7)
		if flapping {
			lh = rng.Intn(len(p.lastHops), w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, uint64(bucket), flapKey)
		} else {
			lh = rng.Intn(len(p.lastHops), w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, uint64(bucket))
		}
	case flapping:
		lh = rng.Intn(len(p.lastHops), w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, flapKey)
	default:
		lh = rng.Intn(len(p.lastHops), w.seed, uint64(dst), uint64(p.id), srcKey, saltLast)
	}
	hops[n] = p.lastHops[lh]
	n++
	return n, true
}

// TestProbeHopMatchesRoute holds the single-hop derivation against the
// full route walk: for every TTL from 0 to past the longest path, every
// vantage (plus one out of range, which both clamp to 0), several flows,
// epochs 0-2 with scheduled splits in force, and both a clean world and
// one whose fault plan flaps flow-divergent and ordinary pops alike,
// probeHop must report route()'s path length and hop, and forwardDist the
// destination's distance.
func TestProbeHopMatchesRoute(t *testing.T) {
	cfg := testConfig(600) // smaller worlds are all planted big blocks, which never split
	cfg.PEpochSplit = 0.3  // plenty of blocks re-split by epoch 2
	clean := MustNew(cfg)
	flapped := MustNew(cfg)
	flapped.SetFaults(&fakeFaults{flap: func(_ int, b iputil.Block24) (uint64, bool) {
		if b%2 == 0 {
			return uint64(b)*31 + 1, true
		}
		return 0, false
	}})

	unrouted := iputil.MustParseAddr("223.255.255.7")
	var splitSeen, flapDivSeen, flapPlainSeen, srcSensSeen int
	for _, w := range []*World{clean, flapped} {
		if _, ok := w.popOf(unrouted); ok {
			t.Fatalf("%v unexpectedly routed", unrouted)
		}
		for epoch := 0; epoch <= 2; epoch++ {
			w.SetEpoch(epoch)
			dsts := []iputil.Addr{unrouted}
			for i, b := range w.Blocks() {
				if w.recs[i].splitAt(epoch) {
					splitSeen++
				}
				for _, j := range []int{0, 130, 255} {
					dsts = append(dsts, b.Addr(j))
				}
			}
			for _, dst := range dsts {
				p, _ := w.popOf(dst)
				if p != nil {
					if _, flapping := w.faultFlap(dst.Block24()); flapping && p.flowDiv {
						flapDivSeen++
					} else if flapping {
						flapPlainSeen++
					}
					if p.srcSens {
						srcSensSeen++
					}
				}
				for v := 0; v <= w.NumVantages(); v++ {
					for _, flow := range []uint16{0, 1, 5, 0xffff} {
						var hops [maxHops]routerID
						wantN, routed := w.route(v, dst, flow, &hops)
						if routed != (p != nil) {
							t.Fatalf("%v: route routed=%v, popOf found=%v", dst, routed, p != nil)
						}
						if routed && forwardDist(p) != wantN+1 {
							t.Fatalf("%v: forwardDist %d, route length %d", dst, forwardDist(p), wantN)
						}
						for ttl := 0; ttl <= maxHops+1; ttl++ {
							n, hop := w.probeHop(v, p, dst, flow, ttl)
							if n != wantN {
								t.Fatalf("epoch %d v %d %v flow %d ttl %d: probeHop length %d, route %d",
									epoch, v, dst, flow, ttl, n, wantN)
							}
							if ttl >= 1 && ttl <= n && hop != hops[ttl-1] {
								t.Fatalf("epoch %d v %d %v flow %d ttl %d: probeHop hop %d, route %d",
									epoch, v, dst, flow, ttl, hop, hops[ttl-1])
							}
						}
					}
				}
			}
		}
	}
	if splitSeen == 0 || flapDivSeen == 0 || flapPlainSeen == 0 || srcSensSeen == 0 {
		t.Fatalf("sweep missed a case: split %d, flapped flow-divergent %d, flapped plain %d, source-sensitive %d",
			splitSeen, flapDivSeen, flapPlainSeen, srcSensSeen)
	}
}

// probeViaRoute is the reference Probe: probeFrom's reply rules applied to
// the hop that the full route() walk yields, in place of probeHop's
// single-hop derivation.
func (w *World) probeViaRoute(v int, dst iputil.Addr, ttl int, flowID uint16, salt uint32) ProbeReply {
	if ttl < 1 {
		return ProbeReply{}
	}
	var hops [maxHops]routerID
	n, routed := w.route(v, dst, flowID, &hops)
	var p *pop
	if routed {
		p, _ = w.popOf(dst)
	}
	if ttl <= n {
		if ttl > blackholeCoreHops && w.faultBlackholed(dst) {
			return ProbeReply{}
		}
		r := w.routers[hops[ttl-1]]
		if !r.responsive {
			return ProbeReply{}
		}
		drop := w.faultRateLimit(v, p)
		keys := []uint64{uint64(dst), uint64(ttl), uint64(flowID), uint64(salt)}
		if v != 0 {
			keys = append(keys, uint64(v))
		}
		if rng.Bool(drop, w.seed, append(keys, saltRate)...) {
			return ProbeReply{}
		}
		return ProbeReply{Kind: TTLExceeded, From: r.addr}
	}
	if p == nil || !w.respondsNowRec(w.rec(dst.Block24()), p, dst) || w.faultBlackholed(dst) {
		return ProbeReply{}
	}
	keys := []uint64{uint64(dst), uint64(ttl), uint64(salt)}
	if v != 0 {
		keys = append(keys, uint64(v))
	}
	if rng.Bool(w.faultPingLoss(v), w.seed, append(keys, saltLoss)...) {
		return ProbeReply{}
	}
	return w.echoReply(p, dst, int(salt))
}

// probeFromVantage sends the probe through the public entry point for
// vantage v: World.Probe for vantage 0, Vantage(v).Probe otherwise.
func probeFromVantage(w *World, v int, dst iputil.Addr, ttl int, flowID uint16, salt uint32) ProbeReply {
	if v == 0 {
		return w.Probe(dst, ttl, flowID, salt)
	}
	return w.Vantage(v).Probe(dst, ttl, flowID, salt)
}

// TestProbeCacheIdentical demands bit-identical replies between the public
// Probe path, which derives only the probed hop, and the reference that
// walks the whole route — across epochs (which change routes for split
// blocks and draw outages), flow identifiers, TTLs, retransmission salts,
// and vantages, plus an unrouted destination. Deriving one hop may change
// timing, never bytes.
func TestProbeCacheIdentical(t *testing.T) {
	cfg := testConfig(160)
	cfg.PEpochSplit = 0.3
	w := MustNew(cfg)
	defer w.SetEpoch(0)
	unrouted := iputil.MustParseAddr("223.255.255.7")
	answered := 0
	for epoch := 0; epoch <= 2; epoch++ {
		w.SetEpoch(epoch)
		dsts := []iputil.Addr{unrouted}
		for _, b := range w.Blocks() {
			for _, i := range []int{0, 1, 97, 255} {
				dsts = append(dsts, b.Addr(i))
			}
		}
		for _, dst := range dsts {
			for _, flow := range []uint16{0, 1, 5} {
				for ttl := 0; ttl <= maxHops+1; ttl++ {
					for _, salt := range []uint32{1, 2} {
						got := w.Probe(dst, ttl, flow, salt)
						want := w.probeViaRoute(0, dst, ttl, flow, salt)
						if got != want {
							t.Fatalf("epoch %d Probe(%v, ttl=%d, flow=%d, salt=%d) = %+v, route walk %+v",
								epoch, dst, ttl, flow, salt, got, want)
						}
						if got.Kind != NoReply {
							answered++
						}
					}
				}
			}
		}
		for v := 1; v < w.NumVantages(); v++ {
			for _, b := range w.Blocks()[:40] {
				dst := b.Addr(9)
				for ttl := 1; ttl <= maxHops+1; ttl++ {
					got := probeFromVantage(w, v, dst, ttl, 3, 1)
					if want := w.probeViaRoute(v, dst, ttl, 3, 1); got != want {
						t.Fatalf("epoch %d vantage %d Probe(%v, ttl=%d) = %+v, route walk %+v",
							epoch, v, dst, ttl, got, want)
					}
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no probe was answered; the comparison is vacuous")
	}
}

// TestFaultProbeCacheIdenticalUnderFaults repeats the whole-reply
// comparison while a fault plan blackholes destinations, rate-limits and
// drops replies per vantage, and flaps every other block's last hop: the
// single-hop Probe path and the route walk must agree for every probe
// shape and vantage.
func TestFaultProbeCacheIdenticalUnderFaults(t *testing.T) {
	w := testWorld(t, 40)
	w.SetFaults(&fakeFaults{
		blackhole: func(_ int, a iputil.Addr) bool { return a%7 == 0 },
		rate:      func(_ int, p int32) float64 { return float64(p%3) * 0.2 },
		loss:      func(_ int, v int) float64 { return float64(v) * 0.1 },
		flap: func(_ int, b iputil.Block24) (uint64, bool) {
			if b%2 == 0 {
				return uint64(b) * 31, true
			}
			return 0, false
		},
	})
	answered, dropped := 0, 0
	for v := 0; v < w.NumVantages(); v++ {
		for _, b := range w.Blocks()[:8] {
			for i := 0; i < 256; i += 32 {
				dst := b.Addr(i)
				for ttl := 1; ttl <= maxHops+1; ttl++ {
					for flow := uint16(0); flow < 3; flow++ {
						got := probeFromVantage(w, v, dst, ttl, flow, 9)
						want := w.probeViaRoute(v, dst, ttl, flow, 9)
						if got != want {
							t.Fatalf("vantage %d dst=%v ttl=%d flow=%d: Probe %+v, route walk %+v",
								v, dst, ttl, flow, got, want)
						}
						if got.Kind != NoReply {
							answered++
						} else {
							dropped++
						}
					}
				}
			}
		}
	}
	if answered == 0 || dropped == 0 {
		t.Fatalf("faulted sweep is one-sided: %d answered, %d silent", answered, dropped)
	}
}

// TestProbeConcurrent hammers one world from the sanctioned worker pool
// under -race: the probe path holds no mutable state, so concurrent probes
// must stay race-free and agree with a serial replay.
func TestProbeConcurrent(t *testing.T) {
	w := testWorld(t, 60)
	blocks := w.Blocks()
	replies := make([]ProbeReply, len(blocks)*8)
	pool := parallel.Pool{Workers: 8}
	if err := pool.ForEach(context.Background(), len(blocks), func(i int) {
		dst := blocks[i%len(blocks)].Addr(i % 256)
		for ttl := 1; ttl <= 8; ttl++ {
			replies[i*8+ttl-1] = w.Probe(dst, ttl, uint16(i%4), 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		dst := b.Addr(i % 256)
		for ttl := 1; ttl <= 8; ttl++ {
			if want := w.Probe(dst, ttl, uint16(i%4), 1); replies[i*8+ttl-1] != want {
				t.Fatalf("concurrent Probe(%v, ttl=%d) = %+v, serial replay %+v",
					dst, ttl, replies[i*8+ttl-1], want)
			}
		}
	}
}

// scanActiveRef is the reference census answer for a routed address,
// drawn with the variadic rng forms so that it stays independent of the
// key chains the reply path spells out: the address answered the scan
// with its /26's activity rate, and from epoch 1 on flipped state with
// the churn probability (arrivals balancing departures).
func scanActiveRef(w *World, rec *blockRec, a iputil.Addr) bool {
	rate := rec.rate26[a.Block26()]
	active := rng.Bool(rate, w.seed, uint64(a), saltActive)
	if w.epoch == 0 || w.cfg.EpochChurn <= 0 {
		return active
	}
	if active {
		return !rng.Bool(w.cfg.EpochChurn, w.seed, uint64(a), uint64(w.epoch), saltEpochAct)
	}
	pOn := min(w.cfg.EpochChurn*rate/(1-rate), 1)
	return rate < 1 && rng.Bool(pOn, w.seed, uint64(a), uint64(w.epoch), saltEpochAct)
}

// TestScanBlockMatchesScanPing pins the block-granular census and the
// per-address answer against the variadic-draw reference at epochs 0-3,
// with scheduled splits in force, for the world and every vantage; blocks
// outside the universe answer zeros.
func TestScanBlockMatchesScanPing(t *testing.T) {
	cfg := testConfig(600)
	cfg.PEpochSplit = 0.3
	w := MustNew(cfg)
	defer w.SetEpoch(0)
	splitSeen := 0
	for epoch := 0; epoch <= 3; epoch++ {
		w.SetEpoch(epoch)
		for i, b := range w.Blocks() {
			rec := &w.recs[i]
			if rec.splitAt(epoch) {
				splitSeen++
			}
			// The per-address census answer: routed and scan-active.
			var want [4]uint64
			for j := 0; j < 256; j++ {
				a := b.Addr(j)
				_, routed := w.popOfRec(rec, a)
				active := routed && scanActiveRef(w, rec, a)
				if active {
					want[j>>6] |= 1 << uint(j&63)
				}
				if w.ScanPing(a) != active {
					t.Fatalf("epoch %d: ScanPing(%v) = %v, want %v", epoch, a, !active, active)
				}
			}
			if got := w.ScanBlock(b); got != want {
				t.Fatalf("epoch %d: ScanBlock(%v) = %x, per-address %x", epoch, b, got, want)
			}
			for v := 0; v < w.NumVantages(); v++ {
				if got := w.Vantage(v).ScanBlock(b); got != want {
					t.Fatalf("epoch %d: vantage %d ScanBlock(%v) = %x, want %x", epoch, v, b, got, want)
				}
			}
		}
	}
	if splitSeen == 0 {
		t.Fatal("no split block in force at any swept epoch")
	}
	if got := w.ScanBlock(iputil.MustParseBlock24("223.255.255.0")); got != ([4]uint64{}) {
		t.Errorf("block outside the universe answered %x", got)
	}
}

// TestEntriesTileEveryBlock pins what lets ScanBlock skip the per-address
// pop lookup: every address of every universe block resolves to a pop
// before and after its scheduled split, and checkInvariants rejects entry
// lists that sum to 256 addresses without tiling the block.
func TestEntriesTileEveryBlock(t *testing.T) {
	cfg := testConfig(600)
	cfg.PEpochSplit = 0.3
	w := MustNew(cfg)
	defer w.SetEpoch(0)
	for _, epoch := range []int{0, 7} { // 7 is past every scheduled split
		w.SetEpoch(epoch)
		for i, b := range w.Blocks() {
			for j := 0; j < 256; j++ {
				if _, ok := w.popOfRec(&w.recs[i], b.Addr(j)); !ok {
					t.Fatalf("epoch %d: %v has no pop", epoch, b.Addr(j))
				}
			}
		}
	}

	b := w.Blocks()[0]
	half := iputil.PrefixOf(b.Base(), 25)
	for name, entries := range map[string][]entry{
		"overlap": {{prefix: half}, {prefix: half}},
		"gap":     {{prefix: iputil.PrefixOf(b.Addr(128), 25)}, {prefix: half}},
		"short":   {{prefix: half}},
		"outside": {{prefix: half}, {prefix: iputil.PrefixOf((b + 1).Addr(128), 25)}},
	} {
		bad := &World{
			recs:       []blockRec{{entryN: uint8(len(entries))}},
			blockList:  []iputil.Block24{b},
			entryArena: entries,
		}
		if err := bad.checkInvariants(); err == nil {
			t.Errorf("%s: checkInvariants accepted %v", name, entries)
		}
	}
}
