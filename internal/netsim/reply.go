package netsim

import (
	"hash/fnv"
	"time"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/rng"
	"github.com/hobbitscan/hobbit/internal/rttmodel"
)

// ReplyKind classifies a probe outcome.
type ReplyKind int

// Probe outcomes.
const (
	NoReply ReplyKind = iota
	TTLExceeded
	EchoReply
)

// ProbeReply is the world's answer to one TTL-limited probe.
type ProbeReply struct {
	Kind ReplyKind
	// From is the router interface that sent a TTL-exceeded message.
	From iputil.Addr
	// RespTTL is the received TTL field of an echo reply, which encodes
	// the destination's default TTL minus the reverse hop count.
	RespTTL int
	// RTT is the probe round-trip time for replies.
	RTT time.Duration
}

// --- Host model: pure functions of (seed, address) ---

func (w *World) activityMean(rec *blockRec) float64 {
	switch {
	case rec.starved():
		return w.cfg.ActiveMeanStarved
	case rec.lowActivity():
		return w.cfg.ActiveMeanLow
	default:
		return w.cfg.ActiveMeanHigh
	}
}

// buildRate26 derives the activity rate stored in blockRec.rate26; kept
// identical to the historical per-probe computation so precomputing it
// changes no reply.
func (w *World) buildRate26(b iputil.Block24, rec *blockRec, q int) float64 {
	mu := w.activityMean(rec)
	noisy := rng.Norm(mu, mu/2.5, w.seed, uint64(b), uint64(q), saltRate26)
	if noisy < 0.15 {
		noisy = 0.15
	}
	if noisy > 48 {
		noisy = 48
	}
	return noisy / 64
}

// ScanPing answers an echo request sent at census time: whether the
// address answered the ICMP census scan (the ZMap snapshot taken the day
// before the current epoch's measurement), before availability churn
// between scan and measurement. Activity is correlated across epochs: a
// host flips state with probability EpochChurn per epoch, keeping
// population density stable while individual hosts come and go.
func (w *World) ScanPing(a iputil.Addr) bool {
	rec := w.rec(a.Block24())
	return rec != nil && w.scanActiveRec(rec, a)
}

// ScanBlock answers the census for a whole /24: bit i of the bitmap
// (word i>>6, bit i&63) is ScanPing(b.Addr(i)). The block record is
// resolved once for all 256 addresses; checkInvariants guarantees every
// address of a universe block is routed, so no per-address pop lookup is
// needed. Blocks outside the universe answer all zeros.
//
//hobbit:hotpath
func (w *World) ScanBlock(b iputil.Block24) (bm [4]uint64) {
	rec := w.rec(b)
	if rec == nil {
		return bm
	}
	for i := 0; i < 256; i++ {
		if w.scanActiveRec(rec, b.Addr(i)) {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	return bm
}

// scanActiveRec is ScanPing with the block record already resolved
// (rates are clamped ≥ 0.15/64 at build time, so a present record always
// has a non-zero rate — the zero-rate guard is the nil-record case).
//
//hobbit:hotpath
func (w *World) scanActiveRec(rec *blockRec, a iputil.Addr) bool {
	rate := rec.rate26[a.Block26()]
	active := rng.Bool(rate, w.seed, uint64(a), saltActive)
	if w.epoch > 0 && w.cfg.EpochChurn > 0 {
		if active {
			if rng.Bool(w.cfg.EpochChurn, w.seed, uint64(a), uint64(w.epoch), saltEpochAct) {
				active = false
			}
		} else if rate < 1 {
			// Arrivals balance departures so density stays stable.
			pOn := w.cfg.EpochChurn * rate / (1 - rate)
			if pOn > 1 {
				pOn = 1
			}
			if rng.Bool(pOn, w.seed, uint64(a), uint64(w.epoch), saltEpochAct) {
				active = true
			}
		}
	}
	return active
}

// persists reports whether a scan-active host still answers at probe time;
// the paper saw 54.05M of 64.45M probed destinations respond. Hosts in
// low-activity blocks churn harder.
//
//hobbit:hotpath
func (w *World) persists(a iputil.Addr) bool {
	rec := w.rec(a.Block24())
	p := w.cfg.PersistProb
	if rec != nil && rec.lowActivity() {
		p = w.cfg.PersistProbLow
	}
	return rng.Bool(p, w.seed, w.epochKey(a), saltPersist)
}

// persistsRec is persists with the block record already resolved.
//
//hobbit:hotpath
func (w *World) persistsRec(rec *blockRec, a iputil.Addr) bool {
	p := w.cfg.PersistProb
	if rec.lowActivity() {
		p = w.cfg.PersistProbLow
	}
	return rng.Bool(p, w.seed, w.epochKey(a), saltPersist)
}

// RespondsNow reports whether the destination answers probes at
// measurement time: the host must be up and its aggregate's edge must not
// be suffering an outage.
//
//hobbit:hotpath
func (w *World) RespondsNow(a iputil.Addr) bool {
	rec := w.rec(a.Block24())
	if rec == nil {
		return false
	}
	p, _ := w.popOfRec(rec, a)
	return w.respondsNowRec(rec, p, a)
}

// respondsNowRec is RespondsNow with the block record and the address's
// pop (nil when unrouted) already resolved.
//
//hobbit:hotpath
func (w *World) respondsNowRec(rec *blockRec, p *pop, a iputil.Addr) bool {
	if !w.scanActiveRec(rec, a) || !w.persistsRec(rec, a) {
		return false
	}
	return w.epoch == 0 || p == nil || !w.popDown(p)
}

var defaultTTLs = [3]int{64, 128, 255}

// hostDefaultTTL returns the initial TTL the destination's OS writes into
// echo replies.
//
//hobbit:hotpath
func (w *World) hostDefaultTTL(a iputil.Addr) int {
	return defaultTTLs[rng.WeightedChoice(w.cfg.TTLWeights[:], w.seed, uint64(a), saltTTL)]
}

// revSkewWeights is the distribution of non-zero reverse-minus-forward
// path-length skews; hoisted to package scope so the hot path builds no
// slice literal.
var revSkewWeights = []float64{0.4, 0.4, 0.2}

// revSkew is the difference between the host's reverse and forward path
// lengths; non-zero skews exercise the prober's first_ttl halving logic.
//
//hobbit:hotpath
func (w *World) revSkew(a iputil.Addr) int {
	if !rng.Bool(w.cfg.PReverseSkew, w.seed, uint64(a), saltSkew) {
		return 0
	}
	switch rng.WeightedChoice(revSkewWeights, w.seed, uint64(a), saltSkew, 1) {
	case 0:
		return -1
	case 1:
		return 1
	default:
		return 2
	}
}

// hashString is the build-time string hash behind region RTT bases. It
// allocates (fnv.New64a escapes through the hash.Hash64 interface), so the
// probe hot path never calls it: precompute stores the result on the
// region and the derived profile on each pop.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// rttProfile returns the delay model for the pop's host population,
// precomputed at World construction.
//
//hobbit:hotpath
func (w *World) rttProfile(p *pop) rttmodel.Profile {
	return p.rtt
}

// buildRTTProfile derives a pop's delay model from its region and kind;
// called once per pop by precompute. The base draw is keyed by the
// region-name hash exactly as the historical per-probe path was.
func (w *World) buildRTTProfile(p *pop) rttmodel.Profile {
	base := time.Duration(20+rng.Float64(w.seed, p.as.region.nameHash)*180) * time.Millisecond
	switch p.kind {
	case KindCellular:
		return rttmodel.Cellular(base, 15*time.Millisecond, 900*time.Millisecond)
	case KindDatacenter:
		return rttmodel.Wired(base, 2*time.Millisecond)
	default:
		return rttmodel.Wired(base, 8*time.Millisecond)
	}
}

// precompute derives every build-time constant the probe hot path reads:
// region-name hashes, per-pop RTT profiles, and per-(block, /26) activity
// rates. Called once at the end of New, after populations exist.
func (w *World) precompute() {
	for _, r := range w.regions {
		r.nameHash = hashString(r.name)
	}
	for _, p := range w.pops {
		p.rtt = w.buildRTTProfile(p)
	}
	for i, b := range w.blockList {
		rec := &w.recs[i]
		for q := 0; q < 4; q++ {
			rec.rate26[q] = w.buildRate26(b, rec, q)
		}
	}
}

// --- Probe primitives ---

// Ping sends an ICMP echo request to dst. seq distinguishes probes in a
// train (the first probe to a cellular host pays the radio-promotion
// delay). ok is false when the destination does not answer.
//
//hobbit:hotpath
func (w *World) Ping(dst iputil.Addr, seq int) (ProbeReply, bool) {
	return w.pingFrom(0, dst, seq)
}

// pingFrom is Ping from vantage v: one block-record and pop lookup serve
// the availability, loss, and echo-reply derivations.
//
// The per-reply loss draws here and in probeFrom key vantage 0 exactly
// as the single-vantage world always has and fold any other vantage in
// just before the salt — the flap-key rule of DESIGN §4f: an extra key
// only when it is non-zero. World and Vantage(0) therefore answer
// byte-identically, and vantages ≥1 keep their historical draws.
//
//hobbit:hotpath
func (w *World) pingFrom(v int, dst iputil.Addr, seq int) (ProbeReply, bool) {
	rec := w.rec(dst.Block24())
	if rec == nil {
		return ProbeReply{}, false
	}
	p, routed := w.popOfRec(rec, dst)
	if !routed || !w.respondsNowRec(rec, p, dst) || w.faultBlackholed(dst) {
		return ProbeReply{}, false
	}
	loss := w.faultPingLoss(v)
	if v == 0 {
		if rng.Bool(loss, w.seed, uint64(dst), uint64(seq), saltLoss) {
			return ProbeReply{}, false
		}
	} else if rng.Bool(loss, w.seed, uint64(dst), uint64(seq), uint64(v), saltLoss) {
		return ProbeReply{}, false
	}
	return w.echoReply(p, dst, seq), true
}

// echoReply is dst's answer once it is known to reply: the received TTL
// encodes the host's default TTL minus the reverse path length, and seq
// keys the RTT draw.
//
//hobbit:hotpath
func (w *World) echoReply(p *pop, dst iputil.Addr, seq int) ProbeReply {
	rev := forwardDist(p) + w.revSkew(dst)
	if rev < 1 {
		rev = 1
	}
	respTTL := w.hostDefaultTTL(dst) - rev
	if respTTL < 1 {
		respTTL = 1
	}
	return ProbeReply{
		Kind:    EchoReply,
		RespTTL: respTTL,
		RTT:     w.rttProfile(p).RTT(w.seed, dst, seq),
	}
}

// PingRTT implements rttmodel.Pinger for the cellular detector.
func (w *World) PingRTT(dst iputil.Addr, seq int) (time.Duration, bool) {
	r, ok := w.Ping(dst, seq)
	if !ok {
		return 0, false
	}
	return r.RTT, true
}

// Probe sends a TTL-limited probe toward dst. flowID selects the per-flow
// load-balanced path (the header fields Paris traceroute controls); salt
// distinguishes retransmissions so that rate-limiting drops are not
// deterministic across retries.
//
//hobbit:hotpath
func (w *World) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) ProbeReply {
	return w.probeFrom(0, dst, ttl, flowID, salt)
}

// probeFrom is Probe from vantage v: one block-record and pop lookup
// serve the hop derivation, the rate limit, and the echo path.
//
//hobbit:hotpath
func (w *World) probeFrom(v int, dst iputil.Addr, ttl int, flowID uint16, salt uint32) ProbeReply {
	if ttl < 1 {
		return ProbeReply{}
	}
	rec := w.rec(dst.Block24())
	var p *pop
	if rec != nil {
		p, _ = w.popOfRec(rec, dst)
	}
	n, hop := w.probeHop(v, p, dst, flowID, ttl)
	if ttl <= n {
		if ttl > blackholeCoreHops && w.faultBlackholed(dst) {
			// The withdrawn entry keeps traffic from reaching routers
			// past the backbone core.
			return ProbeReply{}
		}
		r := w.routers[hop]
		if !r.responsive {
			return ProbeReply{}
		}
		drop := w.faultRateLimit(v, p)
		if v == 0 {
			if rng.Bool(drop, w.seed, uint64(dst), uint64(ttl), uint64(flowID), uint64(salt), saltRate) {
				return ProbeReply{}
			}
		} else if rng.Bool(drop, w.seed, uint64(dst), uint64(ttl), uint64(flowID), uint64(salt), uint64(v), saltRate) {
			return ProbeReply{}
		}
		return ProbeReply{Kind: TTLExceeded, From: r.addr}
	}
	// Beyond the vantage point's access routers there is no route toward
	// an unallocated destination.
	if p == nil || !w.respondsNowRec(rec, p, dst) || w.faultBlackholed(dst) {
		return ProbeReply{}
	}
	loss := w.faultPingLoss(v)
	if v == 0 {
		if rng.Bool(loss, w.seed, uint64(dst), uint64(ttl), uint64(salt), saltLoss) {
			return ProbeReply{}
		}
	} else if rng.Bool(loss, w.seed, uint64(dst), uint64(ttl), uint64(salt), uint64(v), saltLoss) {
		return ProbeReply{}
	}
	return w.echoReply(p, dst, int(salt))
}
