package netsim

import (
	"math/rand"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/metadata"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// Router interfaces are allocated from 100.64.0.0/10 (the shared address
// space), which is disjoint from the destination universe.
const routerSpaceBase = iputil.Addr(100<<24 | 64<<16)

// topologyRegions are the backbone regions; ASes attach to one by country.
var topologyRegions = []string{
	"us-east", "us-west", "eu-west", "eu-north", "eu-east",
	"ap-ne", "ap-se", "kr", "sa-east",
}

// regionOfCountry maps AS countries onto backbone regions.
func regionOfCountry(country string) string {
	switch country {
	case "US":
		return "us-east"
	case "Korea":
		return "kr"
	case "Japan":
		return "ap-ne"
	case "Singapore", "Malaysia":
		return "ap-se"
	case "Sweden":
		return "eu-north"
	case "France", "Denmark", "Ireland":
		return "eu-west"
	case "Georgia":
		return "eu-east"
	default:
		return "us-west"
	}
}

func (w *World) newRouter(regionName string, responsive bool) routerID {
	id := routerID(len(w.routers))
	w.routers = append(w.routers, router{
		addr:       routerSpaceBase + iputil.Addr(len(w.routers)),
		responsive: responsive,
		region:     regionName,
	})
	return id
}

func (w *World) buildTopologyCore(genRand *rand.Rand) {
	// Each vantage point's access routers (always responsive: they are
	// one hop from the prober).
	for v := 0; v < w.cfg.Vantages; v++ {
		w.srcHops = append(w.srcHops, [2]routerID{
			w.newRouter("src", true),
			w.newRouter("src", true),
		})
	}

	for _, name := range topologyRegions {
		r := &region{name: name}
		r.coreIn = w.newRouter(name, w.routerResponsive(genRand))
		for i := 0; i < w.cfg.PerFlowFanout; i++ {
			r.coreMid = append(r.coreMid, w.newRouter(name, w.routerResponsive(genRand)))
		}
		r.coreOut = w.newRouter(name, w.routerResponsive(genRand))
		w.regions = append(w.regions, r)
	}
}

func (w *World) routerResponsive(genRand *rand.Rand) bool {
	return genRand.Float64() >= w.cfg.PRouterUnresponsive
}

func (w *World) regionByName(name string) *region {
	for _, r := range w.regions {
		if r.name == name {
			return r
		}
	}
	return w.regions[0]
}

func (w *World) newAS(asn int, org, country string, otype metadata.OrgType, genRand *rand.Rand) *asRec {
	reg := w.regionByName(regionOfCountry(country))
	a := &asRec{
		asn:     asn,
		org:     org,
		country: country,
		otype:   otype,
		region:  reg,
		ingress: w.newRouter(reg.name, w.routerResponsive(genRand)),
	}
	// Vary path length per AS with a short intra-AS chain.
	for i, n := 0, genRand.Intn(3); i < n; i++ {
		a.chain = append(a.chain, w.newRouter(reg.name, w.routerResponsive(genRand)))
	}
	w.ases = append(w.ases, a)
	return a
}

// newPop creates a point of presence under the given AS with k last-hop
// routers. unrespLast makes all its last-hop routers unresponsive.
func (w *World) newPop(as *asRec, k int, unrespLast bool, genRand *rand.Rand) *pop {
	p := &pop{
		id:  int32(len(w.pops)),
		as:  as,
		big: -1,
	}
	// Some single-last-hop edges have no per-destination branching at
	// all: every address shares every route, so even the straw-man
	// whole-route comparison sees them as homogeneous.
	df1, df2 := w.cfg.PerDestFanout, w.cfg.PerDestFanout2
	if k == 1 && genRand.Float64() < w.cfg.PNoPerDestLB {
		df1, df2 = 1, 1
	}
	for i := 0; i < df1; i++ {
		p.destMid = append(p.destMid, w.newRouter(as.region.name, w.routerResponsive(genRand)))
	}
	for i := 0; i < df2; i++ {
		p.destMid2 = append(p.destMid2, w.newRouter(as.region.name, w.routerResponsive(genRand)))
	}
	for i := 0; i < k; i++ {
		responsive := !unrespLast
		p.lastHops = append(p.lastHops, w.newRouter(as.region.name, responsive))
	}
	p.unresp = unrespLast
	// Flow-divergent last hops only occur at k >= 3: with two last hops
	// a per-flow split makes both groups span the whole block and the
	// range test degenerates to inclusion.
	p.flowDiv = k >= 3 && genRand.Float64() < w.cfg.PFlowDivergentLast
	// Some per-destination load balancers hash the source address too,
	// so probing from another vantage reveals different branches
	// (Section 6.1).
	p.srcSens = genRand.Float64() < w.cfg.PSrcSensitiveLB
	w.pops = append(w.pops, p)
	return p
}

// Hash-key salts for probe-time decisions.
const (
	saltFlow    = 0x11
	saltDest    = 0x22
	saltLast    = 0x33
	saltRate    = 0x44
	saltActive  = 0x55
	saltPersist = 0x66
	saltTTL     = 0x77
	saltSkew    = 0x88
	saltLoss    = 0x99
	saltRate26  = 0xaa
	saltTWCVar  = 0xbb
)

// Forward paths. A probe from vantage v toward a destination served by
// pop p crosses, by TTL:
//
//	1, 2         the vantage's two access routers
//	3            the region's core ingress
//	4            a core middle router, per-flow ECMP
//	5            the core egress
//	6            the AS ingress
//	7 … 6+len(c) the AS's intra-AS chain c
//	n-2, n-1     two cascaded per-destination ECMP stages
//	n            a last-hop router
//
// with n = pathLen(p); the destination sits at TTL n+1. Unrouted space
// has no path past the access routers (n = 2). Every ECMP choice is a
// keyed hash, so a hop is derived on its own, without walking the hops
// before it.

// pathLen is the number of router hops between any vantage and the
// addresses of pop p. It is flow- and vantage-independent.
func pathLen(p *pop) int { return 9 + len(p.as.chain) }

// forwardDist returns the forward hop distance to an address of pop p:
// the TTL a probe needs to reach the destination itself.
func forwardDist(p *pop) int { return pathLen(p) + 1 }

// probeHop returns the routed-path length from vantage v toward dst,
// whose pop is p (nil for unrouted space), and the router a probe with
// the given ttl expires at (meaningful only when 1 <= ttl <= n). Only the
// probed hop is derived, drawing at most that hop's ECMP hash.
//
//hobbit:hotpath
func (w *World) probeHop(v int, p *pop, dst iputil.Addr, flowID uint16, ttl int) (n int, hop routerID) {
	if v < 0 || v >= len(w.srcHops) {
		v = 0
	}
	n = 2
	if p != nil {
		n = pathLen(p)
	}
	if ttl < 1 || ttl > n {
		return n, 0
	}
	if ttl <= 2 {
		return n, w.srcHops[v][ttl-1]
	}
	reg, chain := p.as.region, p.as.chain
	// srcKey folds the vantage into hashes of source-sensitive load
	// balancers only.
	var srcKey uint64
	if p.srcSens {
		srcKey = uint64(v)
	}
	switch {
	case ttl == 3:
		return n, reg.coreIn
	case ttl == 4:
		// Per-flow ECMP: the hash covers (src, dst, flowID), as a
		// router hashing the five-tuple would.
		return n, reg.coreMid[rng.Intn(len(reg.coreMid), w.seed, uint64(dst), uint64(flowID), uint64(v), saltFlow)]
	case ttl == 5:
		return n, reg.coreOut
	case ttl == 6:
		return n, p.as.ingress
	case ttl <= 6+len(chain):
		return n, chain[ttl-7]
	// Per-destination ECMP, two cascaded stages: both hash the
	// destination only (plus the source for source-sensitive balancers),
	// so every probe toward dst takes the same branch while adjacent
	// addresses diverge (the Section 2.2 effect) and whole-path
	// diversity multiplies across the cascade.
	case ttl == n-2:
		return n, p.destMid[rng.Intn(len(p.destMid), w.seed, uint64(dst), uint64(p.id), srcKey, saltDest)]
	case ttl == n-1:
		return n, p.destMid2[rng.Intn(len(p.destMid2), w.seed, uint64(dst), uint64(p.id), srcKey, saltDest, 2)]
	default:
		return n, p.lastHops[w.lastHop(p, dst, flowID, srcKey)]
	}
}

// lastHop picks the index of dst's last-hop router within p.lastHops.
// Flow-divergent load balancers fold flow fields into the last-hop hash,
// so paths toward one destination need not converge (Section 2.3). An
// active route flap folds an extra per-epoch key into the same hash,
// remapping the block's last-hop partition for as long as the flap lasts.
//
//hobbit:hotpath
func (w *World) lastHop(p *pop, dst iputil.Addr, flowID uint16, srcKey uint64) int {
	flapKey, flapping := w.faultFlap(dst.Block24())
	k := len(p.lastHops)
	switch {
	case p.flowDiv:
		bucket := uint64(rng.Intn(2, w.seed, uint64(dst), uint64(flowID), saltFlow, 7))
		if flapping {
			return rng.Intn(k, w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, bucket, flapKey)
		}
		return rng.Intn(k, w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, bucket)
	case flapping:
		return rng.Intn(k, w.seed, uint64(dst), uint64(p.id), srcKey, saltLast, flapKey)
	default:
		return rng.Intn(k, w.seed, uint64(dst), uint64(p.id), srcKey, saltLast)
	}
}

// TrueLastHops returns the ground-truth last-hop router addresses of the
// pop serving dst; ok is false for unrouted addresses.
func (w *World) TrueLastHops(dst iputil.Addr) ([]iputil.Addr, bool) {
	p, found := w.popOf(dst)
	if !found {
		return nil, false
	}
	out := make([]iputil.Addr, len(p.lastHops))
	for i, id := range p.lastHops {
		out[i] = w.routerAddr(id)
	}
	iputil.SortAddrs(out)
	return out, true
}
