package netsim

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/metadata"
)

// testConfig builds a small world that keeps the full planted structure.
func testConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.BigBlockScale = 0.02
	return cfg
}

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(100)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("NumBlocks=0 should fail")
	}
	bad = DefaultConfig(100)
	bad.KValues = []int{1, 2}
	bad.KWeights = []float64{1, 1}
	if err := bad.Validate(); err == nil {
		t.Error("K=1 in KValues should fail")
	}
	bad = DefaultConfig(100)
	bad.HeteroCompositions = [][]int{{25, 26}} // does not tile
	bad.HeteroCompWeights = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("non-tiling composition should fail")
	}
	bad = DefaultConfig(100)
	bad.PersistProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("probability out of range should fail")
	}
}

func TestCompositionsTile(t *testing.T) {
	for i, comp := range paperCompositions() {
		total := 0
		for _, ln := range comp {
			total += 1 << (32 - uint(ln))
		}
		if total != 256 {
			t.Errorf("composition %d covers %d addresses", i, total)
		}
	}
}

func TestWorldUniverseSize(t *testing.T) {
	w := testWorld(t, 2000)
	if got := len(w.Blocks()); got != 2000 {
		t.Fatalf("universe = %d blocks, want 2000", got)
	}
	// Sorted and unique.
	prev := iputil.Block24(0)
	for i, b := range w.Blocks() {
		if i > 0 && b <= prev {
			t.Fatalf("blockList not strictly sorted at %d", i)
		}
		prev = b
	}
}

func TestWorldDeterministic(t *testing.T) {
	w1 := testWorld(t, 500)
	w2 := testWorld(t, 500)
	b1, b2 := w1.Blocks(), w2.Blocks()
	if len(b1) != len(b2) {
		t.Fatal("universes differ in size")
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("universe differs at %d: %v vs %v", i, b1[i], b2[i])
		}
	}
	// Same probe, same answer.
	dst := b1[42].Addr(77)
	for ttl := 1; ttl < 14; ttl++ {
		r1 := w1.Probe(dst, ttl, 3, 9)
		r2 := w2.Probe(dst, ttl, 3, 9)
		if r1 != r2 {
			t.Fatalf("probe differs at ttl %d: %+v vs %+v", ttl, r1, r2)
		}
	}
}

func TestHeterogeneousPlanting(t *testing.T) {
	w := testWorld(t, 4000)
	hs := w.HeteroBlocks()
	if len(hs) == 0 {
		t.Fatal("no heterogeneous blocks planted")
	}
	want := int(0.013*4000.0) + 1
	if len(hs) < want/2 || len(hs) > want*2 {
		t.Errorf("hetero count = %d, want ~%d", len(hs), want)
	}
	for _, b := range hs {
		entries := w.TrueEntries(b)
		if len(entries) < 2 {
			t.Fatalf("hetero block %v has %d entries", b, len(entries))
		}
		covered := 0
		for _, p := range entries {
			if p.Base.Block24() != b {
				t.Fatalf("entry %v outside block %v", p, b)
			}
			covered += p.Size()
		}
		if covered != 256 {
			t.Fatalf("hetero block %v entries cover %d addresses", b, covered)
		}
		if hom, known := w.TrueHomogeneous(b); hom || !known {
			t.Fatalf("hetero block %v reported homogeneous=%v known=%v", b, hom, known)
		}
		// WHOIS must confirm the split (Table 4's verification).
		if !w.Whois().IsSplit(b) {
			t.Fatalf("hetero block %v has no split WHOIS allocation", b)
		}
		// Sub-entries must map to distinct last-hop routers.
		lh0, _ := w.TrueLastHops(entries[0].Base)
		lh1, _ := w.TrueLastHops(entries[1].Base)
		if len(lh0) == 0 || len(lh1) == 0 {
			t.Fatal("missing true last hops for hetero entries")
		}
		if lh0[0] == lh1[0] {
			t.Fatalf("hetero sub-blocks of %v share a last hop", b)
		}
	}
}

func TestHomogeneousGroundTruth(t *testing.T) {
	w := testWorld(t, 1000)
	homog := 0
	for _, b := range w.Blocks() {
		hom, known := w.TrueHomogeneous(b)
		if !known {
			t.Fatalf("block %v unknown", b)
		}
		if hom {
			homog++
			if len(w.TrueEntries(b)) != 1 {
				t.Fatalf("homogeneous block %v has multiple entries", b)
			}
			if _, ok := w.TrueAggregate(b); !ok {
				t.Fatalf("homogeneous block %v has no aggregate", b)
			}
		}
	}
	if homog < 900 {
		t.Errorf("homogeneous count = %d of 1000, want > 900", homog)
	}
}

func TestAggregateConsistency(t *testing.T) {
	w := testWorld(t, 1500)
	// Every pair of blocks in the same aggregate shares true last hops.
	seen := make(map[int32]iputil.Block24)
	for _, b := range w.Blocks() {
		pid, ok := w.TrueAggregate(b)
		if !ok {
			continue
		}
		if first, dup := seen[pid]; dup {
			lhA, _ := w.TrueLastHops(first.Addr(1))
			lhB, _ := w.TrueLastHops(b.Addr(1))
			if len(lhA) != len(lhB) {
				t.Fatalf("aggregate %d blocks disagree on K", pid)
			}
			for i := range lhA {
				if lhA[i] != lhB[i] {
					t.Fatalf("aggregate %d blocks disagree on last hops", pid)
				}
			}
		} else {
			seen[pid] = b
		}
	}
}

func TestProbeSemantics(t *testing.T) {
	w := testWorld(t, 500)
	// Find a responsive destination.
	var dst iputil.Addr
	var found bool
	for _, b := range w.Blocks() {
		for i := 1; i < 255; i++ {
			a := b.Addr(i)
			if w.RespondsNow(a) {
				dst, found = a, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no responsive destination in world")
	}

	p, ok := w.popOf(dst)
	if !ok {
		t.Fatal("responsive destination is not routed")
	}
	dist := forwardDist(p)
	if dist < 5 || dist > maxHops+1 {
		t.Fatalf("forward distance = %d", dist)
	}
	// A probe with enough TTL reaches the destination (retry across salt
	// to ride over simulated loss).
	gotEcho := false
	for salt := uint32(0); salt < 8; salt++ {
		if r := w.Probe(dst, dist, 1, salt); r.Kind == EchoReply {
			gotEcho = true
			break
		}
	}
	if !gotEcho {
		t.Error("no echo reply at forward distance")
	}
	// A probe one hop short gets a TTL-exceeded from the last-hop router
	// (or silence if that router is unresponsive/rate-limited).
	trueLH, _ := w.TrueLastHops(dst)
	sawLH := false
	for salt := uint32(0); salt < 8; salt++ {
		r := w.Probe(dst, dist-1, 1, salt)
		if r.Kind == TTLExceeded {
			for _, lh := range trueLH {
				if r.From == lh {
					sawLH = true
				}
			}
			if !sawLH {
				t.Fatalf("TTL-exceeded from %v which is not a true last hop %v", r.From, trueLH)
			}
			break
		}
	}
	// TTL zero and negative never answer.
	if r := w.Probe(dst, 0, 1, 0); r.Kind != NoReply {
		t.Error("ttl=0 should not reply")
	}
	// First hop is the vantage access router and always responds
	// (modulo rate limiting; retry).
	sawFirst := false
	for salt := uint32(0); salt < 8; salt++ {
		if r := w.Probe(dst, 1, 1, salt); r.Kind == TTLExceeded {
			sawFirst = true
			break
		}
	}
	if !sawFirst {
		t.Error("no reply from first hop")
	}
}

func TestUnroutedDestination(t *testing.T) {
	w := testWorld(t, 100)
	// 223.255.255.0/24 is far beyond the small allocation walk.
	dst := iputil.MustParseAddr("223.255.255.7")
	if _, ok := w.popOf(dst); ok {
		t.Skip("address unexpectedly allocated")
	}
	if _, ok := w.Ping(dst, 0); ok {
		t.Error("unrouted destination answered ping")
	}
	if r := w.Probe(dst, 10, 1, 0); r.Kind != NoReply {
		t.Error("unrouted destination answered probe beyond access hops")
	}
	// Access routers still answer low-TTL probes.
	sawAccess := false
	for salt := uint32(0); salt < 8; salt++ {
		if r := w.Probe(dst, 2, 1, salt); r.Kind == TTLExceeded {
			sawAccess = true
			break
		}
	}
	if !sawAccess {
		t.Error("access routers should answer probes toward unrouted space")
	}
}

func TestPerFlowAndPerDestDiversity(t *testing.T) {
	w := testWorld(t, 800)
	// Find a /24 on a pop with K > 1.
	var blk iputil.Block24
	for _, b := range w.Blocks() {
		if w.TrueLastHopCardinality(b) > 1 && !w.UnresponsiveLastHop(b) {
			if hom, _ := w.TrueHomogeneous(b); hom {
				blk = b
				break
			}
		}
	}
	if blk == 0 {
		t.Fatal("no multi-last-hop block found")
	}
	// Per-flow: same destination, different flows -> multiple mid hops.
	dst := blk.Addr(10)
	var hops [maxHops]routerID
	mids := make(map[routerID]struct{})
	for flow := uint16(0); flow < 64; flow++ {
		n, ok := w.route(0, dst, flow, &hops)
		if !ok || n < 6 {
			t.Fatal("short route")
		}
		mids[hops[3]] = struct{}{}
	}
	if len(mids) < 2 {
		t.Errorf("per-flow diversity = %d mid hops, want >= 2", len(mids))
	}
	// Per-destination: same flow, different destinations -> multiple
	// last hops within the /24.
	lasts := make(map[routerID]struct{})
	for i := 0; i < 128; i++ {
		n, ok := w.route(0, blk.Addr(i), 1, &hops)
		if !ok {
			t.Fatal("unrouted address inside universe block")
		}
		lasts[hops[n-1]] = struct{}{}
	}
	if len(lasts) < 2 {
		t.Errorf("per-destination diversity = %d last hops, want >= 2", len(lasts))
	}
	// For a non-flow-divergent pop, the per-destination choice is
	// stable across flows.
	var stable iputil.Block24
	for _, b := range w.Blocks() {
		if w.TrueLastHopCardinality(b) > 1 && !w.FlowDivergentLast(b) {
			stable = b
			break
		}
	}
	if stable != 0 {
		sdst := stable.Addr(10)
		n1, _ := w.route(0, sdst, 1, &hops)
		lh1 := hops[n1-1]
		n2, _ := w.route(0, sdst, 9999, &hops)
		lh2 := hops[n2-1]
		if lh1 != lh2 {
			t.Error("last hop must not depend on flow ID for stable pops")
		}
	}
	// For a flow-divergent pop, some flow pair must disagree.
	var div iputil.Block24
	for _, b := range w.Blocks() {
		if w.FlowDivergentLast(b) {
			div = b
			break
		}
	}
	if div != 0 {
		ddst := div.Addr(10)
		lhSet := map[routerID]struct{}{}
		for f := uint16(0); f < 32; f++ {
			n, _ := w.route(0, ddst, f, &hops)
			lhSet[hops[n-1]] = struct{}{}
		}
		if len(lhSet) > 2 {
			t.Errorf("flow-divergent pop exposed %d last hops for one dst, want <= 2", len(lhSet))
		}
	}
}

func TestScanActivePersistRates(t *testing.T) {
	w := testWorld(t, 2000)
	// The paper's 84% responsiveness (54.05M of 64.45M) is over probed
	// destinations, i.e. blocks passing the census criteria — which are
	// dominated by high-activity populations. Measure the same way:
	// count only blocks with at least 4 actives covering every /26.
	active, persist, total := 0, 0, 0
	for _, b := range w.Blocks()[:800] {
		var perQ [4]int
		var addrs []iputil.Addr
		for i := 0; i < 256; i++ {
			a := b.Addr(i)
			if w.ScanPing(a) {
				perQ[a.Block26()]++
				addrs = append(addrs, a)
			}
		}
		if len(addrs) < 4 || perQ[0] == 0 || perQ[1] == 0 || perQ[2] == 0 || perQ[3] == 0 {
			continue
		}
		total += 256
		for _, a := range addrs {
			active++
			if w.persistsRec(w.rec(b), a) {
				persist++
			}
		}
	}
	if active == 0 {
		t.Fatal("no active hosts")
	}
	rate := float64(persist) / float64(active)
	if rate < 0.75 || rate > 0.92 {
		t.Errorf("persist rate = %v, want ~0.84", rate)
	}
	frac := float64(active) / float64(total)
	if frac < 0.05 || frac > 0.35 {
		t.Errorf("scan-active fraction among eligible blocks = %v", frac)
	}
}

func TestDefaultTTLDistribution(t *testing.T) {
	w := testWorld(t, 200)
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		counts[w.hostDefaultTTL(iputil.Addr(0x01000000+uint32(i)))]++
	}
	if counts[64] < counts[128] {
		t.Error("TTL 64 should dominate 128")
	}
	if counts[255] == 0 || counts[255] > counts[128] {
		t.Errorf("TTL 255 count = %d out of balance", counts[255])
	}
}

func TestBigBlockPopsPresent(t *testing.T) {
	w := testWorld(t, 3000)
	pops := w.BigBlockPops()
	for _, name := range []string{"egi", "tele2-a", "amazon-apne", "cox", "twc", "amazon-dub"} {
		if len(pops[name]) == 0 {
			t.Errorf("big block %q missing", name)
		}
	}
	if len(pops["twc"]) < 2 {
		t.Errorf("twc should split into several pops, got %d", len(pops["twc"]))
	}
	// Named aggregates carry their AS metadata.
	egi := pops["egi"][0]
	blocks := w.AggregateBlocks(egi)
	if len(blocks) == 0 {
		t.Fatal("egi aggregate empty")
	}
	info, ok := w.Geo().Lookup(blocks[0])
	if !ok || info.ASN != 18779 || info.Org != "EGI Hosting" {
		t.Errorf("egi geo = %+v, %v", info, ok)
	}
}

func TestRDNSNames(t *testing.T) {
	w := testWorld(t, 3000)
	pops := w.BigBlockPops()
	// Tele2 cellular names match the paper's regex.
	tele2 := w.AggregateBlocks(pops["tele2-a"][0])
	if len(tele2) == 0 {
		t.Fatal("tele2 aggregate empty")
	}
	name, ok := w.RDNSName(tele2[0].Addr(5))
	if !ok || !metadata.Tele2CellularPattern.MatchString(name) {
		t.Errorf("tele2 rDNS = %q, %v", name, ok)
	}
	// EC2 names carry the region endpoint.
	apne := w.AggregateBlocks(pops["amazon-apne"][0])
	name, ok = w.RDNSName(apne[0].Addr(5))
	if !ok || !contains(name, "ap-northeast-1") {
		t.Errorf("EC2 rDNS = %q", name)
	}
	// Router interfaces have router names.
	name, ok = w.RDNSName(routerSpaceBase + 3)
	if !ok || !contains(name, "transit") {
		t.Errorf("router rDNS = %q", name)
	}
	// Unallocated space has no PTR.
	if _, ok := w.RDNSName(iputil.MustParseAddr("223.255.255.1")); ok {
		t.Error("unallocated address has a PTR record")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestBGPPrefixShare(t *testing.T) {
	w := testWorld(t, 2000)
	prefixes := w.BGPPrefixes()
	if len(prefixes) == 0 {
		t.Fatal("empty BGP table")
	}
	n24 := 0
	for _, p := range prefixes {
		if p.Len < 8 || p.Len > 24 {
			t.Fatalf("implausible BGP prefix %v", p)
		}
		if p.Len == 24 {
			n24++
		}
	}
	share := float64(n24) / float64(len(prefixes))
	if share < 0.50 || share > 0.62 {
		t.Errorf("/24 share = %v, want ~0.53", share)
	}
}

func TestCIDRDecompose(t *testing.T) {
	cases := []struct {
		base iputil.Block24
		n    int
		want int // number of prefixes
	}{
		{iputil.MustParseBlock24("10.0.0.0"), 1, 1},
		{iputil.MustParseBlock24("10.0.0.0"), 2, 1},   // aligned /23
		{iputil.MustParseBlock24("10.0.1.0"), 2, 2},   // misaligned
		{iputil.MustParseBlock24("10.0.0.0"), 256, 1}, // /16
		{iputil.MustParseBlock24("10.0.1.0"), 3, 2},   // /24 + /23
	}
	for _, c := range cases {
		got := cidrDecompose(c.base, c.n)
		if len(got) != c.want {
			t.Errorf("cidrDecompose(%v, %d) = %v, want %d prefixes", c.base, c.n, got, c.want)
		}
		covered := 0
		for _, p := range got {
			covered += p.Size() / 256
		}
		if covered != c.n {
			t.Errorf("cidrDecompose(%v, %d) covers %d /24s", c.base, c.n, covered)
		}
	}
}

func TestStarvedBlocks(t *testing.T) {
	w := testWorld(t, 3000)
	pops := w.BigBlockPops()
	dub := pops["amazon-dub"]
	if len(dub) == 0 {
		t.Skip("dublin aggregate not planted at this scale")
	}
	blocks := w.AggregateBlocks(dub[0])
	if len(blocks) == 0 {
		t.Fatal("dublin aggregate empty")
	}
	for _, b := range blocks {
		if !w.IsStarved(b) {
			t.Fatalf("dublin block %v not starved", b)
		}
	}
	// Starved blocks should have markedly fewer actives than normal.
	countActives := func(bs []iputil.Block24) float64 {
		total := 0
		for _, b := range bs {
			for i := 0; i < 256; i++ {
				if w.ScanPing(b.Addr(i)) {
					total++
				}
			}
		}
		return float64(total) / float64(len(bs))
	}
	// Starvation is a mild activity reduction: the fragmentation of
	// starved aggregates is driven by Hobbit's early termination, while
	// enough hosts remain for the exhaustive reprobe to complete their
	// last-hop sets. Per-/26 noise makes small-sample comparisons
	// flaky, so allow a small margin over the normal population.
	egi := w.AggregateBlocks(pops["egi"][0])
	if sa, na := countActives(blocks), countActives(egi); sa > na*1.1 {
		t.Errorf("starved actives/block = %v vs normal %v", sa, na)
	}
	if w.Config().ActiveMeanStarved >= w.Config().ActiveMeanHigh {
		t.Error("starved activity mean should be below normal")
	}
	// And the Dublin pop must be flow-divergent so reprobing can
	// enumerate last hops past the early-stop view.
	if !w.FlowDivergentLast(blocks[0]) {
		t.Error("starved aggregate should be flow-divergent")
	}
}
