package netsim

import (
	"testing"
	"testing/quick"
)

// TestRouteProperties checks structural invariants of path construction
// over arbitrary destinations and flows: determinism, length bounds, and
// the flow-independence of everything before the core diamond.
func TestRouteProperties(t *testing.T) {
	w := testWorld(t, 600)
	blocks := w.Blocks()
	f := func(blockIdx uint16, host uint8, flow uint16, vRaw uint8) bool {
		b := blocks[int(blockIdx)%len(blocks)]
		dst := b.Addr(int(host))
		v := int(vRaw) % w.NumVantages()
		var h1, h2 [maxHops]routerID
		n1, ok1 := w.route(v, dst, flow, &h1)
		n2, ok2 := w.route(v, dst, flow, &h2)
		if n1 != n2 || ok1 != ok2 {
			return false // deterministic
		}
		for i := 0; i < n1; i++ {
			if h1[i] != h2[i] {
				return false
			}
		}
		if !ok1 {
			return true
		}
		if n1 < 5 || n1 > maxHops {
			return false // plausible path length
		}
		// Hops reference real routers.
		for i := 0; i < n1; i++ {
			if int(h1[i]) >= len(w.routers) {
				return false
			}
		}
		// A different flow may change the core diamond and (for
		// flow-divergent pops) the last hop, but never the access
		// routers, core in/out, or AS ingress.
		var h3 [maxHops]routerID
		n3, _ := w.route(v, dst, flow+7, &h3)
		if n3 != n1 {
			return false
		}
		for _, i := range []int{0, 1, 2, 4, 5} {
			if h1[i] != h3[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// TestProbeTTLWalk checks that walking TTLs toward any destination sees
// the hop sequence route() promises, with silence only from unresponsive
// or rate-limited routers.
func TestProbeTTLWalk(t *testing.T) {
	w := testWorld(t, 300)
	blocks := w.Blocks()
	f := func(blockIdx uint16, host uint8) bool {
		b := blocks[int(blockIdx)%len(blocks)]
		dst := b.Addr(int(host))
		var hops [maxHops]routerID
		n, ok := w.route(0, dst, 3, &hops)
		if !ok {
			return true
		}
		for ttl := 1; ttl <= n; ttl++ {
			var got ProbeReply
			for salt := uint32(0); salt < 6; salt++ {
				got = w.Probe(dst, ttl, 3, salt)
				if got.Kind == TTLExceeded {
					break
				}
			}
			r := w.routers[hops[ttl-1]]
			switch got.Kind {
			case TTLExceeded:
				if got.From != r.addr {
					return false // wrong router answered
				}
			case NoReply:
				if r.responsive {
					// Responsive routers only stay silent under
					// rate limiting; six salts at 2% each make
					// that astronomically unlikely.
					return false
				}
			case EchoReply:
				return false // destination cannot answer below its TTL
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestVantageZeroMatchesWorld checks that vantage 0 is byte-identical to
// the World's own probe surface: every probe reply and every ping, rate
// limiting and loss draws included, at epochs 0 and 1.
func TestVantageZeroMatchesWorld(t *testing.T) {
	w := testWorld(t, 200)
	defer w.SetEpoch(0)
	vt := w.Vantage(0)
	blocks := w.Blocks()
	f := func(blockIdx uint16, host uint8, ttl uint8, flow uint16, salt uint32) bool {
		dst := blocks[int(blockIdx)%len(blocks)].Addr(int(host))
		t1 := int(ttl)%(maxHops+1) + 1
		if w.Probe(dst, t1, flow, salt) != vt.Probe(dst, t1, flow, salt) {
			return false
		}
		seq := int(salt % 8)
		wr, wok := w.Ping(dst, seq)
		vr, vok := vt.Ping(dst, seq)
		return wr == vr && wok == vok
	}
	for epoch := 0; epoch <= 1; epoch++ {
		w.SetEpoch(epoch)
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("epoch %d: %v", epoch, err)
		}
	}
	// An exhaustive sweep of a few blocks catches the rare rate-limit and
	// loss draws a random sample can miss.
	w.SetEpoch(0)
	for _, b := range blocks[:20] {
		for i := 0; i < 256; i++ {
			dst := b.Addr(i)
			for ttl := 1; ttl <= maxHops+1; ttl++ {
				if got, want := vt.Probe(dst, ttl, 3, 1), w.Probe(dst, ttl, 3, 1); got != want {
					t.Fatalf("Probe(%v, ttl=%d): vantage 0 %+v, world %+v", dst, ttl, got, want)
				}
			}
			gr, gok := vt.Ping(dst, 0)
			wr, wok := w.Ping(dst, 0)
			if gr != wr || gok != wok {
				t.Fatalf("Ping(%v): vantage 0 (%+v, %v), world (%+v, %v)", dst, gr, gok, wr, wok)
			}
		}
	}
}
