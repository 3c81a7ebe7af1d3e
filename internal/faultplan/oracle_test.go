package faultplan

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// linearSchedule is the reference Schedule: per-kind event lists scanned
// in full on every query. It is the differential oracle for the indexed
// queries, which must answer identically — floats bit for bit, because
// the index sums overlapping storms in the same event order.
type linearSchedule struct {
	salt                                  uint64
	events                                []Event
	blackholes, storms, flaps, congestion []int
}

func newLinearSchedule(p *Plan) *linearSchedule {
	s := &linearSchedule{salt: p.Salt, events: append([]Event(nil), p.Events...)}
	for i := range s.events {
		switch s.events[i].Kind {
		case Blackhole:
			s.blackholes = append(s.blackholes, i)
		case RateStorm:
			s.storms = append(s.storms, i)
		case RouteFlap:
			s.flaps = append(s.flaps, i)
		case Congestion:
			s.congestion = append(s.congestion, i)
		}
	}
	return s
}

func (s *linearSchedule) Blackholed(epoch int, dst iputil.Addr) bool {
	for _, i := range s.blackholes {
		e := &s.events[i]
		if e.active(epoch) && e.Prefix.Contains(dst) {
			return true
		}
	}
	return false
}

func (s *linearSchedule) stormFiring(i int, e *Event, epoch int) bool {
	if !e.active(epoch) {
		return false
	}
	if e.Duty == 0 || e.Duty == 1 {
		return true
	}
	return rng.Bool(e.Duty, s.salt, uint64(i), uint64(epoch), saltBurst)
}

func (s *linearSchedule) RateBoost(epoch int, popID int32) float64 {
	var boost float64
	for _, i := range s.storms {
		e := &s.events[i]
		if e.Pop == popID && s.stormFiring(i, e, epoch) {
			boost += e.Severity
		}
	}
	return boost
}

func (s *linearSchedule) LossBoost(epoch int, vantage int) float64 {
	var boost float64
	for _, i := range s.congestion {
		e := &s.events[i]
		if e.active(epoch) && (e.Vantage < 0 || e.Vantage == vantage) {
			boost += e.Severity
		}
	}
	return boost
}

func (s *linearSchedule) FlapKey(epoch int, b iputil.Block24) (uint64, bool) {
	for _, i := range s.flaps {
		e := &s.events[i]
		if e.active(epoch) && e.Block == b {
			return rng.Mix(s.salt, uint64(i), uint64(epoch), saltFlap), true
		}
	}
	return 0, false
}

// EpochDelta lists scopes in plan order; compare against the indexed
// answer with sameDelta, which ignores order.
func (s *linearSchedule) EpochDelta(e1, e2 int) netsim.RouteDelta {
	var d netsim.RouteDelta
	if e1 == e2 {
		return d
	}
	for _, i := range s.congestion {
		e := &s.events[i]
		if e.active(e1) != e.active(e2) {
			d.All = true
			return d
		}
	}
	for _, i := range s.flaps {
		e := &s.events[i]
		if e.active(e1) || e.active(e2) {
			d.Blocks = append(d.Blocks, e.Block)
		}
	}
	for _, i := range s.blackholes {
		e := &s.events[i]
		if e.active(e1) != e.active(e2) {
			d.Prefixes = append(d.Prefixes, e.Prefix)
		}
	}
	for _, i := range s.storms {
		e := &s.events[i]
		if s.stormFiring(i, e, e1) != s.stormFiring(i, e, e2) {
			d.Pops = append(d.Pops, e.Pop)
		}
	}
	return d
}

// sameDelta reports whether two deltas name the same scope multisets.
// netsim.World.EpochDelta sorts and deduplicates the expansion, so scope
// order carries no meaning.
func sameDelta(a, b netsim.RouteDelta) bool {
	norm := func(d netsim.RouteDelta) netsim.RouteDelta {
		d.Blocks = append([]iputil.Block24(nil), d.Blocks...)
		d.Prefixes = append([]iputil.Prefix(nil), d.Prefixes...)
		d.Pops = append([]int32(nil), d.Pops...)
		sort.Slice(d.Blocks, func(i, j int) bool { return d.Blocks[i] < d.Blocks[j] })
		sort.Slice(d.Prefixes, func(i, j int) bool {
			if d.Prefixes[i].Base != d.Prefixes[j].Base {
				return d.Prefixes[i].Base < d.Prefixes[j].Base
			}
			return d.Prefixes[i].Len < d.Prefixes[j].Len
		})
		sort.Slice(d.Pops, func(i, j int) bool { return d.Pops[i] < d.Pops[j] })
		return d
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// checkAgainstOracle fails unless the indexed schedule and the linear
// oracle agree on every query at the given epochs and scopes, and on
// EpochDelta for every ordered pair of those epochs.
func checkAgainstOracle(t *testing.T, s *Schedule, o *linearSchedule, epochs []int, addrs []iputil.Addr, pops []int32, vantages []int) {
	t.Helper()
	for _, epoch := range epochs {
		for _, a := range addrs {
			if got, want := s.Blackholed(epoch, a), o.Blackholed(epoch, a); got != want {
				t.Fatalf("Blackholed(%d, %v) = %v, oracle %v", epoch, a, got, want)
			}
			key, ok := s.FlapKey(epoch, a.Block24())
			wkey, wok := o.FlapKey(epoch, a.Block24())
			if key != wkey || ok != wok {
				t.Fatalf("FlapKey(%d, %v) = (%#x, %v), oracle (%#x, %v)", epoch, a.Block24(), key, ok, wkey, wok)
			}
		}
		for _, pop := range pops {
			got, want := s.RateBoost(epoch, pop), o.RateBoost(epoch, pop)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RateBoost(%d, %d) = %v, oracle %v", epoch, pop, got, want)
			}
		}
		for _, v := range vantages {
			got, want := s.LossBoost(epoch, v), o.LossBoost(epoch, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LossBoost(%d, %d) = %v, oracle %v", epoch, v, got, want)
			}
		}
		for _, e2 := range epochs {
			if got, want := s.EpochDelta(epoch, e2), o.EpochDelta(epoch, e2); !sameDelta(got, want) {
				t.Fatalf("EpochDelta(%d, %d) = %+v, oracle %+v", epoch, e2, got, want)
			}
		}
	}
}

// TestBuiltinsMatchOracle runs every built-in plan through the oracle on
// a small world: every block's first and last address, every pop, and
// epochs on both sides of the built-in windows.
func TestBuiltinsMatchOracle(t *testing.T) {
	w := testWorld(t)
	var addrs []iputil.Addr
	for _, b := range w.Blocks() {
		addrs = append(addrs, b.Addr(0), b.Addr(255))
	}
	pops := append(worldPops(w), -1)
	for _, name := range BuiltinNames() {
		p, err := Builtin(name, w)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, MustCompile(p), newLinearSchedule(p),
			[]int{0, 1, 2, 3, 4}, addrs, pops, []int{-1, 0, 1})
	}
}

// TestIndexOrdering pins the two ordering rules the index keeps:
// overlapping storms on one pop sum in event order (float addition is
// not associative), and the lowest-indexed active flap on a block wins.
func TestIndexOrdering(t *testing.T) {
	blk := block("10.9.8.0")
	p := &Plan{Salt: 5, Events: []Event{
		{Kind: RouteFlap, From: 3, To: 9, Block: blk},
		{Kind: RateStorm, From: 0, To: 9, Pop: 2, Severity: 0.1, Duty: 1},
		{Kind: RateStorm, From: 0, To: 9, Pop: 1, Severity: 0.9, Duty: 1},
		{Kind: RateStorm, From: 0, To: 9, Pop: 2, Severity: 0.2, Duty: 1},
		{Kind: RouteFlap, From: 0, To: 9, Block: blk},
		{Kind: RateStorm, From: 0, To: 9, Pop: 2, Severity: 0.3, Duty: 1},
	}}
	s := MustCompile(p)
	// Runtime floats, not constants: (0.1+0.2)+0.3 and (0.3+0.2)+0.1
	// round differently, and only the former is event order.
	sev := []float64{0.1, 0.2, 0.3}
	if got, want := s.RateBoost(4, 2), (sev[0]+sev[1])+sev[2]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("RateBoost = %v, want %v summed in event order", got, want)
	}
	// Before event 0's window event 4 answers; inside it event 0 wins.
	if k, _ := s.FlapKey(1, blk); k != rng.Mix(p.Salt, 4, 1, saltFlap) {
		t.Errorf("epoch 1: flap key not drawn from event 4")
	}
	if k, _ := s.FlapKey(5, blk); k != rng.Mix(p.Salt, 0, 5, saltFlap) {
		t.Errorf("epoch 5: flap key not drawn from the lowest-indexed active event")
	}
	checkAgainstOracle(t, s, newLinearSchedule(p), []int{0, 1, 3, 5, 10},
		[]iputil.Addr{blk.Addr(1), blk.Addr(0) - 1}, []int32{0, 1, 2, 3, -1}, []int{0})
}

// TestNestedBlackholes covers every bucket edge: /0, nested prefixes of
// several lengths around one address, /32 host routes, and addresses
// just outside each prefix.
func TestNestedBlackholes(t *testing.T) {
	dst := iputil.MustParseAddr("10.1.2.3")
	p := &Plan{Events: []Event{
		{Kind: Blackhole, From: 0, To: 0, Prefix: iputil.PrefixOf(0, 0)},
		{Kind: Blackhole, From: 1, To: 2, Prefix: iputil.PrefixOf(dst, 8)},
		{Kind: Blackhole, From: 2, To: 3, Prefix: iputil.PrefixOf(dst, 16)},
		{Kind: Blackhole, From: 4, To: 4, Prefix: iputil.PrefixOf(dst, 24)},
		{Kind: Blackhole, From: 5, To: 5, Prefix: iputil.PrefixOf(dst, 32)},
		{Kind: Blackhole, From: 5, To: 6, Prefix: iputil.PrefixOf(dst+1, 32)},
		{Kind: Blackhole, From: 6, To: 6, Prefix: iputil.PrefixOf(0xffffffff, 32)},
	}}
	s := MustCompile(p)
	for epoch, want := range []bool{true, true, true, true, true, true, false, false} {
		if got := s.Blackholed(epoch, dst); got != want {
			t.Errorf("epoch %d: Blackholed(%v) = %v, want %v", epoch, dst, got, want)
		}
	}
	var addrs []iputil.Addr
	for _, e := range p.Events {
		addrs = append(addrs, e.Prefix.First(), e.Prefix.Last(), e.Prefix.First()-1, e.Prefix.Last()+1)
	}
	checkAgainstOracle(t, s, newLinearSchedule(p), []int{0, 1, 2, 3, 4, 5, 6, 7}, addrs, nil, nil)
}
