// Package faultplan provides deterministic, time-phased fault injection
// for netsim worlds: declarative plans composed of scheduled events that
// key off the world's epoch counter and a seeded hash, so any plan
// replays bit-identically — across runs, worker counts, and probe
// orders.
//
// A Plan is a list of Events, each active over an inclusive epoch window
// [From, To]. Compile validates the plan and produces a Schedule, an
// immutable netsim.FaultView whose answers are pure functions of
// (plan, epoch, query): no clocks, no mutable state, no allocation on
// the query path. DESIGN.md §4f documents the contract.
package faultplan

import (
	"errors"
	"fmt"
	"sort"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/rng"
)

// Validation errors callers can match with errors.Is; Validate wraps
// them with the offending event's index and kind.
var (
	// ErrMagnitude rejects a Severity or Duty outside [0, 1], NaN and
	// ±Inf included.
	ErrMagnitude = errors.New("magnitude outside [0, 1]")
	// ErrPrefixHostBits rejects a blackhole prefix whose Base has bits
	// set below its length: no address would ever match it.
	ErrPrefixHostBits = errors.New("prefix base has host bits set")
)

// Kind enumerates the event taxonomy.
type Kind int

// Event kinds.
const (
	// Blackhole withdraws the route entry covering Event.Prefix: echo
	// replies stop and TTL-exceeded replies stop past the backbone core.
	Blackhole Kind = iota
	// RateStorm scopes a bursty ICMP rate-limit storm to the pop
	// Event.Pop: TTL-exceeded drop probability rises by Event.Severity
	// on paths toward its addresses, pulsing with Event.Duty.
	RateStorm
	// RouteFlap remaps the last-hop choices of the /24 Event.Block with
	// a fresh per-epoch hash key, so the observed last-hop partition
	// churns mid-campaign.
	RouteFlap
	// Congestion inflates loss for probes sent from Event.Vantage
	// (or every vantage when Vantage < 0) by Event.Severity.
	Congestion
)

var kindNames = [...]string{"blackhole", "rate-storm", "route-flap", "congestion"}

// String returns the kind's stable lowercase name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault. Which scope and magnitude fields matter
// depends on Kind; Validate rejects combinations that don't.
type Event struct {
	Kind Kind
	// From and To bound the active epoch window, inclusive on both
	// ends. From <= To and From >= 0 are required.
	From, To int
	// Prefix scopes a Blackhole (any length; a /24 or finer withdraws
	// part of one block, a coarser prefix takes out many).
	Prefix iputil.Prefix
	// Pop scopes a RateStorm.
	Pop int32
	// Block scopes a RouteFlap.
	Block iputil.Block24
	// Vantage scopes a Congestion event; negative means every vantage.
	Vantage int
	// Severity is the additive probability boost for RateStorm and
	// Congestion events, in [0, 1].
	Severity float64
	// Duty is the fraction of active epochs a RateStorm actually fires
	// in (bursty storms come and go); 0 and 1 both mean "every epoch
	// in the window". The burst draw is keyed per (plan salt, event,
	// epoch), so it replays.
	Duty float64
}

// active reports whether the event's window covers the epoch.
func (e *Event) active(epoch int) bool {
	return epoch >= e.From && epoch <= e.To
}

// Plan is a declarative fault schedule.
type Plan struct {
	// Name labels the plan in telemetry and test output.
	Name string
	// Salt seeds the plan's burst and flap draws; two plans with equal
	// events but different salts flap to different last-hop maps.
	Salt uint64
	// Events are the scheduled faults; order is irrelevant to behavior.
	Events []Event
}

// Validate checks every event's window, scope, and magnitudes.
func (p *Plan) Validate() error {
	for i := range p.Events {
		e := &p.Events[i]
		if e.From < 0 || e.To < e.From {
			return fmt.Errorf("faultplan: event %d (%s): bad epoch window [%d, %d]", i, e.Kind, e.From, e.To)
		}
		// Written as !(in range) so NaN, which fails every comparison,
		// is rejected too.
		if !(e.Severity >= 0 && e.Severity <= 1) {
			return fmt.Errorf("faultplan: event %d (%s): severity %v: %w", i, e.Kind, e.Severity, ErrMagnitude)
		}
		if !(e.Duty >= 0 && e.Duty <= 1) {
			return fmt.Errorf("faultplan: event %d (%s): duty %v: %w", i, e.Kind, e.Duty, ErrMagnitude)
		}
		switch e.Kind {
		case Blackhole:
			if e.Prefix.Len < 0 || e.Prefix.Len > 32 {
				return fmt.Errorf("faultplan: event %d (blackhole): prefix length %d outside [0, 32]", i, e.Prefix.Len)
			}
			if e.Prefix.Base&^e.Prefix.Mask() != 0 {
				return fmt.Errorf("faultplan: event %d (blackhole): %v: %w", i, e.Prefix, ErrPrefixHostBits)
			}
		case RateStorm:
			if e.Pop < 0 {
				return fmt.Errorf("faultplan: event %d (rate-storm): negative pop %d", i, e.Pop)
			}
			if e.Severity == 0 {
				return fmt.Errorf("faultplan: event %d (rate-storm): zero severity", i)
			}
		case RouteFlap:
			// Any block value is a valid scope.
		case Congestion:
			if e.Severity == 0 {
				return fmt.Errorf("faultplan: event %d (congestion): zero severity", i)
			}
		default:
			return fmt.Errorf("faultplan: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Compile validates the plan and freezes it into a Schedule, building
// its scope indexes.
func (p *Plan) Compile() (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{name: p.Name, salt: p.Salt}
	s.events = append(s.events, p.Events...)
	var holesByLen [33]postings
	for i := range s.events {
		e := &s.events[i]
		ev := int32(i)
		switch e.Kind {
		case Blackhole:
			n := e.Prefix.Len
			holesByLen[n] = append(holesByLen[n], posting{key: uint32(e.Prefix.Base), ev: ev})
		case RateStorm:
			s.storms = append(s.storms, posting{key: uint32(e.Pop), ev: ev})
		case RouteFlap:
			s.flaps = append(s.flaps, posting{key: uint32(e.Block), ev: ev})
		case Congestion:
			s.congestion = append(s.congestion, i)
		}
	}
	for n, ps := range holesByLen {
		if len(ps) > 0 {
			s.holes = append(s.holes, holeBucket{mask: iputil.Prefix{Len: n}.Mask(), ps: ps.sorted()})
		}
	}
	s.storms = s.storms.sorted()
	s.flaps = s.flaps.sorted()
	return s, nil
}

// MustCompile compiles the plan and panics on validation errors;
// intended for tests and the built-in plans.
func MustCompile(p *Plan) *Schedule {
	s, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return s
}

// saltBurst keys the per-epoch burst draw of a RateStorm.
const saltBurst = 0xfb01

// saltFlap keys the per-epoch last-hop remap of a RouteFlap.
const saltFlap = 0xfb02

// posting is one entry of a scope index: an event's scope key and its
// position in Schedule.events.
type posting struct {
	key uint32
	ev  int32
}

// postings is a scope index ordered by (key, ev): the events sharing a
// key form one contiguous run, in ascending event order.
type postings []posting

// sorted orders the postings by (key, ev) in place and returns them.
func (ps postings) sorted() postings {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].key != ps[j].key {
			return ps[i].key < ps[j].key
		}
		return ps[i].ev < ps[j].ev
	})
	return ps
}

// first returns the position of the first posting whose key is at
// least k; the run for k starts there. The search is hand-rolled
// because sort.Search would cost a closure call per step.
//
//hobbit:hotpath
func (ps postings) first(k uint32) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ps[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// holeBucket indexes the blackholes of one prefix length by Base.
type holeBucket struct {
	mask iputil.Addr
	ps   postings
}

// Schedule is a compiled, immutable Plan implementing netsim.FaultView.
// All query methods are pure, allocation-free, and safe for concurrent
// use. Built-in plans scale with the universe (one event per faulted
// /24 or pop), so the hot queries never scan the event list: Compile
// builds sorted scope indexes and each query binary-searches the run of
// events sharing its key, in O(log n) per query.
type Schedule struct {
	name   string
	salt   uint64
	events []Event
	// Scope indexes into events: storms keyed by Pop, flaps by Block,
	// and blackholes bucketed by prefix length (ascending) and keyed by
	// Base.
	storms postings
	flaps  postings
	holes  []holeBucket
	// congestion lists the Congestion events in event order. They are
	// vantage-scoped with a wildcard, and a plan holds a handful at
	// most, so LossBoost scans them.
	congestion []int
}

// Name returns the plan's label.
func (s *Schedule) Name() string { return s.name }

// Events returns a copy of the compiled event list.
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Blackholed implements netsim.FaultView: one index search per prefix
// length present in the plan.
//
//hobbit:hotpath
func (s *Schedule) Blackholed(epoch int, dst iputil.Addr) bool {
	for _, b := range s.holes {
		k := uint32(dst & b.mask)
		for j := b.ps.first(k); j < len(b.ps) && b.ps[j].key == k; j++ {
			if s.events[b.ps[j].ev].active(epoch) {
				return true
			}
		}
	}
	return false
}

// stormFiring reports whether the storm event bursts this epoch: always
// within its window at Duty 0 or 1, otherwise by a seeded draw keyed per
// (salt, event, epoch).
func (s *Schedule) stormFiring(i int, e *Event, epoch int) bool {
	if !e.active(epoch) {
		return false
	}
	if e.Duty == 0 || e.Duty == 1 {
		return true
	}
	return rng.Seed(s.salt).Key(uint64(i)).Key(uint64(epoch)).Key(saltBurst).Bool(e.Duty)
}

// RateBoost implements netsim.FaultView. Overlapping storms on one pop
// stack additively, summed in event order; netsim caps the combined
// probability at 1.
//
//hobbit:hotpath
func (s *Schedule) RateBoost(epoch int, popID int32) float64 {
	var boost float64
	k := uint32(popID) // negative ids map above every valid pop
	for j := s.storms.first(k); j < len(s.storms) && s.storms[j].key == k; j++ {
		i := int(s.storms[j].ev)
		if e := &s.events[i]; s.stormFiring(i, e, epoch) {
			boost += e.Severity
		}
	}
	return boost
}

// LossBoost implements netsim.FaultView.
//
//hobbit:hotpath
func (s *Schedule) LossBoost(epoch int, vantage int) float64 {
	var boost float64
	for _, i := range s.congestion {
		e := &s.events[i]
		if e.active(epoch) && (e.Vantage < 0 || e.Vantage == vantage) {
			boost += e.Severity
		}
	}
	return boost
}

// FlapKey implements netsim.FaultView. The key mixes (salt, event,
// epoch) so the remap churns every epoch of the window; when several
// flaps cover one block the lowest-indexed active event wins, keeping
// the answer order-independent.
//
//hobbit:hotpath
func (s *Schedule) FlapKey(epoch int, b iputil.Block24) (uint64, bool) {
	k := uint32(b)
	for j := s.flaps.first(k); j < len(s.flaps) && s.flaps[j].key == k; j++ {
		i := int(s.flaps[j].ev)
		if s.events[i].active(epoch) {
			return rng.Seed(s.salt).Key(uint64(i)).Key(uint64(epoch)).Key(saltFlap).Sum(), true
		}
	}
	return 0, false
}
