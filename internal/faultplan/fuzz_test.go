package faultplan

import (
	"encoding/binary"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// decodeEvents deterministically turns fuzz bytes into an event list,
// deliberately covering invalid shapes too (negative windows, overlong
// prefixes, out-of-range severities) so Compile's rejection paths fuzz
// alongside the accepted ones.
func decodeEvents(data []byte) []Event {
	const eventBytes = 16
	n := len(data) / eventBytes
	if n > 64 {
		n = 64
	}
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		c := data[i*eventBytes : (i+1)*eventBytes]
		from := int(int8(c[1])) // negative froms exercise validation
		e := Event{
			Kind:     Kind(int(c[0]%6) - 1), // includes two invalid kinds
			From:     from,
			To:       from + int(int8(c[2])),
			Pop:      int32(int8(c[3])),
			Vantage:  int(int8(c[4])) % 4,
			Severity: float64(c[5]) / 128, // up to 2.0 ⇒ some invalid
			Duty:     float64(c[6]) / 200,
			Prefix: iputil.Prefix{
				Base: iputil.Addr(binary.LittleEndian.Uint32(c[7:11])),
				Len:  int(c[11]%40) - 2, // includes invalid lengths
			},
			Block: iputil.Addr(binary.LittleEndian.Uint32(c[12:16])).Block24(),
		}
		// Align most prefix bases; the unaligned rest exercise Validate's
		// host-bits rejection (Compile must still not panic).
		if c[11]%2 == 0 && e.Prefix.Len >= 0 && e.Prefix.Len <= 32 {
			e.Prefix.Base &= e.Prefix.Mask()
		}
		events = append(events, e)
	}
	return events
}

// fuzzEvent spells out one decodeEvents record for seed-corpus entries.
type fuzzEvent struct {
	kind               Kind
	from, span, pop    int8
	vantage, sev, duty byte
	base, block        uint32
	lenCode            byte
}

// fuzzEvents encodes events in decodeEvents' 16-byte record format.
func fuzzEvents(evs ...fuzzEvent) []byte {
	var data []byte
	for _, e := range evs {
		c := make([]byte, 16)
		c[0] = byte(e.kind + 1)
		c[1], c[2], c[3] = byte(e.from), byte(e.span), byte(e.pop)
		c[4], c[5], c[6] = e.vantage, e.sev, e.duty
		binary.LittleEndian.PutUint32(c[7:11], e.base)
		c[11] = e.lenCode
		binary.LittleEndian.PutUint32(c[12:16], e.block)
		data = append(data, c...)
	}
	return data
}

// FuzzPlanSchedule checks the schedule's safety contract over arbitrary
// event sequences: compiling never panics; compiled schedules never let
// an event fire outside its epoch window; every answer replays
// identically for a fixed plan; and every query, EpochDelta included,
// matches the linear-scan oracle.
func FuzzPlanSchedule(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 16), uint64(1))
	f.Add([]byte{
		1, 0, 3, 5, 0, 60, 100, 0, 1, 2, 3, 24, 9, 8, 7, 6,
		3, 2, 2, 1, 1, 30, 50, 4, 4, 4, 4, 26, 1, 2, 3, 4,
	}, uint64(0x40bb17))
	const blk, other = 0x0a010200, 0x0a010300
	// Duplicate pops and duplicate blocks with overlapping windows.
	f.Add(fuzzEvents(
		fuzzEvent{kind: RateStorm, from: 0, span: 4, pop: 5, sev: 13, duty: 200},
		fuzzEvent{kind: RouteFlap, from: 3, span: 5, block: blk},
		fuzzEvent{kind: RateStorm, from: 2, span: 4, pop: 5, sev: 26},
		fuzzEvent{kind: RateStorm, from: 3, span: 0, pop: 7, sev: 100, duty: 200},
		fuzzEvent{kind: RouteFlap, from: 0, span: 8, block: blk},
		fuzzEvent{kind: RateStorm, from: 1, span: 6, pop: 5, sev: 39, duty: 200},
		fuzzEvent{kind: RouteFlap, from: 2, span: 2, block: other},
		fuzzEvent{kind: RouteFlap, from: 1, span: 1, block: blk},
	), uint64(11))
	// Duty-cycled storms, with congestion toggling the delta to All.
	f.Add(fuzzEvents(
		fuzzEvent{kind: RateStorm, from: 0, span: 100, pop: 3, sev: 64, duty: 100},
		fuzzEvent{kind: RateStorm, from: 10, span: 50, pop: 3, sev: 32, duty: 30},
		fuzzEvent{kind: RateStorm, from: 0, span: 127, pop: 4, sev: 128, duty: 190},
		fuzzEvent{kind: Congestion, from: 20, span: 3, vantage: 255, sev: 20},
	), uint64(12))
	// /0, /24, and /32 prefixes (length code = length + 2, even so the
	// base is masked to alignment).
	f.Add(fuzzEvents(
		fuzzEvent{kind: Blackhole, from: 0, span: 1, base: 0xdeadbeef, lenCode: 2},
		fuzzEvent{kind: Blackhole, from: 1, span: 2, base: blk + 77, lenCode: 26},
		fuzzEvent{kind: Blackhole, from: 2, span: 2, base: blk + 77, lenCode: 34},
		fuzzEvent{kind: Blackhole, from: 3, span: 0, base: 0xffffffff, lenCode: 34},
	), uint64(13))
	// Nested blackhole prefixes around one address, plus duplicates.
	f.Add(fuzzEvents(
		fuzzEvent{kind: Blackhole, from: 0, span: 2, base: blk + 9, lenCode: 10},
		fuzzEvent{kind: Blackhole, from: 1, span: 2, base: blk + 9, lenCode: 18},
		fuzzEvent{kind: Blackhole, from: 2, span: 2, base: blk + 9, lenCode: 24},
		fuzzEvent{kind: Blackhole, from: 3, span: 2, base: blk + 9, lenCode: 26},
		fuzzEvent{kind: Blackhole, from: 0, span: 5, base: blk + 9, lenCode: 26},
		fuzzEvent{kind: Blackhole, from: 4, span: 1, base: blk + 9, lenCode: 32},
		fuzzEvent{kind: Blackhole, from: 5, span: 1, base: blk + 9, lenCode: 34},
	), uint64(14))
	f.Fuzz(func(t *testing.T, data []byte, salt uint64) {
		events := decodeEvents(data)
		plan := &Plan{Name: "fuzz", Salt: salt, Events: events}
		s, err := plan.Compile() // must not panic, ever
		if err != nil {
			return
		}
		twin := MustCompile(plan)
		oracle := newLinearSchedule(plan)

		// Probe a grid of epochs and scopes around every event's window.
		addrs := []iputil.Addr{0, 0x01020304, 0xfffffffe}
		for _, e := range events {
			addrs = append(addrs, e.Prefix.Base, e.Block.Addr(3))
		}
		for _, e := range events {
			for _, epoch := range []int{e.From - 1, e.From, e.To, e.To + 1, 0, 1000000} {
				if epoch < 0 {
					continue
				}
				inWindow := epoch >= e.From && epoch <= e.To
				for _, a := range addrs {
					got := s.Blackholed(epoch, a)
					if got != twin.Blackholed(epoch, a) {
						t.Fatalf("Blackholed(%d, %v) does not replay", epoch, a)
					}
					if got && !s.anyActive(epoch, Blackhole) {
						t.Fatalf("blackhole fired at epoch %d with no active event", epoch)
					}
					key, ok := s.FlapKey(epoch, a.Block24())
					key2, ok2 := twin.FlapKey(epoch, a.Block24())
					if ok != ok2 || key != key2 {
						t.Fatalf("FlapKey(%d, %v) does not replay", epoch, a.Block24())
					}
					if ok && !s.anyActive(epoch, RouteFlap) {
						t.Fatalf("flap fired at epoch %d with no active event", epoch)
					}
				}
				for _, pop := range []int32{e.Pop, 0, 127} {
					b := s.RateBoost(epoch, pop)
					if b != twin.RateBoost(epoch, pop) {
						t.Fatalf("RateBoost(%d, %d) does not replay", epoch, pop)
					}
					if b != 0 && !s.anyActive(epoch, RateStorm) {
						t.Fatalf("storm boosted at epoch %d with no active event", epoch)
					}
					if b < 0 {
						t.Fatalf("negative rate boost %v", b)
					}
				}
				for _, v := range []int{e.Vantage, -1, 0, 3} {
					b := s.LossBoost(epoch, v)
					if b != twin.LossBoost(epoch, v) {
						t.Fatalf("LossBoost(%d, %d) does not replay", epoch, v)
					}
					if b != 0 && !s.anyActive(epoch, Congestion) {
						t.Fatalf("congestion boosted at epoch %d with no active event", epoch)
					}
					if b < 0 {
						t.Fatalf("negative loss boost %v", b)
					}
				}
				checkAgainstOracle(t, s, oracle, []int{epoch}, addrs, []int32{e.Pop, 0, 127, -1}, []int{e.Vantage, -1, 0, 3})
				if got, want := s.EpochDelta(epoch, epoch+1), oracle.EpochDelta(epoch, epoch+1); !sameDelta(got, want) {
					t.Fatalf("EpochDelta(%d, %d) = %+v, oracle %+v", epoch, epoch+1, got, want)
				}
				// An event entirely alone must be silent outside its
				// own window — the sharpest form of the no-fire rule.
				single := MustCompile(&Plan{Salt: salt, Events: []Event{e}})
				if !inWindow {
					for _, a := range addrs {
						if single.Blackholed(epoch, a) {
							t.Fatalf("lone blackhole fired outside [%d, %d] at %d", e.From, e.To, epoch)
						}
						if _, ok := single.FlapKey(epoch, a.Block24()); ok {
							t.Fatalf("lone flap fired outside [%d, %d] at %d", e.From, e.To, epoch)
						}
					}
					if single.RateBoost(epoch, e.Pop) != 0 {
						t.Fatalf("lone storm fired outside [%d, %d] at %d", e.From, e.To, epoch)
					}
					if single.LossBoost(epoch, e.Vantage) != 0 {
						t.Fatalf("lone congestion fired outside [%d, %d] at %d", e.From, e.To, epoch)
					}
				}
			}
		}
	})
}

// anyActive reports whether any event of the kind covers the epoch;
// test-only helper backing the fuzz no-fire property.
func (s *Schedule) anyActive(epoch int, k Kind) bool {
	for i := range s.events {
		if s.events[i].Kind == k && s.events[i].active(epoch) {
			return true
		}
	}
	return false
}
