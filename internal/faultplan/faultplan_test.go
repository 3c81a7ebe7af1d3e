package faultplan

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

func block(s string) iputil.Block24 {
	a, err := iputil.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a.Block24()
}

func TestValidate(t *testing.T) {
	valid := Plan{Name: "ok", Events: []Event{
		{Kind: Blackhole, From: 0, To: 2, Prefix: iputil.PrefixOf(0x01020300, 24)},
		{Kind: RateStorm, From: 1, To: 1, Pop: 3, Severity: 0.5, Duty: 0.5},
		{Kind: RouteFlap, From: 0, To: 9, Block: block("1.2.3.0")},
		{Kind: Congestion, From: 0, To: 0, Vantage: -1, Severity: 0.1},
	}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		ev   Event
		want error // a named error the rejection must wrap, if any
	}{
		{"negative from", Event{Kind: RouteFlap, From: -1, To: 2}, nil},
		{"inverted window", Event{Kind: RouteFlap, From: 3, To: 1}, nil},
		{"severity above one", Event{Kind: Congestion, Severity: 1.5}, ErrMagnitude},
		{"negative severity", Event{Kind: Congestion, Severity: -0.1}, ErrMagnitude},
		{"NaN severity", Event{Kind: RateStorm, Pop: 1, Severity: nan}, ErrMagnitude},
		{"+Inf severity", Event{Kind: Congestion, Severity: inf}, ErrMagnitude},
		{"-Inf severity", Event{Kind: Congestion, Severity: -inf}, ErrMagnitude},
		{"duty above one", Event{Kind: RateStorm, Severity: 0.5, Duty: 2}, ErrMagnitude},
		{"NaN duty", Event{Kind: RateStorm, Pop: 1, Severity: 0.5, Duty: nan}, ErrMagnitude},
		{"+Inf duty", Event{Kind: RateStorm, Pop: 1, Severity: 0.5, Duty: inf}, ErrMagnitude},
		{"bad prefix length", Event{Kind: Blackhole, Prefix: iputil.Prefix{Len: 40}}, nil},
		{"prefix host bits", Event{Kind: Blackhole, Prefix: iputil.Prefix{Base: 0x01020304, Len: 24}}, ErrPrefixHostBits},
		{"/0 with host bits", Event{Kind: Blackhole, Prefix: iputil.Prefix{Base: 1, Len: 0}}, ErrPrefixHostBits},
		{"negative pop", Event{Kind: RateStorm, Pop: -1, Severity: 0.5}, nil},
		{"zero-severity storm", Event{Kind: RateStorm, Pop: 1}, nil},
		{"zero-severity congestion", Event{Kind: Congestion}, nil},
		{"unknown kind", Event{Kind: Kind(42)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Events: []Event{tc.ev}}
			err := p.Validate()
			if err == nil {
				t.Errorf("event %+v accepted", tc.ev)
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error %q does not wrap %q", err, tc.want)
			}
			if _, err := p.Compile(); err == nil {
				t.Errorf("event %+v compiled", tc.ev)
			}
		})
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile accepted an invalid plan")
		}
	}()
	MustCompile(&Plan{Events: []Event{{Kind: Kind(-1)}}})
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Blackhole: "blackhole", RateStorm: "rate-storm",
		RouteFlap: "route-flap", Congestion: "congestion",
		Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestBlackholeWindow(t *testing.T) {
	b := block("10.0.1.0")
	s := MustCompile(&Plan{Events: []Event{
		{Kind: Blackhole, From: 2, To: 4, Prefix: iputil.PrefixOf(b.Addr(0), 24)},
	}})
	inside := b.Addr(7)
	outside := block("10.0.2.0").Addr(7)
	for epoch := 0; epoch < 7; epoch++ {
		want := epoch >= 2 && epoch <= 4
		if got := s.Blackholed(epoch, inside); got != want {
			t.Errorf("epoch %d: Blackholed(inside) = %v, want %v", epoch, got, want)
		}
		if s.Blackholed(epoch, outside) {
			t.Errorf("epoch %d: address outside the prefix blackholed", epoch)
		}
	}
}

func TestRateBoostStacksAndBursts(t *testing.T) {
	s := MustCompile(&Plan{Salt: 1, Events: []Event{
		{Kind: RateStorm, From: 0, To: 9, Pop: 5, Severity: 0.3, Duty: 1},
		{Kind: RateStorm, From: 0, To: 9, Pop: 5, Severity: 0.2, Duty: 1},
		{Kind: RateStorm, From: 0, To: 9, Pop: 6, Severity: 0.4, Duty: 1},
	}})
	if got := s.RateBoost(3, 5); got != 0.5 {
		t.Errorf("stacked boost = %v, want 0.5", got)
	}
	if got := s.RateBoost(3, 6); got != 0.4 {
		t.Errorf("boost = %v, want 0.4", got)
	}
	if got := s.RateBoost(3, 7); got != 0 {
		t.Errorf("unstormed pop boosted by %v", got)
	}
	if got := s.RateBoost(10, 5); got != 0 {
		t.Errorf("boost outside window = %v", got)
	}

	// A duty-cycled storm must fire on some epochs and skip others, and
	// replay identically.
	bursty := MustCompile(&Plan{Salt: 2, Events: []Event{
		{Kind: RateStorm, From: 0, To: 499, Pop: 1, Severity: 0.5, Duty: 0.5},
	}})
	on, off := 0, 0
	for epoch := 0; epoch < 500; epoch++ {
		got := bursty.RateBoost(epoch, 1)
		if got != 0 && got != 0.5 {
			t.Fatalf("epoch %d: boost %v is neither 0 nor severity", epoch, got)
		}
		if got == 0.5 {
			on++
		} else {
			off++
		}
		if again := bursty.RateBoost(epoch, 1); again != got {
			t.Fatalf("epoch %d: burst draw not stable (%v then %v)", epoch, got, again)
		}
	}
	if on == 0 || off == 0 {
		t.Errorf("duty-0.5 storm fired %d/500 epochs; want a genuine burst pattern", on)
	}
}

func TestLossBoostVantageScope(t *testing.T) {
	s := MustCompile(&Plan{Events: []Event{
		{Kind: Congestion, From: 0, To: 5, Vantage: 1, Severity: 0.2},
		{Kind: Congestion, From: 3, To: 3, Vantage: -1, Severity: 0.1},
	}})
	if got := s.LossBoost(0, 1); got != 0.2 {
		t.Errorf("vantage 1 boost = %v, want 0.2", got)
	}
	if got := s.LossBoost(0, 0); got != 0 {
		t.Errorf("vantage 0 boosted by %v", got)
	}
	if got := s.LossBoost(3, 0); got != 0.1 {
		t.Errorf("all-vantage boost = %v, want 0.1", got)
	}
	if got := s.LossBoost(3, 1); got < 0.3-1e-12 || got > 0.3+1e-12 {
		t.Errorf("stacked boost = %v, want 0.3", got)
	}
	if got := s.LossBoost(6, 1); got != 0 {
		t.Errorf("boost outside window = %v", got)
	}
}

func TestFlapKeyChurnsPerEpoch(t *testing.T) {
	b := block("192.168.1.0")
	s := MustCompile(&Plan{Salt: 3, Events: []Event{
		{Kind: RouteFlap, From: 1, To: 3, Block: b},
	}})
	if _, ok := s.FlapKey(0, b); ok {
		t.Error("flap active before its window")
	}
	if _, ok := s.FlapKey(4, b); ok {
		t.Error("flap active after its window")
	}
	if _, ok := s.FlapKey(2, block("192.168.2.0")); ok {
		t.Error("flap active for another block")
	}
	k1, ok1 := s.FlapKey(1, b)
	k2, ok2 := s.FlapKey(2, b)
	if !ok1 || !ok2 {
		t.Fatal("flap inactive inside its window")
	}
	if k1 == k2 {
		t.Error("flap key did not churn across epochs")
	}
	if again, _ := s.FlapKey(1, b); again != k1 {
		t.Error("flap key not stable within an epoch")
	}
	// Distinct salts must remap differently (plan identity matters).
	other := MustCompile(&Plan{Salt: 4, Events: []Event{
		{Kind: RouteFlap, From: 1, To: 3, Block: b},
	}})
	if k, _ := other.FlapKey(1, b); k == k1 {
		t.Error("different plan salts produced the same flap key")
	}
}

func TestScheduleAccessors(t *testing.T) {
	p := &Plan{Name: "n", Events: []Event{{Kind: RouteFlap, From: 0, To: 1}}}
	s := MustCompile(p)
	if s.Name() != "n" {
		t.Errorf("Name() = %q", s.Name())
	}
	evs := s.Events()
	if !reflect.DeepEqual(evs, p.Events) {
		t.Errorf("Events() = %+v, want %+v", evs, p.Events)
	}
	// The copy must be detached from the schedule.
	evs[0].To = 99
	if s.events[0].To != 1 {
		t.Error("Events() aliases the schedule's own slice")
	}
}

func testWorld(t *testing.T) *netsim.World {
	t.Helper()
	cfg := netsim.DefaultConfig(120)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuiltins(t *testing.T) {
	w := testWorld(t)
	for _, name := range BuiltinNames() {
		p, err := Builtin(name, w)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("plan name %q, want %q", p.Name, name)
		}
		if name != "baseline" && len(p.Events) == 0 {
			t.Errorf("built-in %q derived no events", name)
		}
		if _, err := p.Compile(); err != nil {
			t.Errorf("built-in %q does not compile: %v", name, err)
		}
		// Derivation is deterministic in the world.
		again, err := Builtin(name, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("built-in %q not deterministic", name)
		}
	}
	if _, err := Builtin("no-such-plan", w); err == nil {
		t.Error("unknown built-in accepted")
	}
	if _, err := CompileBuiltin("no-such-plan", w); err == nil {
		t.Error("CompileBuiltin accepted unknown name")
	}
	if _, err := CompileBuiltin("blackhole", w); err != nil {
		t.Errorf("CompileBuiltin(blackhole): %v", err)
	}
}
