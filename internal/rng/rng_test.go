package rng

import (
	"math"
	"testing"
)

func TestMixDeterministic(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 3)
	if a != b {
		t.Fatal("Mix is not deterministic")
	}
	if Mix(1, 2, 3) == Mix(1, 3, 2) {
		t.Error("Mix should be order-sensitive")
	}
	if Mix(1, 2) == Mix(2, 2) {
		t.Error("Mix should depend on seed")
	}
}

func TestFloat64Range(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		v := Float64(42, i)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Uniformish(t *testing.T) {
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += Float64(7, uint64(i))
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[Intn(5, 9, uint64(i))]++
	}
	for k, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn bucket %d = %d, want ~10000", k, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	Intn(0, 1)
}

func TestBool(t *testing.T) {
	hits := 0
	for i := 0; i < 100000; i++ {
		if Bool(0.25, 3, uint64(i)) {
			hits++
		}
	}
	got := float64(hits) / 100000
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %v", got)
	}
}

func TestNormMoments(t *testing.T) {
	var sum, sumsq float64
	n := 100000
	for i := 0; i < n; i++ {
		v := Norm(10, 2, 5, uint64(i))
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev = %v", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		v := Exp(3, 11, uint64(i))
		if v < 0 {
			t.Fatalf("Exp negative: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestWeightedChoice(t *testing.T) {
	weights := []float64{1, 3}
	counts := make([]int, 2)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(weights, 13, uint64(i))]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weighted ratio = %v, want ~3", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty WeightedChoice should panic")
		}
	}()
	WeightedChoice(nil, 1)
}

// TestMixKnownAnswers pins the hash itself: every simulated world, fault
// plan and reply digest rests on these values.
func TestMixKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		keys []uint64
		want uint64
	}{
		{0, nil, 0xe220a8397b1dcdaf},
		{1, []uint64{2, 3}, 0x0e553b5afa5c18d5},
		{42, []uint64{7}, 0xc73cafda1a5ef526},
		{0xdeadbeef, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 0xd5a765a7e89e7f91},
		{7, []uint64{0x0a000001, 0x55}, 0x1535f0dabaff95ec},
	} {
		if got := Mix(tc.seed, tc.keys...); got != tc.want {
			t.Errorf("Mix(%#x, %#x) = %#x, want %#x", tc.seed, tc.keys, got, tc.want)
		}
	}
}

// TestChainMatchesVariadic holds the key chain to the variadic forms: for
// 0 to 8 keys drawn at random, Seed(s).Key(k1)…Key(kn) sums, and draws
// floats, booleans and bounded integers, exactly as Mix, Float64, Bool and
// Intn do over the same tuple.
func TestChainMatchesVariadic(t *testing.T) {
	for trial := uint64(0); trial < 2000; trial++ {
		seed := Mix(0x5eed, trial)
		keys := make([]uint64, trial%9)
		c := Seed(seed)
		for i := range keys {
			keys[i] = Mix(0xbee5, trial, uint64(i))
			if i%3 == 0 {
				keys[i] &= 0xff // small keys, like salts and epochs
			}
			c = c.Key(keys[i])
		}
		if got, want := c.Sum(), Mix(seed, keys...); got != want {
			t.Fatalf("Seed(%#x) chain over %#x: Sum %#x, Mix %#x", seed, keys, got, want)
		}
		if got, want := c.Float64(), Float64(seed, keys...); got != want {
			t.Fatalf("chain Float64 %v, variadic %v", got, want)
		}
		p := Float64(seed, append(keys, 1)...)
		if got, want := c.Bool(p), Bool(p, seed, keys...); got != want {
			t.Fatalf("chain Bool(%v) %v, variadic %v", p, got, want)
		}
		n := 1 + int(trial%37)
		if trial%5 == 0 {
			n = 1 << 40
		}
		if got, want := c.Intn(n), Intn(n, seed, keys...); got != want {
			t.Fatalf("chain Intn(%d) %d, variadic %d", n, got, want)
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("chain Intn(%d) should panic", n)
				}
			}()
			Seed(1).Key(2).Intn(n)
		}()
	}
}
