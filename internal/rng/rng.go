// Package rng provides deterministic, order-independent randomness for the
// simulator. Unlike a sequential PRNG, every draw is a pure function of a
// seed and a tuple of keys, so the simulated Internet answers a probe the
// same way regardless of when or in what order probes are sent — the same
// property the real network has (routers hash header fields; they do not
// keep per-prober state).
//
// The hash is one step, Chain.Key, folded over the keys. Hot paths spell
// the fold out as a Chain value, Seed(seed).Key(k1)…Key(kn), whose
// methods all inline, so a draw costs no call and no key slice. A chain is
// a plain value: a shared key prefix is built once and extended for each
// draw that starts with it. The variadic functions (Mix, Float64, Intn,
// Bool and the distributions) fold the same step over their key slice
// and serve cold callers; Seed(s).Key(k1)…Key(kn).Sum() equals
// Mix(s, k1, …, kn), and likewise for every draw both forms offer.
package rng

import "math"

// Chain is a partially hashed key tuple: Seed(s).Key(k1)…Key(kn) holds
// the state Mix(s, k1, …, kn) finalizes.
type Chain uint64

// Seed starts a key chain.
func Seed(seed uint64) Chain { return Chain(seed) }

// Key folds one more key into the chain with a splitmix64 step.
func (c Chain) Key(k uint64) Chain {
	return Chain(splitmix(uint64(c) ^ (k + 0x9e3779b97f4a7c15)))
}

// Sum finalizes the chain into a well-distributed 64-bit value.
func (c Chain) Sum() uint64 { return splitmix(uint64(c)) }

// Float64 maps the chain to [0, 1).
func (c Chain) Float64() float64 { return float64(c.Sum()>>11) / (1 << 53) }

// Bool returns true with probability p.
func (c Chain) Bool(p float64) bool { return c.Float64() < p }

// Intn maps the chain to [0, n). It panics if n <= 0.
func (c Chain) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(c.Sum() % uint64(n))
}

// fold is the chain of seed and keys.
func fold(seed uint64, keys []uint64) Chain {
	c := Seed(seed)
	for _, k := range keys {
		c = c.Key(k)
	}
	return c
}

// Mix combines a seed with a sequence of keys into a well-distributed
// 64-bit value using splitmix64 finalization steps.
func Mix(seed uint64, keys ...uint64) uint64 { return fold(seed, keys).Sum() }

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 maps a mixed value to [0, 1).
func Float64(seed uint64, keys ...uint64) float64 { return fold(seed, keys).Float64() }

// Intn maps a mixed value to [0, n). It panics if n <= 0.
func Intn(n int, seed uint64, keys ...uint64) int { return fold(seed, keys).Intn(n) }

// Bool returns true with probability p.
func Bool(p float64, seed uint64, keys ...uint64) bool { return fold(seed, keys).Bool(p) }

// Norm returns a draw from a normal distribution with the given mean and
// standard deviation, via the Box-Muller transform over two derived
// uniforms.
func Norm(mean, stddev float64, seed uint64, keys ...uint64) float64 {
	base := Mix(seed, keys...)
	u1 := float64(splitmix(base)>>11) / (1 << 53)
	u2 := float64(splitmix(base+1)>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns a draw from an exponential distribution with the given mean.
func Exp(mean float64, seed uint64, keys ...uint64) float64 {
	u := Float64(seed, keys...)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// WeightedChoice picks an index into weights proportionally to the weight
// values. It panics if weights is empty or sums to zero or less.
func WeightedChoice(weights []float64, seed uint64, keys ...uint64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: WeightedChoice with empty or zero weights")
	}
	target := Float64(seed, keys...) * total
	for i, w := range weights {
		target -= w
		if target < 0 {
			return i
		}
	}
	return len(weights) - 1
}
