// Package rttmodel generates ping round-trip times for simulated hosts and
// implements the cellular-device detector of Section 5.2 / Figure 6.
//
// The model follows the observation of Padmanabhan et al. ("Timeouts:
// Beware surprisingly high delay", IMC 2015) that the paper relies on: the
// first probe to an idle cellular device waits for the radio to be promoted
// out of its power-save state and therefore sees a much higher delay than
// immediately subsequent probes, while wired datacenter and residential
// hosts answer every probe with a stable RTT.
package rttmodel

import (
	"time"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/rng"
	"github.com/hobbitscan/hobbit/internal/stats"
)

// Class describes the delay behaviour of a host population.
type Class int

// Host delay classes.
const (
	ClassWired    Class = iota // stable RTTs (datacenter, fixed broadband)
	ClassCellular              // first probe pays radio-promotion delay
)

// Profile parameterizes RTT generation for a host population.
type Profile struct {
	Class Class
	// Base is the propagation floor of the path.
	Base time.Duration
	// Jitter is the standard deviation of per-probe queueing noise.
	Jitter time.Duration
	// PromotionMean is the mean extra delay the first probe to a
	// cellular device experiences while the radio wakes up.
	PromotionMean time.Duration
}

// Wired returns a stable-latency profile.
func Wired(base, jitter time.Duration) Profile {
	return Profile{Class: ClassWired, Base: base, Jitter: jitter}
}

// Cellular returns a cellular profile with the given radio-promotion mean
// delay.
func Cellular(base, jitter, promotion time.Duration) Profile {
	return Profile{Class: ClassCellular, Base: base, Jitter: jitter, PromotionMean: promotion}
}

// RTT returns the round-trip time of probe number seq (0-based) in a probe
// train toward addr. The draw is a pure function of (seed, addr, seq):
// repeated simulations see identical delays.
func (p Profile) RTT(seed uint64, addr iputil.Addr, seq int) time.Duration {
	noise := rng.Norm(0, float64(p.Jitter), seed, uint64(addr), uint64(seq), 0x1177)
	if noise < 0 {
		noise = -noise
	}
	rtt := p.Base + time.Duration(noise)
	if p.Class == ClassCellular && seq == 0 {
		// Radio promotion: exponential around the mean, floored at a
		// minimum promotion cost so the first probe is reliably slower.
		extra := rng.Exp(float64(p.PromotionMean), seed, uint64(addr), 0x77aa)
		min := float64(p.PromotionMean) / 4
		if extra < min {
			extra = min
		}
		rtt += time.Duration(extra)
	}
	return rtt
}

// Pinger abstracts the probe source the detector uses: send ping number seq
// toward addr and observe its RTT. ok is false when the host does not
// answer.
type Pinger interface {
	PingRTT(addr iputil.Addr, seq int) (rtt time.Duration, ok bool)
}

// DetectorConfig holds the parameters of the Section 5.2 method.
type DetectorConfig struct {
	// PingsPerAddr is the probe-train length per address (the paper
	// uses 20).
	PingsPerAddr int
	// PositiveDiff is the first-minus-max-rest threshold that counts an
	// address as showing promotion delay (the paper highlights 0.5 s).
	PositiveDiff time.Duration
	// CellularFraction is the fraction of addresses that must exceed
	// PositiveDiff for a block to be called cellular (the paper's
	// cellular blocks show ~50% above 0.5 s).
	CellularFraction float64
}

// DefaultDetectorConfig mirrors the paper's parameters.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		PingsPerAddr:     20,
		PositiveDiff:     500 * time.Millisecond,
		CellularFraction: 0.3,
	}
}

// Verdict is the outcome of probing one aggregate block.
type Verdict struct {
	// Diffs is the distribution of firstRTT - max(restRTTs) in seconds
	// across probed addresses: the series plotted in Figure 6.
	Diffs *stats.CDF
	// FractionAbove is the fraction of addresses whose difference
	// exceeded the configured threshold.
	FractionAbove float64
	// Cellular is the classification.
	Cellular bool
	// Probed is the number of addresses that answered all pings.
	Probed int
}

// Detect runs the probe-train experiment over the given addresses and
// classifies the population. Addresses that do not answer every probe in
// the train are skipped, as a timeout would dominate the difference metric.
func Detect(p Pinger, addrs []iputil.Addr, cfg DetectorConfig) Verdict {
	if cfg.PingsPerAddr < 2 {
		cfg.PingsPerAddr = 2
	}
	diffs := &stats.CDF{}
	above := 0
	probed := 0
	for _, a := range addrs {
		first, ok := p.PingRTT(a, 0)
		if !ok {
			continue
		}
		var maxRest time.Duration
		complete := true
		for seq := 1; seq < cfg.PingsPerAddr; seq++ {
			rtt, ok := p.PingRTT(a, seq)
			if !ok {
				complete = false
				break
			}
			if rtt > maxRest {
				maxRest = rtt
			}
		}
		if !complete {
			continue
		}
		probed++
		d := first - maxRest
		diffs.Add(d.Seconds())
		if d > cfg.PositiveDiff {
			above++
		}
	}
	v := Verdict{Diffs: diffs, Probed: probed}
	if probed > 0 {
		v.FractionAbove = float64(above) / float64(probed)
	}
	v.Cellular = probed > 0 && v.FractionAbove >= cfg.CellularFraction
	return v
}
