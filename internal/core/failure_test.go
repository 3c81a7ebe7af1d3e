package core

import (
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// Failure injection: the pipeline must degrade gracefully — never panic,
// never fabricate verdicts — when the network behaves badly.

func runHostile(t *testing.T, mutate func(*netsim.Config)) *Output {
	t.Helper()
	cfg := netsim.DefaultConfig(400)
	cfg.BigBlockScale = 0.02
	mutate(&cfg)
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Net:     probe.NewSimNetwork(w),
		Scanner: w,
		Blocks:  w.Blocks(),
		Seed:    11,
	}
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHostileRateLimiting(t *testing.T) {
	// Heavy ICMP rate limiting: many probes vanish, wildcards abound.
	out := runHostile(t, func(c *netsim.Config) { c.PRateLimit = 0.45 })
	sum := out.Campaign.Summary()
	if sum.Total == 0 {
		t.Fatal("nothing measured")
	}
	// Rate limiting hides last hops; verdicts shift toward the
	// not-analyzable classes but the pipeline completes.
	notAnalyzable := sum.Counts[hobbit.ClassTooFewActive] + sum.Counts[hobbit.ClassUnresponsiveLastHop]
	if notAnalyzable == 0 {
		t.Error("heavy rate limiting should produce not-analyzable blocks")
	}
}

func TestHostileChurn(t *testing.T) {
	// Severe availability churn: most census responders are gone at
	// probe time.
	out := runHostile(t, func(c *netsim.Config) {
		c.PersistProb = 0.30
		c.PersistProbLow = 0.10
	})
	sum := out.Campaign.Summary()
	// High-activity blocks survive 30% persistence (enough hosts
	// remain), but the too-few class must grow well past its normal
	// share and verdicts must stay sound.
	tooFew := float64(sum.Counts[hobbit.ClassTooFewActive])
	if tooFew/float64(sum.Total) < 0.15 {
		t.Errorf("severe churn should inflate the too-few class, got %.0f%%",
			100*tooFew/float64(sum.Total))
	}
	if sum.Measurable() == 0 {
		t.Error("severe churn should not zero out measurability")
	}
}

func TestHostileDarkRouters(t *testing.T) {
	// Half the transit routers never answer: traces are full of
	// wildcards, yet last-hop discovery still functions for responsive
	// last hops.
	out := runHostile(t, func(c *netsim.Config) { c.PRouterUnresponsive = 0.5 })
	if out.Campaign.Summary().Homogeneous() == 0 {
		t.Error("dark transit routers should not kill homogeneity detection")
	}
}

func TestHostileAllLastHopsDark(t *testing.T) {
	// Every aggregate hides its last-hop routers: the entire measurable
	// universe collapses into the unresponsive-last-hop class.
	out := runHostile(t, func(c *netsim.Config) {
		c.PUnresponsiveLastHop = 1.0
		c.PHeterogeneous = 0 // hetero mini-pops stay responsive otherwise
		c.BigBlocks = nil    // planted aggregates are never dark
	})
	sum := out.Campaign.Summary()
	if sum.Counts[hobbit.ClassSameLastHop]+sum.Counts[hobbit.ClassNonHierarchical] > sum.Total/20 {
		t.Errorf("dark last hops should leave almost nothing homogeneous: %+v", sum.Counts)
	}
	if len(out.Final) != len(out.Aggregates) && len(out.Aggregates) == 0 {
		t.Error("aggregation of nothing should be empty, not broken")
	}
}

func TestHostileLossyEcho(t *testing.T) {
	// One in five echo replies lost: ping retries and MDA retries must
	// carry the measurement.
	out := runHostile(t, func(c *netsim.Config) { c.PPingLoss = 0.2 })
	sum := out.Campaign.Summary()
	if sum.Measurable() == 0 {
		t.Error("lossy echo should not zero out measurability")
	}
}

func TestHostileUniformTTL255(t *testing.T) {
	// Every host uses default TTL 255: hop-count inference leans on a
	// single bucket and the first_ttl back-off still terminates.
	out := runHostile(t, func(c *netsim.Config) { c.TTLWeights = [3]float64{0, 0, 1} })
	if out.Campaign.Summary().Measurable() == 0 {
		t.Error("uniform TTLs should not break hop inference")
	}
}
