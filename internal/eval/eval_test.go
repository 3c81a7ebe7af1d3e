package eval

import (
	"os"
	"sync"
	"testing"
)

var (
	labOnce sync.Once
	sharedL *Lab
	labErr  error
)

// sharedLab builds one laboratory world for all eval tests; the pipeline
// and trace dataset are cached inside it.
func sharedLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("eval experiments are slow")
	}
	labOnce.Do(func() {
		sharedL, labErr = NewLab(LabConfig{NumBlocks: 3000, BigBlockScale: 0.04})
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return sharedL
}

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	l := sharedLab(t)
	r, err := Run(l, id)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if testing.Verbose() {
		r.WriteTo(os.Stderr)
	}
	return r
}

func metricBetween(t *testing.T, r *Report, key string, lo, hi float64) {
	t.Helper()
	v, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("%s: metric %q missing (have %v)", r.ID, key, r.Metrics)
	}
	if v < lo || v > hi {
		t.Errorf("%s: metric %s = %v, want in [%v, %v]", r.ID, key, v, lo, hi)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"bgpmix", "coverage", "dhcp", "fig10", "fig11", "fig12", "fig3a",
		"fig3b", "fig3c", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"longitudinal", "mclstats", "outage", "prelim", "table1",
		"table2", "table3", "table4", "table5", "vantage",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, err := Run(&Lab{}, "nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestBGPMix(t *testing.T) {
	r := runExp(t, "bgpmix")
	metricBetween(t, r, "share_24", 0.45, 0.70)
	metricBetween(t, r, "prefixes", 100, 1e9)
}

func TestPrelim(t *testing.T) {
	r := runExp(t, "prelim")
	// The straw-man must call the vast majority heterogeneous.
	metricBetween(t, r, "strawman_heterogeneous", 0.6, 1.0)
	// Wildcards help only slightly.
	if r.Metrics["strawman_heterogeneous_wildcard"] > r.Metrics["strawman_heterogeneous"]+1e-9 {
		t.Error("wildcard matching increased heterogeneity")
	}
	// Per-destination load balancing: most /31 pairs differ in routes,
	// a minority in last hops.
	metricBetween(t, r, "pair31_distinct_routes", 0.5, 1.0)
	metricBetween(t, r, "pair31_distinct_lasthops", 0.1, 0.55)
	if r.Metrics["pair31_distinct_lasthops"] >= r.Metrics["pair31_distinct_routes"] {
		t.Error("last-hop differences should be rarer than route differences")
	}
}

func TestCoverage(t *testing.T) {
	r := runExp(t, "coverage")
	// The paper reports 92%; our synthetic K-mix carries more of the
	// statically-hard K=2 case, landing lower — the reproduction target
	// is the wide margin over the entire-traceroute metric below.
	metricBetween(t, r, "coverage_lasthop", 0.55, 1.0)
	// Last-hop coverage must beat entire-traceroute coverage.
	if r.Metrics["coverage_lasthop"] <= r.Metrics["coverage_path"] {
		t.Errorf("last-hop coverage %v should exceed path coverage %v",
			r.Metrics["coverage_lasthop"], r.Metrics["coverage_path"])
	}
}

func TestFig3(t *testing.T) {
	a := runExp(t, "fig3a")
	if a.Metrics["undetected_median_cardinality"] > 0 &&
		a.Metrics["undetected_median_cardinality"] < a.Metrics["detected_median_cardinality"] {
		t.Log("note: undetected blocks did not skew to higher cardinality at this scale")
	}
	b := runExp(t, "fig3b")
	// Fig 3b's ordering: last-hop << sub-path <= entire path.
	if b.Metrics["median_lasthop"] >= b.Metrics["median_path"] {
		t.Errorf("last-hop cardinality %v should be far below path cardinality %v",
			b.Metrics["median_lasthop"], b.Metrics["median_path"])
	}
	if b.Metrics["median_subpath"] > b.Metrics["median_path"] {
		t.Errorf("sub-path cardinality %v should not exceed path cardinality %v",
			b.Metrics["median_subpath"], b.Metrics["median_path"])
	}
	c := runExp(t, "fig3c")
	if c.Metrics["detected_median_probed"] <= 0 {
		t.Error("fig3c produced no detected series")
	}
}

func TestFig4(t *testing.T) {
	r := runExp(t, "fig4")
	metricBetween(t, r, "cells", 10, 1e9)
}

func TestTable1(t *testing.T) {
	r := runExp(t, "table1")
	metricBetween(t, r, "homogeneous_of_measurable", 0.80, 0.97)
	metricBetween(t, r, "share_too_few_active", 0.10, 0.35)
	metricBetween(t, r, "share_unresponsive_last-hop", 0.08, 0.28)
	metricBetween(t, r, "share_same_last-hop_router", 0.10, 0.28)
	metricBetween(t, r, "share_non-hierarchical", 0.25, 0.55)
	metricBetween(t, r, "share_different_but_hierarchical", 0.02, 0.15)
}

func TestTable2(t *testing.T) {
	r := runExp(t, "table2")
	if r.Metrics["very_likely_hetero"] < 5 {
		t.Skip("too few heterogeneous blocks at this scale")
	}
	// {/25, /25} must dominate, as in the paper (50.48%).
	metricBetween(t, r, "share_25_25", 0.3, 0.75)
}

func TestTable3(t *testing.T) {
	r := runExp(t, "table3")
	if _, ok := r.Metrics["top2_share"]; !ok {
		t.Skip("no heterogeneous blocks at this scale")
	}
	metricBetween(t, r, "top2_share", 0.35, 0.85)
}

func TestTable4(t *testing.T) {
	r := runExp(t, "table4")
	if _, ok := r.Metrics["whois_confirmed"]; !ok {
		t.Skip("no blocks verified at this scale")
	}
	metricBetween(t, r, "whois_confirmed", 0.95, 1.0)
	metricBetween(t, r, "median_reg_year", 2015, 2016)
}

func TestFig5(t *testing.T) {
	r := runExp(t, "fig5")
	if r.Metrics["aggregates"] >= r.Metrics["homogeneous_24s"] {
		t.Error("aggregation did not reduce the block count")
	}
	if r.Metrics["size1"] <= 0 {
		t.Error("no singleton aggregates")
	}
	if r.Metrics["size_ge16"] <= 0 {
		t.Error("no large aggregates")
	}
}

func TestTable5(t *testing.T) {
	r := runExp(t, "table5")
	metricBetween(t, r, "top1_size", 10, 1e9)
	metricBetween(t, r, "hosting_in_top", 3, 15)
}

func TestFig6(t *testing.T) {
	r := runExp(t, "fig6")
	metricBetween(t, r, "cellular_blocks", 1, 15)
	metricBetween(t, r, "stable_blocks", 1, 15)
}

func TestFig7(t *testing.T) {
	r := runExp(t, "fig7")
	// Many adjacent pairs are contiguous; min/max spans are wide.
	metricBetween(t, r, "adjacent_lcp_ge20", 0.4, 1.0)
	metricBetween(t, r, "minmax_lcp_le1", 0.1, 0.95)
}

func TestFig8(t *testing.T) {
	r := runExp(t, "fig8")
	metricBetween(t, r, "rendered", 1, 9)
}

func TestFig9(t *testing.T) {
	r := runExp(t, "fig9")
	if _, ok := r.Metrics["matched_median_ratio"]; !ok {
		t.Skip("no rule-matching clusters at this scale")
	}
	// Rule-matching clusters have high identical-pair ratios.
	metricBetween(t, r, "matched_median_ratio", 0.5, 1.0)
}

func TestFig10(t *testing.T) {
	r := runExp(t, "fig10")
	if r.Metrics["blocks_after"] > r.Metrics["blocks_before"] {
		t.Error("clustering increased the block count")
	}
	if _, ok := r.Metrics["dublin_before"]; ok {
		// The starved Dublin aggregate must reassemble substantially.
		if r.Metrics["dublin_after"] < r.Metrics["dublin_before"] {
			t.Errorf("Dublin aggregate shrank: %v -> %v",
				r.Metrics["dublin_before"], r.Metrics["dublin_after"])
		}
	}
}

func TestFig11(t *testing.T) {
	r := runExp(t, "fig11")
	// At k=1 both strategies probe roughly one address per group, so
	// allow sampling noise; from k=4 on the Hobbit selection must win
	// clearly.
	if r.Metrics["ratioHobbit_k1"] < r.Metrics["ratio24_k1"]-0.02 {
		t.Errorf("Hobbit selection lost at k=1: %v vs %v",
			r.Metrics["ratioHobbit_k1"], r.Metrics["ratio24_k1"])
	}
	for _, k := range []string{"k4", "k8", "k16"} {
		if r.Metrics["ratioHobbit_"+k] <= r.Metrics["ratio24_"+k] {
			t.Errorf("Hobbit selection lost at %s: %v vs %v",
				k, r.Metrics["ratioHobbit_"+k], r.Metrics["ratio24_"+k])
		}
	}
	// Ratios are monotone in budget for both strategies.
	if r.Metrics["ratio24_k16"] < r.Metrics["ratio24_k1"] {
		t.Error("per-/24 ratio not monotone")
	}
}

func TestFig12(t *testing.T) {
	r := runExp(t, "fig12")
	if _, ok := r.Metrics["advantage_1x"]; !ok {
		t.Skip("TWC population too small at this scale")
	}
	// The stratified sample must beat the equal-size random sample.
	metricBetween(t, r, "advantage_1x", 1.1, 10)
	// And random sampling catches up as its budget grows.
	if r.Metrics["random4_schemes"] < r.Metrics["random1_schemes"] {
		t.Error("random sampling not monotone in budget")
	}
}

func TestLongitudinal(t *testing.T) {
	r := runExp(t, "longitudinal")
	// The population-level share stays roughly stable across epochs.
	metricBetween(t, r, "share_epoch0", 0.75, 1.0)
	metricBetween(t, r, "share_epoch3", 0.75, 1.0)
	if d := r.Metrics["share_epoch0"] - r.Metrics["share_epoch3"]; d > 0.1 || d < -0.1 {
		t.Errorf("homogeneity share drifted by %v", d)
	}
	if tracked, ok := r.Metrics["splitters_tracked"]; ok && tracked > 0 {
		// Scheduled splits must be observed as homogeneity loss.
		if r.Metrics["splitters_flipped"] < tracked*0.5 {
			t.Errorf("only %v of %v splitters flipped",
				r.Metrics["splitters_flipped"], tracked)
		}
	}
}

func TestVantage(t *testing.T) {
	r := runExp(t, "vantage")
	if _, ok := r.Metrics["sensitive_one"]; !ok {
		t.Skip("no source-sensitive blocks examined")
	}
	// Extra vantages must raise completeness for source-hashing
	// balancers and do nearly nothing otherwise (Section 6.1).
	if r.Metrics["sensitive_multi"] < r.Metrics["sensitive_one"] {
		t.Errorf("multi-vantage completeness fell: %v -> %v",
			r.Metrics["sensitive_one"], r.Metrics["sensitive_multi"])
	}
	if gain, ok := r.Metrics["insensitive_gain"]; ok && gain > 0.05 {
		t.Errorf("vantage diversity should not help destination-only balancers (gain %v)", gain)
	}
}

func TestOutage(t *testing.T) {
	r := runExp(t, "outage")
	if _, ok := r.Metrics["probes_per24"]; !ok {
		t.Skip("nothing tracked at this scale")
	}
	// Per-block tracking must be cheaper at equal recall.
	if r.Metrics["probes_block"] >= r.Metrics["probes_per24"] {
		t.Errorf("per-block tracking used %v probes vs %v per /24",
			r.Metrics["probes_block"], r.Metrics["probes_per24"])
	}
	if r.Metrics["recall_block"] < r.Metrics["recall_per24"]-0.05 {
		t.Errorf("per-block recall %v fell below per-/24 %v",
			r.Metrics["recall_block"], r.Metrics["recall_per24"])
	}
	metricBetween(t, r, "precision_block", 0.7, 1.0)
}

func TestDHCP(t *testing.T) {
	r := runExp(t, "dhcp")
	metricBetween(t, r, "hosts", 20, 200)
	// Re-leased hosts stay inside their homogeneous block, so the
	// block-wide search must recover more of them than the old /24.
	if r.Metrics["recovered_block"] <= r.Metrics["recovered_24"] {
		t.Errorf("block-wide recovery %v should beat old-/24 recovery %v",
			r.Metrics["recovered_block"], r.Metrics["recovered_24"])
	}
	metricBetween(t, r, "recovered_block", 0.5, 1.0)
}

func TestMCLStats(t *testing.T) {
	r := runExp(t, "mclstats")
	metricBetween(t, r, "vertices", 10, 1e9)
	if r.Metrics["clusters"] > 0 && r.Metrics["clustered_aggregates"] < 2*r.Metrics["clusters"] {
		t.Error("clusters must have at least two members each")
	}
}
