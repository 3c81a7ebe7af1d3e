package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the reference-loop child the
// workloads start.
func TestMain(m *testing.M) {
	if serveReferenceLoop() {
		return
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{240, 0.95, true},  // 12 samples beyond p95
		{240, 0.99, false}, // 2 beyond p99
		{20, 0.50, true},   // 10 beyond the median
		{20, 0.75, false},
		{20, 0.90, false},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := percentileAllowed(tc.n, tc.q); got != tc.want {
			t.Errorf("percentileAllowed(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.want {
			t.Errorf("percentile(n=%d, %v) error = %v, want allowed=%v", tc.n, tc.q, err, tc.want)
		}
	}
}

// TestMedianAndQuartiles pins the interpolation to Python's
// statistics.quantiles(data, n=4), the arithmetic the calibration uses.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		descriptor string
	}{
		{seq(10), 2.75, 5.5, 8.25, "1..10"},
		{[]float64{4, 2, 3, 1}, 1.25, 2.5, 3.75, "1..4"},
		{[]float64{5, 1, 3}, 1, 3, 5, "odd count"},
		{[]float64{7, 7, 7, 7, 7}, 7, 7, 7, "constant"},
	} {
		q1, q3 := quartiles(tc.xs)
		m := median(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%s: quartiles (%v, %v, %v), want (%v, %v, %v)", tc.descriptor, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	span := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// [10,30] and [20,50] overlap: together they cover 40, not 50.
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		// Children sticking out of the parent count only inside it.
		{"clipped", []interval{{-10, 10}, {80, 120}}, 70},
		{"identical", []interval{{0, 100}, {0, 100}}, 0},
	} {
		if got := selfTime(span, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRatioPrintsBase(t *testing.T) {
	if got := newRatio(3, 4, "clusters").String(); got != "0.7500 (base: 4 clusters)" {
		t.Errorf("ratio String = %q", got)
	}
	if v := newRatio(5, 0, "clusters").value(); v != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", v)
	}
	o := newOutcome()
	o.setRatio("validate.accept_ratio", newRatio(57, 100, "clusters"))
	o.setRatio("cluster.wasted_seal_ratio", newRatio(0, 0, "sealed components"))
	var buf bytes.Buffer
	if err := report(&buf, currentHost(), o, []metricDef{{"validate.accept_ratio", "ratio"}, {"cluster.wasted_seal_ratio", "ratio"}}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(base: 100 clusters)", "(base: 0 sealed components)", "failed_frac 0.0000 (base: 0 operations)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
}
