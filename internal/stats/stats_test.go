package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	var c CDF
	if c.At(1) != 0 {
		t.Error("empty CDF At should be 0")
	}
	c.AddAll([]float64{1, 2, 3, 4})
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5 (inclusive)", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := c.Median(); got != 2 {
		t.Errorf("Median = %v", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFQuantileEdges(t *testing.T) {
	var c CDF
	c.AddAll([]float64{5})
	if c.Quantile(0) != 5 || c.Quantile(1) != 5 || c.Quantile(0.5) != 5 {
		t.Error("singleton quantiles should all be 5")
	}
	// A CDF with one distinct value renders as a single step at it.
	if pts := c.Points(16); len(pts) != 1 || pts[0] != (Point{X: 5, Y: 1}) {
		t.Errorf("singleton Points = %v, want [{5 1}]", pts)
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile of empty CDF should panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var c CDF
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
			}
		}
		if c.N() == 0 {
			return true
		}
		prev := -1.0
		for _, p := range c.Points(16) {
			if p.Y < prev-1e-12 {
				return false
			}
			prev = p.Y
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	var c CDF
	c.Add(2)
	_ = c.At(2) // force sort
	c.Add(1)    // must re-sort lazily
	if got := c.Min(); got != 1 {
		t.Errorf("Min after late Add = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 2, 5, 5, 5, 17} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(5) != 3 {
		t.Errorf("Count(5) = %d", h.Count(5))
	}
	if got := h.Values(); len(got) != 4 || got[0] != 1 || got[3] != 17 {
		t.Errorf("Values = %v", got)
	}
	if h.CountAtLeast(5) != 4 {
		t.Errorf("CountAtLeast(5) = %d", h.CountAtLeast(5))
	}
}

func TestHistogramPowBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 2, 3, 4, 7, 8, 1024, 0, -3} {
		h.Add(v)
	}
	got := h.PowBuckets()
	want := map[int]int{0: 2, 1: 2, 2: 2, 3: 1, 10: 1}
	if len(got) != len(want) {
		t.Fatalf("PowBuckets = %v", got)
	}
	for _, bc := range got {
		if want[bc.Exp] != bc.Count {
			t.Errorf("bucket 2^%d = %d, want %d", bc.Exp, bc.Count, want[bc.Exp])
		}
	}
}

func TestSampleSizePaperValue(t *testing.T) {
	// The paper: 99% confidence, 1% margin, 50% proportion -> 16,588.
	n, err := SampleSize(0.99, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16588 {
		t.Errorf("SampleSize = %d, want 16588", n)
	}
}

func TestSampleSizeErrors(t *testing.T) {
	if _, err := SampleSize(0.87, 0.01, 0.5); err == nil {
		t.Error("unsupported confidence should error")
	}
	if _, err := SampleSize(0.99, 0, 0.5); err == nil {
		t.Error("zero margin should error")
	}
	if _, err := SampleSize(0.99, 0.01, 1.5); err == nil {
		t.Error("out-of-range proportion should error")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 4); got != "25.0%" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "n/a" {
		t.Errorf("Ratio div-by-zero = %q", got)
	}
}

func TestRenderCDF(t *testing.T) {
	var c CDF
	if got := c.RenderCDF(8); got != "(empty)" {
		t.Errorf("empty render = %q", got)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		c.Add(rng.Float64())
	}
	s := []rune(c.RenderCDF(12))
	if len(s) != 12 {
		t.Errorf("render width = %d", len(s))
	}
}
