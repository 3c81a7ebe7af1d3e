package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer samples is one slow operation, not
// a distribution (p95 of 240 samples leaves 12 beyond it; p99 only 2).
const minBeyond = 10

// samplesBeyond is the number of the n sorted samples that lie strictly
// above the q-quantile's rank.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// percentileAllowed reports whether n samples support the q-quantile.
func percentileAllowed(n int, q float64) bool {
	return n > 0 && samplesBeyond(n, q) >= minBeyond
}

// quantile returns the q-quantile of xs with the interpolation Python's
// statistics.quantiles uses by default (method "exclusive": rank
// q·(n+1), the interpolation pair clamped to the sample range), so
// values printed here match the calibration arithmetic. xs need not be
// sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1]*(1-frac) + s[j]*frac
}

// median is the 0.5-quantile (the mean of the middle pair for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// percentile returns the q-quantile when the sample supports it and an
// error naming the shortfall otherwise.
func percentile(xs []float64, q float64) (float64, error) {
	if !percentileAllowed(len(xs), q) {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d",
			100*q, len(xs), max(samplesBeyond(len(xs), q), 0), minBeyond)
	}
	return quantile(xs, q), nil
}

// interval is a closed time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (the streamed stages run
// concurrently) and may stick out of the parent; the union of their
// clipped intervals is subtracted once.
func selfTime(span interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		c.start = max(c.start, span.start)
		c.end = min(c.end, span.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return span.end - span.start - covered
}

// ratio is a share with its base kept next to it: every ratio the
// benchmark prints names what it was divided by.
type ratio struct {
	num, base float64
	baseName  string
}

func newRatio(num, base float64, baseName string) ratio {
	return ratio{num: num, base: base, baseName: baseName}
}

// value is num/base, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (base: %s %s)", r.value(), formatNumber(r.base), r.baseName)
}

// formatNumber prints integers without a fraction and everything else
// with enough digits to compare runs.
func formatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
