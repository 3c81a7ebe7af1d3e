package mcl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hobbitscan/hobbit/internal/graph"
)

// refEngine is the expansion and inflation kernel as it stood before the
// bitmap gather and the split pow: it collects the touched rows in a
// list, sorts it, and raises each entry with math.Pow. It is the oracle
// TestKernelMatchesOracle holds the production kernel to, bit for bit.
type refEngine struct {
	n        int
	opts     Options
	cur, nxt csr
	scratch  []float64
	touched  []int32
}

// newRefEngine starts the oracle from the production engine's initial
// flow matrix, whose construction the kernel change did not touch.
func newRefEngine(g *graph.Graph, opts Options) *refEngine {
	e := newEngine(g, opts)
	return &refEngine{n: e.n, opts: opts, cur: e.cur, nxt: e.nxt,
		scratch: make([]float64, e.n), touched: make([]int32, 0, e.n)}
}

func (e *refEngine) expandInflateColumn(j int) {
	cur, dst := &e.cur, &e.nxt
	touched := e.touched[:0]
	scratch := e.scratch
	for p := cur.ptr[j]; p < cur.ptr[j+1]; p++ {
		i := cur.rows[p]
		ev := cur.vals[p]
		for q := cur.ptr[i]; q < cur.ptr[i+1]; q++ {
			r := cur.rows[q]
			if scratch[r] == 0 {
				touched = append(touched, r)
			}
			scratch[r] += ev * cur.vals[q]
		}
	}
	slices.Sort(touched)
	e.touched = touched

	start := len(dst.vals)
	for _, r := range touched {
		dst.rows = append(dst.rows, r)
		dst.vals = append(dst.vals, scratch[r])
		scratch[r] = 0
	}
	var sum float64
	for i := start; i < len(dst.vals); i++ {
		v := math.Pow(dst.vals[i], e.opts.Inflation)
		dst.vals[i] = v
		sum += v
	}
	if sum != 0 {
		w := start
		var sum2 float64
		for i := start; i < len(dst.vals); i++ {
			v := dst.vals[i] / sum
			if v >= prune {
				dst.rows[w] = dst.rows[i]
				dst.vals[w] = v
				sum2 += v
				w++
			}
		}
		dst.rows = dst.rows[:w]
		dst.vals = dst.vals[:w]
		if sum2 != 0 {
			for i := start; i < w; i++ {
				dst.vals[i] /= sum2
			}
		}
	}
	dst.ptr = append(dst.ptr, int32(len(dst.rows)))
}

func (e *refEngine) converge() int {
	for iter := 1; iter <= maxIter; iter++ {
		e.nxt.reset()
		for j := 0; j < e.n; j++ {
			e.expandInflateColumn(j)
		}
		e.cur, e.nxt = e.nxt, e.cur
		if delta(&e.nxt, &e.cur) < epsilon {
			return iter
		}
	}
	return maxIter
}

// randomSimilarityGraph draws a graph shaped like a similarity-graph
// component of up to max vertices: a few families of vertices, dense
// inside and sparsely bridged, with weights that are either Section 6.3
// scores (a shared count over a set size) or arbitrary floats.
func randomSimilarityGraph(rng *rand.Rand, max int) *graph.Graph {
	n := 2 + rng.Intn(max-1)
	g := graph.New(n)
	families := 1 + rng.Intn(4)
	weight := func() float64 {
		if rng.Intn(2) == 0 {
			size := 1 + rng.Intn(12)
			return float64(1+rng.Intn(size)) / float64(size)
		}
		return rng.Float64()
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := 0.08
			if a%families == b%families {
				p = 0.5
			}
			if rng.Float64() < p {
				g.AddEdge(a, b, weight())
			}
		}
	}
	return g
}

// TestKernelMatchesOracle holds the production kernel to the oracle bit
// for bit: over random component-shaped graphs at the sweep's five
// inflations and at a random inflation in (1, 4], both engines must run
// the same number of rounds and end on identical flow matrices, every
// value compared by its bits. Most graphs are small, as most similarity
// components are; every hundredth has up to 80 vertices, so the bitmap
// gather spans more than one word.
func TestKernelMatchesOracle(t *testing.T) {
	graphs := 2000
	if testing.Short() {
		graphs = 200
	}
	rng := rand.New(rand.NewSource(34))
	for k := 0; k < graphs; k++ {
		size := 16
		if k%100 == 0 {
			size = 80
		}
		g := randomSimilarityGraph(rng, size)
		infl := []float64{1.4, 1.8, 2.0, 2.4, 3.0, 1 + 3*(1-rng.Float64())}
		for _, r := range infl {
			opts := Options{Inflation: r}.withDefaults()
			e, ref := newEngine(g, opts), newRefEngine(g, opts)
			iters, refIters := e.converge(), ref.converge()
			if err := sameMatrix(&e.cur, &ref.cur); err != nil || iters != refIters {
				t.Fatalf("graph %d (%d vertices), inflation %v: %d rounds, oracle %d; %v",
					k, g.Len(), r, iters, refIters, err)
			}
		}
	}
}

// sameMatrix reports the first difference between two CSR matrices,
// comparing values by their bits.
func sameMatrix(a, b *csr) error {
	if !slices.Equal(a.ptr, b.ptr) {
		return fmt.Errorf("column pointers differ")
	}
	if !slices.Equal(a.rows, b.rows) {
		return fmt.Errorf("row indices differ")
	}
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			return fmt.Errorf("entry %d: %v vs %v", i, a.vals[i], b.vals[i])
		}
	}
	return nil
}

// TestPowMatchesMathPow checks pow against math.Pow directly, across the
// boundary values that send it down math.Pow's own path and across flow
// values spread over the range it takes the split path on.
func TestPowMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := []float64{0, 0x1p-1074, 0x1p-201, 0x1p-200, 1e-5, 0.5, 1 - 0x1p-53, 1, 1 + 0x1p-52, 2}
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(200)))
	}
	for _, r := range []float64{1.4, 1.5, 1.8, 2, 2.4, 2.5, 3, 3.7, 4, 4.9, 5, 7.5} {
		e := newEngine(graph.New(1), Options{Inflation: r})
		for _, x := range xs {
			if got, want := e.pow(x), math.Pow(x, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pow(%v) at inflation %v = %v, math.Pow %v", x, r, got, want)
			}
		}
	}
}
