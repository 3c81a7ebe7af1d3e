// Package mcl implements the Markov Cluster Algorithm (van Dongen, 2000)
// the paper selects for aggregating similar-but-not-identical /24 blocks
// (Section 6.2): alternating expansion (random-walk squaring) and
// inflation (entrywise powering that strengthens strong flows) over a
// column-stochastic matrix until the flow matrix converges, then reading
// clusters off the attractor rows.
//
// The flow matrix is held in column-major CSR form (one ptr/rows/vals
// triple per matrix, not one slice per column), double-buffered between
// rounds: a round appends into the spare buffer and swaps, so the steady
// state allocates nothing (asserted by TestStepZeroAlloc under !race).
// The arithmetic — accumulation order in expansion, pow/prune/normalize
// order in inflation — matches the original per-column implementation
// operation for operation, so results are bit-identical to it, which the
// determinism contract (DESIGN.md §4d) and the frozen api goldens rely
// on.
package mcl

import (
	"math"
	"math/bits"
	"sort"

	"github.com/hobbitscan/hobbit/internal/graph"
)

// Options configures an MCL run.
type Options struct {
	// Inflation is the granularity parameter r (entrywise power);
	// larger values produce finer clusters. Default 2.0.
	Inflation float64
}

const (
	// maxIter bounds the expansion/inflation rounds.
	maxIter = 60
	// prune drops matrix entries below this value after each round to
	// keep the matrix sparse.
	prune = 1e-5
	// selfLoop is the loop weight added to each vertex before
	// normalization, the standard regularization that guarantees
	// convergence.
	selfLoop = 1.0
	// epsilon is the convergence threshold on the largest entry change
	// between rounds.
	epsilon = 1e-6
)

func (o Options) withDefaults() Options {
	if o.Inflation <= 1 {
		o.Inflation = 2.0
	}
	return o
}

// csr is a column-major sparse matrix: column j's entries are
// rows[ptr[j]:ptr[j+1]] (ascending) with values vals[ptr[j]:ptr[j+1]].
type csr struct {
	ptr  []int32
	rows []int32
	vals []float64
}

// reset truncates the matrix for refilling without releasing capacity.
func (m *csr) reset() {
	m.ptr = append(m.ptr[:0], 0)
	m.rows = m.rows[:0]
	m.vals = m.vals[:0]
}

// engine holds one MCL run's state: the double-buffered flow matrix and
// the expansion scratch, a dense accumulator plus a bitmap of the rows it
// touched. Rounds run serially on the caller's goroutine: the similarity
// graph's components stay small, and the clustering parallelizes across
// them instead.
type engine struct {
	n        int
	opts     Options
	cur, nxt csr
	scratch  []float64
	mark     []uint64
	// fast reports whether pow may raise to the inflation by yi
	// squarings times an exp-log of yf, math.Pow's own split of it.
	fast bool
	yi   int64
	yf   float64
}

// newEngine builds the initial column-stochastic flow matrix with self
// loops, exactly as the original fromGraph did: per column, self loop
// plus neighbors sorted by row, duplicates merged, then normalized.
func newEngine(g *graph.Graph, opts Options) *engine {
	n := g.Len()
	e := &engine{n: n, opts: opts, scratch: make([]float64, n), mark: make([]uint64, (n+63)/64)}
	// math.Pow splits its exponent into an integer part, raised by
	// repeated squaring, and a fraction in (-0.5, 0.5], raised through
	// Exp and Log. For an inflation in (1, 5) the squarings of a flow
	// value of at least 0x1p-200 stay in the normal range, where they
	// round exactly as math.Pow's scaled mantissas do.
	if r := opts.Inflation; 1 < r && r < 5 {
		yi, yf := math.Modf(r)
		if yf > 0.5 {
			yf--
			yi++
		}
		e.fast, e.yi, e.yf = true, int64(yi), yf
	}
	e.cur.reset()
	e.nxt.reset()

	type entry struct {
		row int32
		val float64
	}
	var col []entry
	for v := 0; v < n; v++ {
		col = col[:0]
		col = append(col, entry{row: int32(v), val: selfLoop})
		for _, ed := range g.Neighbors(v) {
			col = append(col, entry{row: int32(ed.To), val: ed.Weight})
		}
		sort.Slice(col, func(i, j int) bool { return col[i].row < col[j].row })
		// Merge duplicate rows (parallel edges).
		out := col[:0]
		for _, c := range col {
			if len(out) > 0 && out[len(out)-1].row == c.row {
				out[len(out)-1].val += c.val
			} else {
				out = append(out, c)
			}
		}
		var sum float64
		for _, c := range out {
			sum += c.val
		}
		for _, c := range out {
			if sum != 0 {
				c.val /= sum
			}
			e.cur.rows = append(e.cur.rows, c.row)
			e.cur.vals = append(e.cur.vals, c.val)
		}
		e.cur.ptr = append(e.cur.ptr, int32(len(e.cur.rows)))
	}
	return e
}

// expandInflateColumn computes column j of M' = M*M, inflates it, and
// appends it to the spare buffer. The accumulation order over column j's
// entries is fixed by the CSR layout — identical to the original
// expandColumn — and the inflation replays pow, sum, prune, and the two
// normalizations in the original entry order, so the appended column is
// bit-identical to the per-column implementation's. The expansion marks
// the rows it touches in a bitmap, and the gather reads them back in
// ascending order, bounded by the lowest and highest row touched.
//
//hobbit:hotpath
func (e *engine) expandInflateColumn(j int) {
	cur, dst := &e.cur, &e.nxt
	scratch, mark := e.scratch, e.mark
	lo, hi := int32(e.n), int32(-1)
	for p := cur.ptr[j]; p < cur.ptr[j+1]; p++ {
		i := cur.rows[p]
		ev := cur.vals[p]
		q0, q1 := cur.ptr[i], cur.ptr[i+1]
		if q0 == q1 {
			continue
		}
		lo, hi = min(lo, cur.rows[q0]), max(hi, cur.rows[q1-1])
		for q := q0; q < q1; q++ {
			r := cur.rows[q]
			mark[r>>6] |= 1 << (r & 63)
			scratch[r] += ev * cur.vals[q]
		}
	}

	// Gather the expanded column, then inflate in place: pow and sum in
	// row order, prune against the normalized value, renormalize the
	// survivors.
	start := len(dst.vals)
	for w := lo >> 6; w <= hi>>6; w++ {
		word := mark[w]
		mark[w] = 0
		for word != 0 {
			r := w<<6 | int32(bits.TrailingZeros64(word))
			word &= word - 1
			dst.rows = append(dst.rows, r)
			dst.vals = append(dst.vals, scratch[r])
			scratch[r] = 0
		}
	}
	var sum float64
	for i := start; i < len(dst.vals); i++ {
		v := e.pow(dst.vals[i])
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

// pow returns math.Pow(x, e.opts.Inflation), bit for bit. For a flow
// value in [0x1p-200, 1] it skips math.Pow's general path: it takes the
// exp-log fraction and multiplies in the squarings of x in math.Pow's
// order, unscaled, which rounds the same while every product is normal.
//
//hobbit:hotpath
func (e *engine) pow(x float64) float64 {
	if !e.fast || x < 0x1p-200 || x > 1 {
		return math.Pow(x, e.opts.Inflation)
	}
	a := 1.0
	if e.yf != 0 {
		a = math.Exp(e.yf * math.Log(x))
	}
	for i := e.yi; i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= x
		}
		x *= x
	}
	return a
}

// step computes one expansion + inflation round into the spare buffer and
// swaps it in. The buffers and scratch persist across rounds, so the
// steady state allocates nothing.
//
//hobbit:hotpath
func (e *engine) step() {
	e.nxt.reset()
	for j := 0; j < e.n; j++ {
		e.expandInflateColumn(j)
	}
	e.cur, e.nxt = e.nxt, e.cur
}

// delta returns the largest absolute entry difference between two
// matrices.
//
//hobbit:hotpath
func delta(a, b *csr) float64 {
	var max float64
	for j := 0; j+1 < len(a.ptr); j++ {
		i, iEnd := a.ptr[j], a.ptr[j+1]
		k, kEnd := b.ptr[j], b.ptr[j+1]
		for i < iEnd || k < kEnd {
			switch {
			case k >= kEnd || (i < iEnd && a.rows[i] < b.rows[k]):
				if v := math.Abs(a.vals[i]); v > max {
					max = v
				}
				i++
			case i >= iEnd || b.rows[k] < a.rows[i]:
				if v := math.Abs(b.vals[k]); v > max {
					max = v
				}
				k++
			default:
				if v := math.Abs(a.vals[i] - b.vals[k]); v > max {
					max = v
				}
				i++
				k++
			}
		}
	}
	return max
}

// Cluster runs MCL on the graph and returns the clusters as sorted vertex
// lists, ordered by smallest member. Every vertex appears in exactly one
// cluster; vertices with no surviving attractor become singletons.
func Cluster(g *graph.Graph, opts Options) [][]int {
	opts = opts.withDefaults()
	n := g.Len()
	if n == 0 {
		return nil
	}
	e := newEngine(g, opts)
	e.converge()
	return interpret(&e.cur, n)
}

// converge runs rounds until the largest entry change falls below
// epsilon or maxIter rounds ran, and returns the rounds run.
func (e *engine) converge() int {
	for iter := 1; iter <= maxIter; iter++ {
		e.step()
		// After the swap, nxt holds the previous round's matrix.
		if delta(&e.nxt, &e.cur) < epsilon {
			return iter
		}
	}
	return maxIter
}

// interpret reads clusters from the converged flow matrix: attractors are
// vertices with positive diagonal; an attractor's cluster is the support
// of its row; overlapping clusters merge (standard MCL interpretation).
func interpret(m *csr, n int) [][]int {
	// Row support of attractors via union-find over vertices.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	attractor := make([]bool, n)
	for j := 0; j < n; j++ {
		for p := m.ptr[j]; p < m.ptr[j+1]; p++ {
			if int(m.rows[p]) == j && m.vals[p] > 1e-9 {
				attractor[j] = true
			}
		}
	}
	// A column's mass flows to attractors; join the column vertex with
	// every attractor it supports, and attractors sharing a column.
	for j := 0; j < n; j++ {
		for p := m.ptr[j]; p < m.ptr[j+1]; p++ {
			if attractor[m.rows[p]] && m.vals[p] > 1e-9 {
				union(j, int(m.rows[p]))
			}
		}
	}
	byRoot := make(map[int][]int)
	for v := 0; v < n; v++ {
		r := find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	out := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
