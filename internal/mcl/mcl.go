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
	"runtime"
	"slices"
	"sort"
	"sync"

	"github.com/hobbitscan/hobbit/internal/graph"
)

// runtimeWorkers is the auto worker count (Workers == 0).
func runtimeWorkers() int { return runtime.GOMAXPROCS(0) }

// Options configures an MCL run.
type Options struct {
	// Inflation is the granularity parameter r (entrywise power);
	// larger values produce finer clusters. Default 2.0.
	Inflation float64
	// Workers bounds the column shards of the expansion/inflation rounds
	// (0 = GOMAXPROCS, 1 = serial). Every output column of M*M is
	// independent, so sharding cannot change the result; matrices smaller
	// than parallelMinColumns always run serially to keep goroutine
	// overhead off the many tiny per-component runs.
	Workers int
}

// parallelMinColumns is the matrix size below which a round is always
// computed serially: the similarity graphs split into many small
// components, and fan-out overhead would dominate their O(n) columns.
// It doubles as the CSR engine's serial-fallback threshold — below it a
// round runs on the engine's own persistent scratch with zero
// allocations; above it shards append into per-shard buffers that are
// stitched back in shard order.
const parallelMinColumns = 128

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

// shardState is one expansion worker's private accumulator and output
// fragment, persisted on the engine so repeated rounds reuse capacity.
type shardState struct {
	dst     csr
	scratch []float64
	touched []int32
}

// engine holds one MCL run's state: the double-buffered flow matrix and
// the expansion scratch. All methods run on the caller's goroutine except
// the shard bodies inside step, which write only shard-private state.
type engine struct {
	n        int
	opts     Options
	workers  int
	cur, nxt csr
	serial   shardState
	shards   []shardState
}

// newEngine builds the initial column-stochastic flow matrix with self
// loops, exactly as the original fromGraph did: per column, self loop
// plus neighbors sorted by row, duplicates merged, then normalized.
func newEngine(g *graph.Graph, opts Options) *engine {
	n := g.Len()
	e := &engine{n: n, opts: opts, workers: opts.Workers}
	if e.workers <= 0 {
		e.workers = runtimeWorkers()
	}
	e.serial.scratch = make([]float64, n)
	e.serial.touched = make([]int32, 0, n)
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
// appends it to dst. The accumulation order over column j's entries is
// fixed by the CSR layout — identical to the original expandColumn — and
// the inflation replays pow, sum, prune, and the two normalizations in
// the original entry order, so the appended column is bit-identical to
// the per-column implementation's no matter which worker computes it.
//
//hobbit:hotpath
func (e *engine) expandInflateColumn(st *shardState, dst *csr, j int) {
	cur := &e.cur
	touched := st.touched[:0]
	scratch := st.scratch
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
	st.touched = touched

	// Gather the expanded column, then inflate in place: pow and sum in
	// row order, prune against the normalized value, renormalize the
	// survivors.
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

// step computes one expansion + inflation round into the spare buffer and
// swaps it in. Columns are independent: below the serial-fallback
// threshold they run on the engine's persistent scratch (no allocation in
// steady state); above it contiguous shards append into per-shard
// buffers, which are stitched into the output strictly in shard order, so
// the round is bit-identical to a serial pass at any worker count.
//
//hobbit:hotpath
func (e *engine) step() {
	e.nxt.reset()
	if e.n < parallelMinColumns || e.workers <= 1 {
		for j := 0; j < e.n; j++ {
			e.expandInflateColumn(&e.serial, &e.nxt, j)
		}
		e.cur, e.nxt = e.nxt, e.cur
		return
	}
	e.stepParallel()
}

// stepParallel is the sharded body of step, split out so the serial
// fallback's stack frame never materializes the goroutine closures (the
// captured shard-count variable would otherwise be heap-allocated on
// every round, serial or not).
func (e *engine) stepParallel() {
	k := e.workers
	if k > e.n {
		k = e.n
	}
	if e.shards == nil {
		e.shards = make([]shardState, k)
		for s := range e.shards {
			e.shards[s].scratch = make([]float64, e.n)
			e.shards[s].touched = make([]int32, 0, e.n)
		}
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			st := &e.shards[s]
			st.dst.reset()
			lo, hi := s*e.n/k, (s+1)*e.n/k
			for j := lo; j < hi; j++ {
				e.expandInflateColumn(st, &st.dst, j)
			}
		}(s)
	}
	wg.Wait()
	// Ordered stitch: shard s covers columns [s*n/k, (s+1)*n/k), so
	// appending fragments in shard index order reassembles the exact
	// serial output.
	for s := 0; s < k; s++ {
		st := &e.shards[s]
		base := int32(len(e.nxt.rows))
		for _, p := range st.dst.ptr[1:] {
			e.nxt.ptr = append(e.nxt.ptr, base+p)
		}
		e.nxt.rows = append(e.nxt.rows, st.dst.rows...)
		e.nxt.vals = append(e.nxt.vals, st.dst.vals...)
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
	for iter := 0; iter < maxIter; iter++ {
		e.step()
		// After the swap, nxt holds the previous round's matrix.
		if delta(&e.nxt, &e.cur) < epsilon {
			break
		}
	}
	return interpret(&e.cur, n)
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
