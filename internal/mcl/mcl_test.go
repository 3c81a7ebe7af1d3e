package mcl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/graph"
)

// twoCliques builds two dense clusters joined by one weak edge.
func twoCliques(n int, bridge float64) *graph.Graph {
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(n+i, n+j, 1)
		}
	}
	if bridge > 0 {
		g.AddEdge(0, n, bridge)
	}
	return g
}

func clusterOf(clusters [][]int, v int) []int {
	for _, c := range clusters {
		for _, m := range c {
			if m == v {
				return c
			}
		}
	}
	return nil
}

func TestClusterSeparatesCliques(t *testing.T) {
	g := twoCliques(6, 0.05)
	clusters := Cluster(g, Options{})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	c0 := clusterOf(clusters, 0)
	if len(c0) != 6 || c0[5] != 5 {
		t.Errorf("first clique cluster = %v", c0)
	}
	c6 := clusterOf(clusters, 6)
	if len(c6) != 6 || c6[0] != 6 {
		t.Errorf("second clique cluster = %v", c6)
	}
}

func TestClusterPartition(t *testing.T) {
	// Every vertex appears exactly once regardless of structure.
	rng := rand.New(rand.NewSource(11))
	g := graph.New(40)
	for i := 0; i < 120; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(40), rng.Float64())
	}
	clusters := Cluster(g, Options{})
	seen := make(map[int]int)
	for _, c := range clusters {
		for _, v := range c {
			seen[v]++
		}
	}
	if len(seen) != 40 {
		t.Fatalf("covered %d of 40 vertices", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("vertex %d appears %d times", v, n)
		}
	}
}

func TestInflationGranularity(t *testing.T) {
	// A chain graph: higher inflation must produce at least as many
	// clusters (finer granularity), the property the parameter sweep
	// exploits.
	g := graph.New(24)
	for i := 0; i+1 < 24; i++ {
		g.AddEdge(i, i+1, 1)
	}
	coarse := Cluster(g, Options{Inflation: 1.3})
	fine := Cluster(g, Options{Inflation: 3.5})
	if len(fine) < len(coarse) {
		t.Errorf("inflation 3.5 gave %d clusters, 1.3 gave %d", len(fine), len(coarse))
	}
}

func TestIsolatedVerticesSingletons(t *testing.T) {
	g := graph.New(3) // no edges at all
	clusters := Cluster(g, Options{})
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v", clusters)
	}
	for i, c := range clusters {
		if len(c) != 1 || c[0] != i {
			t.Errorf("cluster %d = %v", i, c)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	if got := Cluster(graph.New(0), Options{}); got != nil {
		t.Errorf("empty graph clusters = %v", got)
	}
}

func TestMatrixStochasticInvariant(t *testing.T) {
	g := twoCliques(5, 0.2)
	e := newEngine(g, Options{}.withDefaults())
	checkStochastic := func(m *csr, stage string) {
		t.Helper()
		for j := 0; j+1 < len(m.ptr); j++ {
			var sum float64
			for p := m.ptr[j]; p < m.ptr[j+1]; p++ {
				sum += m.vals[p]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: column %d sums to %v", stage, j, sum)
			}
		}
	}
	checkStochastic(&e.cur, "initial")
	// A full round (expand + inflate + renormalize) must preserve column
	// stochasticity.
	e.step()
	checkStochastic(&e.cur, "after step")
}

// bridgedFamilies builds several dense families joined by weak bridges,
// the shape of the real similarity-graph components.
func bridgedFamilies(families, size int) *graph.Graph {
	g := graph.New(families * size)
	for f := 0; f < families; f++ {
		base := f * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if (i+j)%3 == 0 {
					g.AddEdge(base+i, base+j, 0.8)
				}
			}
		}
		if f > 0 {
			g.AddEdge(base, base-size, 0.05)
		}
	}
	return g
}

// TestClusterEdgeOrderInvariant pins that MCL sees a graph only through
// its edge set, never through the order edges were inserted (newEngine
// sorts every column by row). One weighted graph built twice — edges in lexicographic order,
// and shuffled with random endpoint order — must yield a bit-identical
// initial flow matrix and identical clusterings.
func TestClusterEdgeOrderInvariant(t *testing.T) {
	type edge struct {
		a, b int
		w    float64
	}
	rng := rand.New(rand.NewSource(5))
	const families, size = 6, 30 // 180 vertices
	var edges []edge
	for i := 0; i < families*size; i++ {
		for j := i + 1; j < families*size; j++ {
			same := i/size == j/size
			if (same && rng.Float64() < 0.3) || (!same && rng.Float64() < 0.004) {
				edges = append(edges, edge{i, j, 0.05 + 0.95*rng.Float64()})
			}
		}
	}
	lex := graph.New(families * size)
	for _, e := range edges {
		lex.AddEdge(e.a, e.b, e.w)
	}
	shuffled := graph.New(families * size)
	for _, k := range rng.Perm(len(edges)) {
		e := edges[k]
		if rng.Intn(2) == 0 {
			e.a, e.b = e.b, e.a
		}
		shuffled.AddEdge(e.a, e.b, e.w)
	}
	// The initial flow matrices must match entry for entry, bits included.
	el, es := newEngine(lex, Options{}.withDefaults()), newEngine(shuffled, Options{}.withDefaults())
	if !reflect.DeepEqual(el.cur, es.cur) {
		t.Fatal("initial flow matrix depends on edge insertion order")
	}
	for _, inf := range []float64{1.4, 2.0, 3.0} {
		opts := Options{Inflation: inf}
		want, got := Cluster(lex, opts), Cluster(shuffled, opts)
		if len(want) < families {
			t.Fatalf("inflation=%v: only %d clusters; the graph is too uniform to test", inf, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("inflation=%v: clustering depends on edge insertion order", inf)
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := twoCliques(5, 0.1)
	a := Cluster(g, Options{})
	b := Cluster(g, Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic cluster sizes")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic membership")
			}
		}
	}
}

func TestWeightSensitivity(t *testing.T) {
	// Vertex 4 is tied strongly to clique A and weakly to clique B; it
	// must cluster with A.
	g := graph.New(9)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	for i := 5; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	g.AddEdge(4, 0, 0.9)
	g.AddEdge(4, 1, 0.9)
	g.AddEdge(4, 5, 0.05)
	clusters := Cluster(g, Options{})
	c := clusterOf(clusters, 4)
	has0 := false
	has5 := false
	for _, v := range c {
		if v == 0 {
			has0 = true
		}
		if v == 5 {
			has5 = true
		}
	}
	if !has0 || has5 {
		t.Errorf("vertex 4 clustered as %v; want with clique A only", c)
	}
}
