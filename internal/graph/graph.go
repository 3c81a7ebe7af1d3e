// Package graph provides the sparse weighted undirected graph and
// connected-components decomposition the clustering pipeline preprocesses
// with (Section 6.3): the similarity graph is split into components so MCL
// runs on small inputs, which matters because MCL is cubic in vertices.
package graph

import "sort"

// Edge is one weighted undirected edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted undirected graph over dense vertex indices.
type Graph struct {
	adj [][]Edge
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.adj) }

// AddVertex appends a new isolated vertex and returns its index. It is
// the growth primitive of the incremental similarity-graph builder: the
// streaming clusterer creates one vertex per aggregate delta and then
// wires its edges with AddEdge.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts an undirected edge; zero- and negative-weight edges are
// ignored, as are self loops (MCL adds its own).
func (g *Graph) AddEdge(a, b int, w float64) {
	if w <= 0 || a == b || a < 0 || b < 0 || a >= len(g.adj) || b >= len(g.adj) {
		return
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: w})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: w})
}

// Neighbors returns the adjacency list of v (not a copy).
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// Weights returns every undirected edge weight once, unsorted.
func (g *Graph) Weights() []float64 {
	var out []float64
	for v, es := range g.adj {
		for _, e := range es {
			if v < e.To {
				out = append(out, e.Weight)
			}
		}
	}
	return out
}

// MedianWeight returns the median edge weight, used by the inflation
// parameter sweep's objective. ok is false for an edgeless graph.
func (g *Graph) MedianWeight() (float64, bool) {
	ws := g.Weights()
	if len(ws) == 0 {
		return 0, false
	}
	sort.Float64s(ws)
	return ws[(len(ws)-1)/2], true
}

// Components splits the graph into connected components, each a sorted
// list of vertex indices, ordered by their smallest vertex. Isolated
// vertices form singleton components.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	var stack []int
	for v := range g.adj {
		if seen[v] {
			continue
		}
		var comp []int
		stack = append(stack[:0], v)
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Subgraph extracts the induced subgraph over the given vertices. It
// returns the subgraph and the mapping from subgraph index to original
// vertex.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	index := make(map[int]int, len(vertices))
	for i, v := range vertices {
		index[v] = i
	}
	sub := New(len(vertices))
	for i, v := range vertices {
		for _, e := range g.adj[v] {
			if j, ok := index[e.To]; ok && i < j {
				sub.AddEdge(i, j, e.Weight)
			}
		}
	}
	return sub, append([]int(nil), vertices...)
}
