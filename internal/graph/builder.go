package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. Parallel edges
// are merged by summing their weights; edges whose merged weight is exactly
// zero are dropped. Self-loops are rejected: neither density measure in the
// paper is defined over self-loops.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices. It panics if n
// is negative or exceeds MaxN.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > MaxN {
		panic(fmt.Sprintf("graph: vertex count %d exceeds the limit %d", n, MaxN))
	}
	return &Builder{n: n}
}

// N returns the number of vertices the built graph will have.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge (u, v) with weight w. Zero-weight edges
// are ignored. Adding the same pair again accumulates the weight.
func (b *Builder) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if w == 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Build finalizes the graph into CSR form. The Builder may be reused
// afterwards; already recorded edges stay recorded.
func (b *Builder) Build() *Graph {
	es := make([]Edge, len(b.edges))
	copy(es, b.edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	// Merge duplicates.
	merged := es[:0]
	for _, e := range es {
		if len(merged) > 0 && merged[len(merged)-1].U == e.U && merged[len(merged)-1].V == e.V {
			merged[len(merged)-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	deg := make([]int, b.n)
	m := 0
	var tw float64
	for _, e := range merged {
		if e.W == 0 {
			continue
		}
		deg[e.U]++
		deg[e.V]++
		m++
		tw += e.W
	}
	off := make([]int, b.n+1)
	for u := 0; u < b.n; u++ {
		off[u+1] = off[u] + deg[u]
	}
	ids := make([]int32, off[b.n])
	ws := make([]float64, off[b.n])
	cur := make([]int, b.n)
	copy(cur, off[:b.n])
	// One pass over the (U,V)-sorted canonical edges fills every row already
	// sorted: row u receives its To < u entries while the blocks U = a < u are
	// processed (ascending a), then its To > u entries during block U = u
	// (ascending V) — so each row is an ascending run followed by another
	// ascending run over a disjoint higher range.
	for _, e := range merged {
		if e.W == 0 {
			continue
		}
		ids[cur[e.U]], ws[cur[e.U]] = int32(e.V), e.W
		cur[e.U]++
		ids[cur[e.V]], ws[cur[e.V]] = int32(e.U), e.W
		cur[e.V]++
	}
	return &Graph{n: b.n, m: m, totalW: tw, off: off, ids: ids, ws: ws}
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

// Complete returns the complete graph K_n with uniform edge weight w.
func Complete(n int, w float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, w)
		}
	}
	return b.Build()
}
