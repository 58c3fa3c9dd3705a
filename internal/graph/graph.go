// Package graph provides the weighted undirected graph substrate used by all
// density-contrast-subgraph (DCS) algorithms.
//
// Vertices are dense integers in [0, n). Edge weights are float64 and may be
// negative: the central object of the DCS problem is the difference graph
// GD = G2 − αG1, whose affinity matrix D = A2 − αA1 mixes positive and
// negative entries.
//
// # Storage: compressed sparse row
//
// A Graph stores its adjacency in CSR form: two parallel flat arrays holding
// every directed edge entry (each undirected edge appears twice) — neighbor
// ids as []int32 and weights as []float64 — plus an offsets array, so the
// neighbor list of u is the contiguous range off[u]:off[u+1] of both, kept
// sorted by neighbor id. Sortedness lets Difference build GD with a linear
// merge and lets Weight answer point queries by binary search; the flat
// layout means a whole-graph edge scan is a single cache-friendly array walk
// with no per-vertex indirection. Every graph uses this one layout; a backed
// graph (backed.go) differs from a heap graph only in who owns the arrays.
// The int32 ids cap the vertex count at MaxN.
//
// # Views: masked graphs without rebuilding
//
// Derived graphs that only *hide* parts of their base — PositivePart (hide
// non-positive edges) and WithoutVertices (hide all edges incident to a
// vertex set) — do not copy the CSR arrays. They return a view: a Graph that
// shares the backing storage and carries a vertex mask and/or a sign filter.
// Constructing a view costs O(n) for the mask plus a recount of the visible
// edges (O(Σ deg(v) over newly dropped v) for WithoutVertices, one O(n+m)
// scan for PositivePart) and performs no per-vertex row allocations, which is
// what makes iterated top-k mining and the dcsd difference-graph cache cheap.
// Views compose: a PositivePart of a WithoutVertices view masks both.
//
// Every method is mask-aware and views satisfy exactly the same contracts as
// plain graphs. VisitNeighbors is the iteration primitive and is
// allocation-free on plain graphs and views alike; Compact flattens a view
// into a plain graph when one is needed, CSR exposes a plain graph's arrays,
// and Rows exposes any graph's storage together with its masks for solvers
// that walk rows directly.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// MaxN is the largest vertex count a Graph can hold: neighbor ids are stored
// as int32.
const MaxN = 1<<31 - 1

// Edge is an undirected edge (U, V) with weight W. A canonical edge has U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an immutable undirected weighted graph in CSR form, possibly a
// masked view over another graph's storage (see the package comment). The
// zero value is an empty graph with no vertices; use NewBuilder or FromEdges
// to construct non-empty graphs.
type Graph struct {
	n      int
	m      int     // number of visible undirected edges
	totalW float64 // sum of weights over visible undirected edges

	// CSR storage, shared (never mutated) between a graph and its views.
	// Each undirected edge appears twice, once per endpoint row.
	off []int     // len n+1; row u is entries off[u]:off[u+1]
	ids []int32   // neighbor id of entry i
	ws  []float64 // weight of entry i, never zero

	// backed marks externally owned storage (FromCSRBacked), which may alias
	// a read-only memory mapping; views inherit it. release tears that
	// storage down (e.g. munmap) and is nil on heap graphs and on views.
	// See backed.go.
	backed  bool
	release func()

	// pos memoizes PositivePartCompact on plain graphs, so the several
	// solver entry points deriving GD+ from one difference graph share a
	// single materialization. Views never populate it.
	pos atomic.Pointer[Graph]

	// View state. A plain graph has drop == nil and posOnly == false.
	drop    []bool // drop[v] hides every edge incident to v; nil = none
	posOnly bool   // hide edges with W ≤ 0
}

// row returns u's base adjacency row as parallel id and weight slices of
// equal length, ignoring any masks. Loops range over ids and index ws, which
// lets the compiler drop the bounds checks.
func (g *Graph) row(u int) (ids []int32, ws []float64) {
	lo, hi := g.off[u], g.off[u+1]
	ids = g.ids[lo:hi]
	return ids, g.ws[lo:hi][:len(ids)]
}

// plain reports whether g has no masks (storage = visible graph).
func (g *Graph) plain() bool { return g.drop == nil && !g.posOnly }

// dropped reports whether vertex u is hidden by the vertex mask.
func (g *Graph) dropped(u int) bool { return g.drop != nil && g.drop[u] }

// hides reports whether the sign filter hides an edge of weight w.
func (g *Graph) hides(w float64) bool { return g.posOnly && w <= 0 }

// visibleTo reports whether the entry (to, w) survives both masks.
func (g *Graph) visibleTo(to int, w float64) bool {
	return !g.hides(w) && !g.dropped(to)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (visible) undirected edges.
func (g *Graph) M() int { return g.m }

// TotalWeight returns the sum of edge weights over all (visible) undirected
// edges.
func (g *Graph) TotalWeight() float64 { return g.totalW }

// IsView reports whether g is a masked view sharing another graph's storage.
func (g *Graph) IsView() bool { return !g.plain() }

// Compact materializes g into a plain CSR graph with no masks. It returns g
// itself when g is already plain (including plain backed graphs); otherwise
// it copies the visible entries into fresh heap arrays.
func (g *Graph) Compact() *Graph {
	if g.plain() {
		return g
	}
	c := g.mapWeights(func(w float64) float64 { return w })
	c.totalW = g.totalW // the view's own figure, bit for bit
	return c
}

// VisitNeighbors calls fn for every visible neighbor of u in ascending id
// order. It never allocates, on plain graphs and views alike; it is the
// iteration primitive the solvers use on derived graphs.
func (g *Graph) VisitNeighbors(u int, fn func(v int, w float64)) {
	ids, ws := g.row(u)
	if g.plain() {
		for i, to := range ids {
			fn(int(to), ws[i])
		}
		return
	}
	if g.dropped(u) {
		return
	}
	for i, to := range ids {
		if w := ws[i]; g.visibleTo(int(to), w) {
			fn(int(to), w)
		}
	}
}

// OutDegree returns the number of (visible) edges incident to u. O(1) on a
// plain graph, O(deg u) on a view.
func (g *Graph) OutDegree(u int) int {
	if g.plain() {
		return g.off[u+1] - g.off[u]
	}
	d := 0
	g.VisitNeighbors(u, func(int, float64) { d++ })
	return d
}

// WeightedDegree returns the sum of weights of edges incident to u, i.e. u's
// degree W(u; G) in the whole graph.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	if g.plain() {
		_, ws := g.row(u)
		for _, w := range ws {
			s += w
		}
		return s
	}
	g.VisitNeighbors(u, func(_ int, w float64) { s += w })
	return s
}

// Weight returns the weight of edge (u, v), or 0 if the edge does not exist
// (or is hidden by a mask).
func (g *Graph) Weight(u, v int) float64 {
	if g.dropped(u) || g.dropped(v) {
		return 0
	}
	// A hand-rolled search: this is the inner probe of 2-coordinate descent,
	// and the generic slices.BinarySearch is not inlined.
	ids, ws := g.row(u)
	lo, hi := 0, len(ids)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); int(ids[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && int(ids[lo]) == v && !g.hides(ws[lo]) {
		return ws[lo]
	}
	return 0
}

// HasEdge reports whether the edge (u, v) exists (and is visible).
func (g *Graph) HasEdge(u, v int) bool { return g.Weight(u, v) != 0 }

// Edges returns every visible undirected edge once, with U < V, sorted by
// (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.VisitEdges(func(u, v int, w float64) {
		out = append(out, Edge{U: u, V: v, W: w})
	})
	return out
}

// VisitEdges calls fn for every visible undirected edge once, with u < v.
func (g *Graph) VisitEdges(fn func(u, v int, w float64)) {
	if g.plain() {
		for u := 0; u < g.n; u++ {
			ids, ws := g.row(u)
			for i, to := range ids {
				if int(to) > u {
					fn(u, int(to), ws[i])
				}
			}
		}
		return
	}
	for u := 0; u < g.n; u++ {
		if g.dropped(u) {
			continue
		}
		ids, ws := g.row(u)
		for i, to := range ids {
			if w := ws[i]; int(to) > u && g.visibleTo(int(to), w) {
				fn(u, int(to), w)
			}
		}
	}
}

// TotalDegreeOf returns W(S) = Σ_{(u,v)∈E(S)} A(u,v) exactly as the paper
// defines it: E(S) contains both (u,v) and (v,u), so every undirected edge
// inside S contributes its weight twice. Equivalently, W(S) is the sum over
// u ∈ S of u's weighted degree inside G(S); a unit-weight k-clique has
// W(S) = k(k−1) and average degree ρ(S) = k−1. Duplicate entries in S are an
// error in the caller; the result is then undefined.
func (g *Graph) TotalDegreeOf(S []int) float64 {
	in := acquireMark(g.n)
	for _, v := range S {
		in.b[v] = true
	}
	var w float64
	for _, u := range S {
		g.VisitNeighbors(u, func(v int, wt float64) {
			if in.b[v] {
				w += wt
			}
		})
	}
	in.release(S)
	return w
}

// SubgraphMetrics returns the three density figures of S from a single walk:
// W(S), ρ(S) = W(S)/|S|, and the edge density W(S)/|S|². All are 0 for an
// empty S. Result constructors use this instead of three separate calls that
// would each rebuild the membership set.
func (g *Graph) SubgraphMetrics(S []int) (w, avgDeg, edgeDensity float64) {
	if len(S) == 0 {
		return 0, 0, 0
	}
	w = g.TotalDegreeOf(S)
	return w, w / float64(len(S)), w / float64(len(S)*len(S))
}

// AverageDegreeOf returns ρ(S) = W(S)/|S|, the average-degree density of the
// subgraph induced by S. It returns 0 for an empty S.
func (g *Graph) AverageDegreeOf(S []int) float64 {
	if len(S) == 0 {
		return 0
	}
	return g.TotalDegreeOf(S) / float64(len(S))
}

// EdgeDensityOf returns W(S)/|S|², the edge density of the subgraph induced
// by S (the discrete analogue of graph affinity). It returns 0 for empty S.
func (g *Graph) EdgeDensityOf(S []int) float64 {
	if len(S) == 0 {
		return 0
	}
	return g.TotalDegreeOf(S) / float64(len(S)*len(S))
}

// DegreeIn returns W(u; G(S)): u's weighted degree inside the subgraph
// induced by the membership set in (in[v] == true iff v ∈ S).
func (g *Graph) DegreeIn(u int, in []bool) float64 {
	var s float64
	g.VisitNeighbors(u, func(v int, w float64) {
		if in[v] {
			s += w
		}
	})
	return s
}

// Induced returns the subgraph induced by S as a standalone Graph over
// vertices [0, len(S)), together with the mapping local→original (which is a
// copy of S). Vertices in S keep their relative order.
func (g *Graph) Induced(S []int) (*Graph, []int) {
	orig := make([]int, len(S))
	copy(orig, S)
	local := acquireID(g.n)
	for i, v := range S {
		local.b[v] = i + 1 // 0 means "not in S"
	}
	b := NewBuilder(len(S))
	for i, v := range S {
		g.VisitNeighbors(v, func(to int, w float64) {
			if j := local.b[to]; j != 0 && to > v {
				b.AddEdge(i, j-1, w)
			}
		})
	}
	local.release(S)
	return b.Build(), orig
}

// IsPositiveClique reports whether the subgraph induced by S is a clique all
// of whose edges have strictly positive weight. Singletons and the empty set
// are positive cliques by convention.
func (g *Graph) IsPositiveClique(S []int) bool {
	for i := 0; i < len(S); i++ {
		for j := i + 1; j < len(S); j++ {
			if g.Weight(S[i], S[j]) <= 0 {
				return false
			}
		}
	}
	return true
}

// MaxEdge returns the maximum-weight edge of the graph and true, or a zero
// Edge and false when the graph has no edges.
func (g *Graph) MaxEdge() (Edge, bool) {
	best := Edge{}
	found := false
	g.VisitEdges(func(u, v int, w float64) {
		if !found || w > best.W {
			best = Edge{U: u, V: v, W: w}
			found = true
		}
	})
	return best, found
}

// recount recomputes m and totalW from the visible edges. Used by view
// constructors that cannot derive the counts incrementally.
func (g *Graph) recount() {
	m := 0
	var tw float64
	g.VisitEdges(func(u, v int, w float64) {
		m++
		tw += w
	})
	g.m, g.totalW = m, tw
}

// PositivePart returns GD+: the graph over the same vertex set containing
// exactly the edges of g with strictly positive weight. The result is a view
// sharing g's storage — construction is one counting scan with no row
// allocations, and iteration filters by sign on the fly. Suited to one-shot
// consumers (counts, stats, a single edge scan); the iteration-heavy solvers
// use PositivePartCompact instead, which materializes GD+ in the same single
// pass.
func (g *Graph) PositivePart() *Graph {
	if g.posOnly {
		return g
	}
	v := &Graph{n: g.n, off: g.off, ids: g.ids, ws: g.ws, backed: g.backed, drop: g.drop, posOnly: true}
	v.recount()
	return v
}

// PositivePartCompact returns GD+ as a plain materialized graph in a single
// pass — equivalent to PositivePart().Compact() but without the intermediate
// view's counting scan. This is what the solvers call at their entry: they
// make many passes over GD+, so the two flat allocations amortize
// immediately. On plain graphs the result is memoized, so the several solver
// entry points (and repeated dcsd requests against a cached difference
// graph) that derive GD+ from the same graph share one materialization; the
// memo is safe because graphs are immutable. Use PositivePart when only
// counts or a single scan of GD+ are needed.
func (g *Graph) PositivePartCompact() *Graph {
	if p := g.pos.Load(); p != nil {
		return p
	}
	p := g.mapWeights(func(w float64) float64 {
		if w > 0 {
			return w
		}
		return 0 // non-positive: dropped, like every zero mapWeights result
	})
	if g.plain() {
		g.pos.Store(p)
	}
	return p
}

// WithoutVertices returns the graph with every vertex of S isolated (all its
// incident edges removed). The vertex count is unchanged, so ids remain
// stable — used by iterative top-k contrast mining to exclude previously
// found subgraphs. The result is a view sharing g's storage: cost is O(n)
// for the copied vertex mask plus O(Σ deg(v)) over the newly dropped
// vertices to update the edge counts, with no row allocations.
func (g *Graph) WithoutVertices(S []int) *Graph {
	drop := make([]bool, g.n)
	if g.drop != nil {
		copy(drop, g.drop)
	}
	newly := make([]int, 0, len(S))
	for _, v := range S {
		if !drop[v] {
			drop[v] = true
			newly = append(newly, v)
		}
	}
	v := &Graph{n: g.n, m: g.m, totalW: g.totalW, off: g.off, ids: g.ids, ws: g.ws,
		backed: g.backed, drop: drop, posOnly: g.posOnly}
	// Subtract every edge that just became invisible: edges visible in g with
	// at least one endpoint newly dropped. An edge between two newly dropped
	// vertices is walked from both rows; the smaller endpoint counts it.
	for _, u := range newly {
		ids, ws := g.row(u)
		for i, t := range ids {
			to, w := int(t), ws[i]
			if g.hides(w) || g.dropped(to) {
				continue // was not visible in g
			}
			if to < u && drop[to] && !g.dropped(to) {
				continue // both ends newly dropped: counted from to's row
			}
			v.m--
			v.totalW -= w
		}
	}
	return v
}

// Negate returns the graph with every edge weight multiplied by −1. Mining a
// "disappearing" DCS on GD is mining an "emerging" DCS on Negate(GD).
func (g *Graph) Negate() *Graph {
	return g.Scale(-1)
}

// Scale returns the graph with every edge weight multiplied by c. A zero c
// yields an edgeless graph. The result is a plain (materialized) graph even
// when g is a view: scaling changes weights, which masks cannot express.
func (g *Graph) Scale(c float64) *Graph {
	if c == 0 {
		return &Graph{n: g.n, off: make([]int, g.n+1)}
	}
	return g.mapWeights(func(w float64) float64 { return w * c })
}

// mapWeights materializes a plain heap graph applying f to every visible
// edge weight; edges for which f returns 0 are dropped. One pass.
func (g *Graph) mapWeights(f func(w float64) float64) *Graph {
	a := newRowAppender(g.n, 2*g.m)
	for u := 0; u < g.n; u++ {
		a.startRow(u)
		g.VisitNeighbors(u, func(to int, w float64) { a.add(u, to, f(w)) })
	}
	return a.graph()
}

// Stats summarizes a (difference) graph the way Table II of the paper does.
type Stats struct {
	N       int     // number of vertices
	MPos    int     // edges with positive weight
	MNeg    int     // edges with negative weight
	MaxW    float64 // maximum edge weight (0 when there are no edges)
	MinW    float64 // minimum edge weight (0 when there are no edges)
	AvgW    float64 // average edge weight over all edges
	TotalW  float64 // sum of all edge weights
	MaxDeg  int     // maximum unweighted degree
	Density float64 // m⁺/n, the density measure used by Fig. 2
}

// ComputeStats returns Table-II style statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	st := Stats{N: g.n, TotalW: g.totalW}
	first := true
	g.VisitEdges(func(u, v int, w float64) {
		if w > 0 {
			st.MPos++
		} else if w < 0 {
			st.MNeg++
		}
		if first {
			st.MaxW, st.MinW = w, w
			first = false
		} else {
			st.MaxW = math.Max(st.MaxW, w)
			st.MinW = math.Min(st.MinW, w)
		}
	})
	if g.m > 0 {
		st.AvgW = g.totalW / float64(g.m)
	}
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(u); d > st.MaxDeg {
			st.MaxDeg = d
		}
	}
	if g.n > 0 {
		st.Density = float64(st.MPos) / float64(g.n)
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m+=%d m-=%d maxW=%.4g minW=%.4g avgW=%.4g",
		s.N, s.MPos, s.MNeg, s.MaxW, s.MinW, s.AvgW)
}
