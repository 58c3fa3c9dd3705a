// Package densest solves the *traditional* densest-subgraph problem — all
// edge weights positive — exactly and approximately.
//
// The DCS paper builds on two classical results for positive-weight graphs:
// Goldberg's polynomial-time exact algorithm via minimum cuts [12] and
// Charikar's greedy 2-approximation [7]. DCSGreedy (Algorithm 2) runs the
// greedy on GD and GD+; its data-dependent ratio 2ρ_{D+}(S2)/ρ_D(S) relies on
// the 2-approximation guarantee holding on GD+. This package provides both
// algorithms: Exact is the oracle used in tests and ablations, Greedy is the
// production peeling routine reused by the core DCS algorithms.
//
// Density convention: the paper's ρ(S) = W(S)/|S| where W(S) counts every
// undirected edge twice (once per direction); see graph.TotalDegreeOf. Both
// functions here report that convention.
package densest

import (
	"math"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/maxflow"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/vheap"
)

// Result is a dense subgraph along with its density.
type Result struct {
	S       []int   // vertex set, increasing order
	Density float64 // ρ(S) = W(S)/|S|, paper convention (edges counted twice)
}

// Greedy is Charikar's peeling algorithm (Algorithm 1 of the paper) run on a
// graph that may have positive or negative weights: repeatedly remove the
// vertex with minimum weighted degree, remember the best prefix. On graphs
// with only positive weights the result is a 2-approximation of the maximum
// average degree. Runs in O((m+n) log n) using an indexed heap.
//
// The empty graph yields an empty result; an edgeless graph yields a single
// vertex with density 0.
func Greedy(g *graph.Graph) Result {
	return GreedyParRS(g, runstate.New(nil), 1)
}

// GreedyPar is Greedy with the peel distributed over at most workers
// goroutines; see GreedyParRS for the parallel round design. Results are
// bitwise identical at every degree.
func GreedyPar(g *graph.Graph, workers int) Result {
	return GreedyParRS(g, runstate.New(nil), workers)
}

// GreedyParRS is the parallel peeling engine behind every Greedy variant.
//
// A single global heap peel looks inherently sequential, but it decomposes
// exactly along connected components: edges never cross components, so a
// component's degrees change only when its own vertices are removed, and the
// subsequence of the global removal order restricted to a component C equals
// C's standalone peel order (the global minimum is always some component's
// front, and within a component both peels break degree ties by ascending
// vertex id). The engine therefore
//
//  1. partitions the graph into connected components (one O(n+m) sweep);
//  2. peels each component independently — these are the expensive
//     O((m_C+n_C) log n_C) parts and run on the worker pool — recording each
//     component's removal order, pop-time degrees and initial total degree;
//  3. replays the global peel as a k-way merge of the per-component pop
//     sequences, keyed by (pop-time degree, vertex id) — the exact priority
//     the global heap would use — evaluating the density of every global
//     prefix with the same floating-point operations in the same order.
//
// Every arithmetic step is either per-component-sequential or performed in
// the deterministic merge, so the result is bitwise identical for every
// parallelism degree; degree 1 runs the same code path inline. Cancellation
// is cooperative: each worker checkpoints once per pop, and a cancelled peel
// merges whatever prefixes completed — still a valid subgraph with an exact
// density, never empty on a non-empty graph.
func GreedyParRS(g *graph.Graph, rs *runstate.State, workers int) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	workers = par.Workers(workers)
	comps, loc := componentLists(g, rs)
	if comps == nil {
		// Cancelled during component discovery: fall back to the degenerate
		// single-vertex answer of Algorithm 2 (density 0), never empty.
		return Result{S: []int{0}}
	}
	peels := make([]compPeel, len(comps))
	if workers <= 1 || len(comps) < 2 {
		// Inline: rs is used directly, preserving its amortization counter and
		// latching interruption on the caller's state.
		for i := range comps {
			peels[i] = peelComponent(g, comps[i], loc, rs)
		}
	} else {
		cut := make([]bool, len(comps))
		par.Run(workers, len(comps), func(i int) {
			// A State is single-goroutine; fork one per task. Fork only reads
			// the immutable done channel, so concurrent forks are safe.
			wrs := rs.Fork()
			peels[i] = peelComponent(g, comps[i], loc, wrs)
			cut[i] = wrs.Interrupted()
		})
		for _, c := range cut {
			if c {
				// A worker can only observe cancellation after the context is
				// done, so this poll latches the caller's state too.
				rs.Cancelled()
				break
			}
		}
	}
	return mergePeels(n, peels, rs)
}

// compPeel is one component's recorded peel: the removal order (global ids),
// the weighted degree each vertex had at its pop, and the component's initial
// total degree. order may be short of the component size when the peel was
// cancelled mid-way.
type compPeel struct {
	order  []int
	popDeg []float64
	td     float64
}

// componentLists partitions all vertices (masked and isolated ones form
// singleton components) into connected components. Component lists are in
// ascending vertex order and components are ordered by smallest member; loc
// maps each vertex to its index within its component — both facts the peel
// and merge rely on for deterministic tie-breaking. A run cancelled mid-BFS
// returns (nil, nil): a partial partition would mis-route the peel.
func componentLists(g *graph.Graph, rs *runstate.State) (comps [][]int, loc []int32) {
	n := g.N()
	cid := make([]int32, n)
	for i := range cid {
		cid[i] = -1
	}
	var stack []int
	nc := int32(0)
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			return nil, nil
		}
		if cid[v] >= 0 {
			continue
		}
		id := nc
		nc++
		cid[v] = id
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.VisitNeighbors(u, func(w int, _ float64) {
				if cid[w] < 0 {
					cid[w] = id
					stack = append(stack, w)
				}
			})
		}
	}
	counts := make([]int32, nc)
	for _, id := range cid {
		counts[id]++
	}
	arena := make([]int, n)
	comps = make([][]int, nc)
	pos := int32(0)
	for i := range comps {
		comps[i] = arena[pos:pos:(pos + counts[i])]
		pos += counts[i]
	}
	loc = make([]int32, n)
	for v := 0; v < n; v++ {
		id := cid[v]
		loc[v] = int32(len(comps[id]))
		comps[id] = append(comps[id], v)
	}
	return comps, loc
}

// peelComponent runs the heap peel restricted to one component, over local
// indices (vheap's tie-break by local index matches ascending global id,
// since verts is sorted). One checkpoint per pop, exactly like the classic
// single-heap loop.
func peelComponent(g *graph.Graph, verts []int, loc []int32, rs *runstate.State) compPeel {
	nc := len(verts)
	deg := make([]float64, nc)
	for i, v := range verts {
		deg[i] = g.WeightedDegree(v)
	}
	var td float64
	for _, d := range deg {
		td += d
	}
	h := vheap.New(deg)
	order := make([]int, 0, nc)
	popDeg := make([]float64, 0, nc)
	for h.Len() > 0 {
		if rs.Checkpoint() {
			break
		}
		i, di := h.PopMin()
		order = append(order, verts[i])
		popDeg = append(popDeg, di)
		g.VisitNeighbors(verts[i], func(u int, w float64) {
			if j := int(loc[u]); h.Contains(j) {
				h.Add(j, -w)
			}
		})
	}
	return compPeel{order: order, popDeg: popDeg, td: td}
}

// mergePeels replays the global peel from the per-component records: a k-way
// merge by (pop-time degree, vertex id) — the global heap's priority — while
// tracking W(S) and the best prefix density exactly as the classic loop did.
// Cancellation stops the replay and keeps the best prefix evaluated so far —
// the same contract as a peel cut short.
func mergePeels(n int, peels []compPeel, rs *runstate.State) Result {
	// W(S) in the paper convention is the sum of in-subgraph weighted degrees;
	// summed in component order, deterministically at every degree.
	var totalDeg float64
	for i := range peels {
		totalDeg += peels[i].td
	}
	// Min-heap of component indices keyed by their front pop.
	cur := make([]int, len(peels))
	heap := make([]int, 0, len(peels))
	less := func(a, b int) bool {
		da, db := peels[a].popDeg[cur[a]], peels[b].popDeg[cur[b]]
		if da != db {
			return da < db
		}
		return peels[a].order[cur[a]] < peels[b].order[cur[b]]
	}
	siftDown := func(i int) {
		//lint:allow loopcheck -- heap sift: O(log #components) hops, not graph-scale
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	siftUp := func(i int) {
		//lint:allow loopcheck -- heap sift: O(log #components) hops, not graph-scale
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for c := range peels {
		if len(peels[c].order) > 0 {
			heap = append(heap, c)
			siftUp(len(heap) - 1)
		}
	}

	bestDensity := math.Inf(-1)
	bestSize := 0
	removeOrder := make([]int, 0, n)
	size := n
	for size >= 1 {
		// ≥ so that ties prefer the smaller prefix: on a graph with no positive
		// edge the result is then a single vertex (density 0), matching the
		// degenerate case of Algorithm 2.
		if rho := totalDeg / float64(size); rho >= bestDensity {
			bestDensity = rho
			bestSize = size
		}
		if len(heap) == 0 {
			break // cancelled peels exhausted; keep the best evaluated prefix
		}
		if rs.Checkpoint() {
			break // after ≥1 evaluation, so bestSize is set and the keep slice is consistent
		}
		c := heap[0]
		v, dv := peels[c].order[cur[c]], peels[c].popDeg[cur[c]]
		cur[c]++
		removeOrder = append(removeOrder, v)
		// Removing v: v's degree leaves W once, and every remaining neighbor
		// loses w(u,v) from its degree — so W(S) drops by 2·dv in total.
		totalDeg -= 2 * dv
		if cur[c] >= len(peels[c].order) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
		size--
	}
	// The best prefix keeps the vertices *not yet removed* when |S| == bestSize,
	// i.e. everything except the first n-bestSize removals.
	keep := make([]bool, n)
	for v := range keep {
		keep[v] = true
	}
	for i := 0; i < n-bestSize; i++ {
		keep[removeOrder[i]] = false
	}
	S := make([]int, 0, bestSize)
	for v := 0; v < n; v++ {
		if keep[v] {
			S = append(S, v)
		}
	}
	return Result{S: S, Density: bestDensity}
}

// Exact computes the maximum-average-degree subgraph of a graph with
// non-negative edge weights using Goldberg's binary search over minimum cuts.
// It panics if g has a negative edge weight — for graphs with negative
// weights the problem is NP-hard (Theorem 1 of the paper) and Greedy or the
// core DCS algorithms must be used instead.
//
// The returned density follows the paper convention (each edge counted
// twice). Intended for validation on small-to-medium graphs: each probe of
// the binary search solves one max-flow on a network with n+2 vertices and
// m+2n arcs.
func Exact(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	var sumW float64 // undirected sum
	g.VisitEdges(func(u, v int, w float64) {
		if w < 0 {
			panic("densest: Exact requires non-negative edge weights")
		}
		sumW += w
	})
	if sumW == 0 {
		return Result{S: []int{0}, Density: 0}
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
	}

	// Binary search on the undirected density gU = W_undirected(S)/|S|.
	// Feasibility test: exists S with W_u(S) > gU·|S| ⇔ min cut < sumW in the
	// standard Goldberg network. Two distinct achievable densities differ by
	// at least 1/(n(n-1)) when weights are integers; for float weights we
	// iterate to a fixed relative precision and return the best cut found.
	lo, hi := 0.0, sumW
	var bestS []int
	probe := func(gU float64) []int {
		// Network: s=n, t=n+1.
		fn := maxflow.New(n + 2)
		s, t := n, n+1
		for v := 0; v < n; v++ {
			fn.AddArc(s, v, sumW)
			fn.AddArc(v, t, sumW+2*gU-deg[v])
		}
		g.VisitEdges(func(u, v int, w float64) {
			fn.AddEdge(u, v, w)
		})
		fn.Solve(s, t)
		side := fn.MinCutSide(s)
		var S []int
		for v := 0; v < n; v++ {
			if side[v] {
				S = append(S, v)
			}
		}
		return S
	}
	// 64 iterations give ~2^-64 relative precision: far below any meaningful
	// density gap for float64 weights.
	for it := 0; it < 64 && hi-lo > 1e-12*(1+hi); it++ {
		mid := (lo + hi) / 2
		S := probe(mid)
		if len(S) > 0 {
			bestS = S
			lo = mid
		} else {
			hi = mid
		}
	}
	if bestS == nil {
		// Even density 0+ was infeasible numerically: fall back to best single
		// vertex (density 0) — can only happen with all-zero weights, handled
		// above, but keep a safe fallback.
		bestS = []int{0}
	}
	return Result{S: bestS, Density: g.AverageDegreeOf(bestS)}
}

// BruteForce scans all non-empty subsets (n ≤ 24) for the maximum average
// degree, honoring negative weights. Test oracle only.
func BruteForce(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	if n > 24 {
		panic("densest: BruteForce limited to n ≤ 24")
	}
	best := Result{Density: math.Inf(-1)}
	//lint:allow loopcheck -- test-only oracle, hard-capped at n ≤ 24 subsets above
	for mask := 1; mask < 1<<uint(n); mask++ {
		var S []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				S = append(S, v)
			}
		}
		if rho := g.AverageDegreeOf(S); rho > best.Density {
			best = Result{S: S, Density: rho}
		}
	}
	return best
}
