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
	"sync/atomic"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/maxflow"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
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
// average degree. Runs in O((m+n) log n) using an indexed heap; g may be a
// view.
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
//
// All three phases run on one pooled workspace (workspace.go) that reads g's
// CSR rows directly and honours a view's masks on every read, so a view is
// peeled as is; a warm call allocates only the returned vertex set.
func GreedyParRS(g *graph.Graph, rs *runstate.State, workers int) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	ws := acquireWorkspace()
	ws.grow(n)
	res := ws.greedy(g, rs, workers)
	ws.release()
	return res
}

// greedy is GreedyParRS on ws; it leaves every pos slot −1.
func (ws *workspace) greedy(g *graph.Graph, rs *runstate.State, workers int) Result {
	n := g.N()
	ws.g = g.Rows()
	nc, ok := ws.components(n, rs)
	if !ok {
		// Cancelled during component discovery: fall back to the degenerate
		// single-vertex answer of Algorithm 2 (density 0), never empty.
		return Result{S: []int{0}}
	}
	workers = par.Workers(workers)
	if workers <= 1 || nc < 2 {
		// Inline: rs is used directly, preserving its amortization counter and
		// latching interruption on the caller's state. A cancelled run still
		// visits every component, so each contributes its total degree.
		for c := 0; c < nc; c++ {
			ws.peel(c, rs)
		}
	} else {
		ws.peelPar(n, nc, rs, workers)
	}
	return ws.mergePeels(n, nc, rs)
}

// compPeel is one component's recorded peel: its initial total degree and
// how many removals its segment of members/popDeg holds — short of the
// component size when the peel was cancelled. next is the merge's cursor.
type compPeel struct {
	td   float64
	pops int32
	next int32
}

// components partitions all n vertices (masked and isolated ones form
// singleton components) into connected components, writing them to members
// grouped by component and delimited by start. Members are ascending within
// a component and components are ordered by smallest member — both facts the
// peel and merge rely on for deterministic tie-breaking. A run cancelled
// mid-sweep reports false: a partial partition would mis-route the peel.
func (ws *workspace) components(n int, rs *runstate.State) (nc int, ok bool) {
	cid := ws.cid[:n]
	for i := range cid {
		cid[i] = -1
	}
	// Every vertex is pushed at most once, so an n-slot stack never overflows.
	stack := ws.stack[:n]
	id := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if rs.Checkpoint() {
			return 0, false
		}
		if cid[v] >= 0 {
			continue
		}
		cid[v] = id
		stack[0] = v
		//lint:allow loopcheck -- one traversal per component; the outer sweep checkpoints once per vertex
		for top := 1; top > 0; {
			top--
			u := stack[top]
			if ws.g.Dropped(u) {
				continue
			}
			ids, wts := ws.g.Row(u)
			for i, t := range ids {
				if ws.g.Visible(t, wts[i]) && cid[t] < 0 {
					cid[t] = id
					stack[top] = t
					top++
				}
			}
		}
		id++
	}
	// Counting sort by component id. Counts go to start[c+2]; the prefix sum
	// turns start[c+1] into c's first slot, which then serves as c's fill
	// cursor and ends as c's end — the start of c+1.
	start := ws.start[:id+2]
	clear(start)
	for _, c := range cid {
		start[c+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for v, c := range cid {
		ws.members[start[c+1]] = int32(v)
		start[c+1]++
	}
	return int(id), true
}

// peel runs the heap peel of component c on its own segment of the arenas:
// the heap is built from the member list, which the removal order then
// overwrites. One checkpoint per pop, exactly like the classic single-heap
// loop; a cancelled peel returns its unpopped pos slots to −1.
func (ws *workspace) peel(c int, rs *runstate.State) {
	lo, hi := ws.start[c], ws.start[c+1]
	order := ws.members[lo:hi]
	popDeg := ws.popDeg[lo:hi]
	hp := peelHeap{h: ws.heap[lo:hi], pos: ws.pos}
	var td float64
	//lint:allow loopcheck -- one O(vol C) degree pass; it must complete even when cancelled, since the merge needs every component's full total degree
	for i, v := range order {
		d := ws.degree(v)
		td += d
		hp.h[i] = entry{key: d, v: v}
	}
	hp.init()
	pops := 0
	for len(hp.h) > 0 {
		if rs.Checkpoint() {
			break
		}
		e := hp.popMin()
		order[pops], popDeg[pops] = e.v, e.key
		pops++
		if ws.g.Dropped(e.v) {
			continue
		}
		ids, wts := ws.g.Row(e.v)
		for i, t := range ids {
			// Visibility first: a hidden entry may point into another
			// component, whose pos slots belong to another worker.
			if w := wts[i]; ws.g.Visible(t, w) {
				if s := ws.pos[t]; s >= 0 {
					hp.lower(s, w)
				}
			}
		}
	}
	for _, e := range hp.h {
		ws.pos[e.v] = -1
	}
	ws.peels[c] = compPeel{td: td, pops: int32(pops)}
}

// peelPar fans the component peels out over the worker pool. Components are
// cut into contiguous runs of about n/(4·workers) vertices, so a graph of
// many tiny components costs a few tasks rather than one per component, and
// each task forks the run state once.
func (ws *workspace) peelPar(n, nc int, rs *runstate.State, workers int) {
	target := int32(n/(4*workers) + 1)
	bounds := make([]int, 1, 4*workers+2)
	for c := 0; c < nc; c++ {
		if ws.start[c+1]-ws.start[bounds[len(bounds)-1]] >= target || c == nc-1 {
			bounds = append(bounds, c+1)
		}
	}
	var cut atomic.Bool
	par.Run(workers, len(bounds)-1, func(k int) {
		// A State is single-goroutine; fork one per task. Fork only reads
		// the immutable done channel, so concurrent forks are safe.
		wrs := rs.Fork()
		for c := bounds[k]; c < bounds[k+1]; c++ {
			ws.peel(c, wrs)
		}
		if wrs.Interrupted() {
			cut.Store(true)
		}
	})
	if cut.Load() {
		// A worker can only observe cancellation after the context is done,
		// so this poll latches the caller's state too.
		rs.Cancelled()
	}
}

// mergePeels replays the global peel from the per-component records: a k-way
// merge by (pop-time degree, vertex id) — the global heap's priority — while
// tracking W(S) and the best prefix density exactly as the classic loop did.
// Cancellation stops the replay and keeps the best prefix evaluated so far —
// the same contract as a peel cut short.
func (ws *workspace) mergePeels(n, nc int, rs *runstate.State) Result {
	peels := ws.peels[:nc]
	// W(S) in the paper convention is the sum of in-subgraph weighted degrees;
	// summed in component order, deterministically at every degree.
	var totalDeg float64
	for i := range peels {
		totalDeg += peels[i].td
	}
	// Min-heap of component indices keyed by their front pop.
	front := func(c int32) (float64, int32) {
		i := ws.start[c] + peels[c].next
		return ws.popDeg[i], ws.members[i]
	}
	less := func(a, b int32) bool {
		da, va := front(a)
		db, vb := front(b)
		if da != db {
			return da < db
		}
		return va < vb
	}
	heap := ws.merge[:0]
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
		if peels[c].pops > 0 {
			heap = append(heap, int32(c))
			siftUp(len(heap) - 1)
		}
	}

	bestDensity := math.Inf(-1)
	bestSize := 0
	// The discovery stack is free again; it records the global removal order.
	removed := ws.stack[:0]
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
			break // after ≥1 evaluation, so bestSize is set and the keep marks are consistent
		}
		c := heap[0]
		dv, v := front(c)
		peels[c].next++
		removed = append(removed, v)
		// Removing v: v's degree leaves W once, and every remaining neighbor
		// loses w(u,v) from its degree — so W(S) drops by 2·dv in total.
		totalDeg -= 2 * dv
		if peels[c].next >= peels[c].pops {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
		size--
	}
	// The best prefix keeps the vertices *not yet removed* when |S| == bestSize,
	// i.e. everything except the first n-bestSize removals. Component ids are
	// no longer needed, so cid doubles as the mark: −1 = removed.
	cid := ws.cid[:n]
	for _, v := range removed[:n-bestSize] {
		cid[v] = -1
	}
	S := make([]int, 0, bestSize)
	for v, c := range cid {
		if c >= 0 {
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
