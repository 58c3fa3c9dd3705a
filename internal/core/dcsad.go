// Package core implements the algorithms of "Mining Density Contrast
// Subgraphs" (Yang et al., ICDE 2018): DCSGreedy for the average-degree
// variant (DCSAD, Section IV) and the SEACD / Refinement / NewSEA family for
// the graph-affinity variant (DCSGA, Section V), together with the original
// SEA algorithm of Liu et al. used as the paper's baseline.
//
// Every algorithm consumes a difference graph GD (see graph.Difference); edge
// weights may be negative. Density conventions follow the paper exactly:
// W(S) counts each undirected edge once per direction, so ρ(S) = W(S)/|S| is
// the average weighted degree and a unit-weight k-clique has ρ = k−1.
package core

import (
	"context"
	"sort"

	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
)

// ADResult is the outcome of a DCSAD computation.
type ADResult struct {
	S              []int   // the density contrast subgraph, increasing order
	Density        float64 // ρ_D(S) = W_D(S)/|S|, the density difference
	TotalWeight    float64 // W_D(S), the paper's total edge weight difference
	EdgeDensity    float64 // W_D(S)/|S|², edge-density difference
	Ratio          float64 // data-dependent approximation ratio β = 2ρ_{D+}(S2)/ρ_D(S)
	PositiveClique bool    // is GD(S) a positive clique?
	Connected      bool    // is GD(S) connected? (always true for DCSGreedy)
	// Interrupted marks a cancelled run: S is the best subgraph found before
	// the cancellation. All metrics above still describe S exactly; only the
	// approximation certificate is lost (Ratio is then 0, since the Theorem 2
	// bound needs a completed greedy pass over GD+).
	Interrupted bool
}

func newADResult(gd *graph.Graph, S []int, ratio float64) ADResult {
	sorted := make([]int, len(S))
	copy(sorted, S)
	sort.Ints(sorted)
	w, density, edgeDensity := gd.SubgraphMetrics(sorted)
	return ADResult{
		S:              sorted,
		Density:        density,
		TotalWeight:    w,
		EdgeDensity:    edgeDensity,
		Ratio:          ratio,
		PositiveClique: gd.IsPositiveClique(sorted),
		Connected:      gd.IsConnected(sorted),
	}
}

// DCSGreedy is Algorithm 2 of the paper: the O(n)-approximation for DCSAD
// with a data-dependent ratio. Given the difference graph GD it
//
//  1. returns a single vertex when GD has no positive edge (optimum is 0);
//  2. otherwise considers three candidates — the maximum-weight edge
//     (a 1/(n−1)-optimal solution), Greedy(GD) and Greedy(GD+) — and keeps
//     the one with the highest density in GD;
//  3. refines a disconnected winner to its best connected component
//     (Property 1 guarantees this never lowers the density);
//  4. reports the data-dependent ratio β = 2ρ_{D+}(S2)/ρ_D(S) (Theorem 2).
//
// Total cost is O((m+n) log n).
func DCSGreedy(gd *graph.Graph) ADResult {
	return dcsGreedyParRS(gd, nil, runstate.New(nil), 1)
}

// DCSGreedyCtx is DCSGreedy with cooperative cancellation and the expensive
// parts spread over at most workers goroutines. When ctx is done the peeling
// stops within one checkpoint interval and the best subgraph seen so far is
// returned, tagged Interrupted (with no approximation certificate); a
// cancelled parallel solve assembles it from the completed peel prefixes.
// With workers > 1 the Greedy(GD) and Greedy(GD+) peels run concurrently,
// and each peel fans its connected components out on the worker pool (see
// densest.GreedyParRS). The candidate comparison, component refinement and
// certificate arithmetic stay sequential, so the result is bitwise identical
// to DCSGreedy at every degree; workers ≤ 1 is exactly DCSGreedy.
func DCSGreedyCtx(ctx context.Context, gd *graph.Graph, workers int) ADResult {
	return dcsGreedyParRS(gd, nil, runstate.New(ctx), workers)
}

// dcsGreedyParRS runs Algorithm 2 on gd. gdp is GD+ — any graph whose
// visible rows are exactly gd's positive entries, such as a view over a
// memoized materialization — or nil for gd.PositivePartCompact().
func dcsGreedyParRS(gd, gdp *graph.Graph, rs *runstate.State, workers int) ADResult {
	maxEdge, ok := gd.MaxEdge()
	if !ok || maxEdge.W <= 0 {
		// No positive edge: any single vertex is optimal with density 0.
		if gd.N() == 0 {
			return ADResult{Ratio: 1, PositiveClique: true, Connected: true}
		}
		return newADResult(gd, []int{0}, 1)
	}
	if gdp == nil {
		// Materialize GD+ once (single pass): Greedy makes several full passes
		// over it, which a plain CSR serves without per-edge filtering.
		gdp = gd.PositivePartCompact()
	}

	S := []int{maxEdge.U, maxEdge.V}
	var s1, s2 densest.Result
	workers = par.Workers(workers)
	if workers <= 1 {
		s1 = densest.GreedyParRS(gd, rs, 1)
		s2 = densest.GreedyParRS(gdp, rs, 1)
	} else {
		graphs := [2]*graph.Graph{gd, gdp}
		var out [2]densest.Result
		var cut [2]bool
		par.Run(2, 2, func(i int) {
			wrs := rs.Fork()
			out[i] = densest.GreedyParRS(graphs[i], wrs, workers)
			cut[i] = wrs.Interrupted()
		})
		if cut[0] || cut[1] {
			rs.Cancelled() // latch the caller's state (context is done)
		}
		s1, s2 = out[0], out[1]
	}

	best := S
	bestRho := gd.AverageDegreeOf(S)
	if rho := gd.AverageDegreeOf(s1.S); len(s1.S) > 0 && rho > bestRho {
		best, bestRho = s1.S, rho
	}
	if rho := gd.AverageDegreeOf(s2.S); len(s2.S) > 0 && rho > bestRho {
		best, bestRho = s2.S, rho
	}
	if !gd.IsConnected(best) {
		best, bestRho = gd.BestComponent(best)
	}
	ratio := 2 * s2.Density / bestRho // ρ_{D+}(S2) is s2's density in GD+
	if rs.Interrupted() {
		// A truncated greedy pass voids the Theorem 2 certificate: s2 may
		// stop short of the density a full peel would certify against.
		ratio = 0
	}
	res := newADResult(gd, best, ratio)
	res.Interrupted = rs.Interrupted()
	return res
}

// GreedyGDOnly runs plain greedy peeling (Algorithm 1) on GD alone and
// evaluates the result in GD — the "GD only" column of Tables X and XII.
func GreedyGDOnly(gd *graph.Graph) ADResult {
	res := densest.Greedy(gd)
	return newADResult(gd, res.S, 0)
}

// GreedyGDPlusOnly runs greedy peeling on GD+ and evaluates the resulting set
// in GD — the "GD+ only" column of Tables X and XII.
func GreedyGDPlusOnly(gd *graph.Graph) ADResult {
	res := densest.Greedy(gd.PositivePartCompact())
	return newADResult(gd, res.S, 0)
}

// BruteForceAD scans all non-empty subsets for the true DCSAD optimum.
// Exponential; test oracle for graphs with n ≤ 24.
func BruteForceAD(gd *graph.Graph) ADResult {
	res := densest.BruteForce(gd)
	return newADResult(gd, res.S, 1)
}

// ExactUpperBoundRatio tightens a DCSGreedy result's approximation
// certificate: instead of Theorem 2's bound 2ρ_{D+}(S2) (twice the greedy
// density on GD+), it computes the *exact* maximum density ρ*_{D+} of GD+
// with Goldberg's min-cut algorithm — polynomial because GD+ has no negative
// weights — and returns β* = ρ*_{D+}/ρ_D(S). Since ρ_D(S') ≤ ρ_{D+}(S') ≤
// ρ*_{D+} for every S', the optimum of DCSAD is at most β*·ρ_D(S), and
// β* ≤ β always. The price is a max-flow computation per binary-search probe,
// so this is an offline certificate rather than part of the mining loop.
// Returns 1 when the result's density is 0 (the no-positive-edge case, where
// DCSGreedy is exactly optimal).
func ExactUpperBoundRatio(gd *graph.Graph, res ADResult) float64 {
	if res.Density <= 0 {
		return 1
	}
	// Materialized GD+: Exact scans its edges once per binary-search probe.
	exact := densest.Exact(gd.PositivePartCompact())
	beta := exact.Density / res.Density
	if beta < 1 {
		// Numerical guard: the witness itself proves OPT ≥ ρ_D(S).
		beta = 1
	}
	return beta
}
