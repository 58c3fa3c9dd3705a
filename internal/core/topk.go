package core

import (
	"context"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// topKHint caps the result capacity reserved before any pick exists: k is
// caller-controlled and the loop usually stops after a few picks, so a
// larger k grows the slice with the picks actually found.
const topKHint = 16

// TopKAverageDegree mines up to k vertex-disjoint density contrast subgraphs
// under the average-degree measure, addressing the paper's stated future-work
// direction ("how to mine multiple subgraphs with big density difference").
//
// It iterates DCSGreedy: find a DCS, record it, strip its vertices from the
// difference graph, and repeat until k subgraphs are found or no subgraph
// with positive density difference remains. Stripping uses WithoutVertices,
// which since the CSR refactor is an O(n) mask flip over shared storage
// rather than an O(n+m) adjacency rebuild — the per-k cost is the DCSGreedy
// run itself. The first result is exactly DCSGreedy's. Because DCSGreedy is
// a heuristic, a later result can occasionally be denser than an earlier one
// (removal changes the peeling order); results are reported in discovery
// order.
func TopKAverageDegree(gd *graph.Graph, k int) []ADResult {
	out, _ := topKAverageDegreeParRS(gd, k, runstate.New(nil), 1)
	return out
}

// TopKAverageDegreeCtx is TopKAverageDegree with cooperative cancellation
// and each DCSGreedy iteration run on at most workers goroutines (see
// DCSGreedyCtx). When ctx is done, the subgraphs already mined are returned
// and interrupted reports the early stop. A DCSGreedy iteration cut mid-peel
// is discarded rather than reported (its partial pick is not comparable to
// the completed ones). The outer loop is inherently sequential — every pick
// depends on the previous strip — so the parallelism lives inside the per-k
// solve; results are bitwise identical to the sequential path at every
// degree.
func TopKAverageDegreeCtx(ctx context.Context, gd *graph.Graph, k, workers int) (results []ADResult, interrupted bool) {
	return topKAverageDegreeParRS(gd, k, runstate.New(ctx), workers)
}

// TopKAverageDegreePar is TopKAverageDegree on at most workers goroutines,
// without cancellation.
func TopKAverageDegreePar(gd *graph.Graph, k, workers int) []ADResult {
	out, _ := topKAverageDegreeParRS(gd, k, runstate.New(nil), workers)
	return out
}

func topKAverageDegreeParRS(gd *graph.Graph, k int, rs *runstate.State, workers int) ([]ADResult, bool) {
	// Every pick holds a positive edge, so there are at most n/2 of them.
	out := make([]ADResult, 0, max(0, min(k, gd.N()/2, topKHint)))
	// GD+ is derived once and stripped alongside GD: (GD∖S)+ and GD+∖S have
	// the same visible rows, so every round peels a view over the first
	// round's GD+ instead of materializing a new one.
	work, workPos := gd, gd.PositivePartCompact()
	for len(out) < k {
		res := dcsGreedyParRS(work, workPos, rs, workers)
		if res.Interrupted {
			// With completed picks in hand, the truncated pick is discarded
			// (not comparable to them). With none, it *is* the best-so-far
			// answer — exactly what DCSGreedyCtx alone would have returned —
			// so an interrupted k=1 call still carries a result.
			if len(out) == 0 && len(res.S) > 0 && res.Density > 0 {
				out = append(out, res)
			}
			return out, true
		}
		if res.Density <= 0 || len(res.S) == 0 {
			break
		}
		// Re-evaluate the subgraph against the *original* difference graph:
		// the vertices are disjoint from earlier picks, so the induced
		// subgraph (and hence every metric) is identical — asserted in tests.
		out = append(out, newADResult(gd, res.S, res.Ratio))
		work = work.WithoutVertices(res.S)
		workPos = workPos.WithoutVertices(res.S)
	}
	// Interrupted() (the latch), not a fresh poll: a cancellation landing
	// after the k-th subgraph completed must not mislabel a full answer.
	return out, rs.Interrupted()
}

// TopKGraphAffinity mines up to k vertex-disjoint positive cliques with the
// largest affinity differences: it runs the full CollectCliques pass once and
// then greedily selects non-overlapping cliques in affinity order. Unlike
// CollectCliques (which may return overlapping topics), the results here are
// disjoint communities.
func TopKGraphAffinity(gd *graph.Graph, k int, opt GAOptions) []Clique {
	out, _ := topKGraphAffinityRS(gd, k, opt, runstate.New(nil))
	return out
}

// TopKGraphAffinityCtx is TopKGraphAffinity with cooperative cancellation;
// interrupted reports that the underlying clique collection stopped early, so
// the selection ran over a partial candidate pool.
func TopKGraphAffinityCtx(ctx context.Context, gd *graph.Graph, k int, opt GAOptions) (results []Clique, interrupted bool) {
	return topKGraphAffinityRS(gd, k, opt, runstate.New(ctx))
}

func topKGraphAffinityRS(gd *graph.Graph, k int, opt GAOptions, rs *runstate.State) ([]Clique, bool) {
	cliques, interrupted := collectCliquesRS(gd, opt, rs)
	taken := make([]bool, gd.N())
	out := make([]Clique, 0, max(0, min(k, len(cliques))))
	for _, c := range cliques {
		if len(out) >= k || rs.Checkpoint() {
			break // greedy selection: any prefix is a valid disjoint top-k'
		}
		overlap := false
		for _, v := range c.S {
			if taken[v] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, v := range c.S {
			taken[v] = true
		}
		out = append(out, c)
	}
	return out, interrupted
}
