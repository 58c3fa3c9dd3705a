package core

import (
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// Refine is Algorithm 4: improve a KKT point x (found on GD+) into a
// *positive-clique solution* — an embedding whose support induces a clique in
// GD+, i.e. a clique of GD all of whose edges are positive.
//
// Following the constructive proof of Theorem 5: while the support is not a
// clique, pick a non-adjacent pair (u, v) in the support, transfer all of v's
// mass onto u (objective unchanged — at a local KKT point both share the same
// gradient, and with D+(u,v) = 0 the objective is linear in the transfer),
// then re-descend to a local KKT point on the shrunken support (objective
// non-decreasing). The support loses at least one vertex per step, so the
// loop terminates after at most |Sx| steps.
//
// The graph must be GD+ (non-negative weights); absence of an edge is what
// "not adjacent" means. x is mutated in place. Returns the number of
// vertex-removal steps.
func Refine(gdp *graph.Graph, x *simplex.Vector, opt GAOptions) int {
	var steps int
	onWorkspace(x, func(ws *simplex.Workspace) { steps = refineRS(gdp, ws, opt, runstate.New(nil)) })
	return steps
}

func refineRS(gdp *graph.Graph, ws *simplex.Workspace, opt GAOptions, rs *runstate.State) int {
	opt = opt.withDefaults()
	steps := 0
	for {
		if rs.Checkpoint() {
			return steps // cancelled: x may not be a positive clique yet
		}
		u, v, ok := firstNonAdjacentPair(gdp, ws.Support())
		if !ok {
			return steps // support is a clique in GD+
		}
		steps++
		// Merge v's mass into u. With D+(u,v) = 0 the objective changes by
		// Δ = 2·x_v·((Dx)_u − (Dx)_v), which is ≥ −ε at an ε-local-KKT point;
		// transfer toward the larger gradient so the move is non-decreasing
		// even at finite precision.
		if ws.DxEntry(gdp, u) < ws.DxEntry(gdp, v) {
			u, v = v, u
		}
		ws.Set(u, ws.Get(u)+ws.Get(v))
		ws.Set(v, 0)
		S := ws.WorkingSet()
		eps := opt.EpsBase / float64(max(len(S), 1))
		coordinateDescent(gdp, ws, S, eps, opt.MaxShrinkIter, rs)
	}
}

// pruneTiny removes numerically negligible support entries left behind by
// finite-precision coordinate descent: vertices carrying less than 0.1% of
// the largest entry's mass sit on the boundary of the optimum (their true
// weight is 0) and only add noise to the reported support. After dropping
// them the embedding is renormalized and re-descended to a local KKT point on
// the smaller support, so the objective change is O(ε).
func pruneTiny(gdp *graph.Graph, ws *simplex.Workspace, opt GAOptions, rs *runstate.State) {
	opt = opt.withDefaults()
	for {
		if rs.Checkpoint() {
			return
		}
		supp := ws.Support()
		var maxE float64
		for _, u := range supp {
			if xu := ws.Get(u); xu > maxE {
				maxE = xu
			}
		}
		thr := 1e-3 * maxE
		drop := 0
		for _, u := range supp {
			if ws.Get(u) < thr {
				drop++
			}
		}
		if drop == 0 || drop >= len(supp) {
			return
		}
		for _, u := range supp {
			if ws.Get(u) < thr {
				ws.Set(u, 0)
			}
		}
		ws.Normalize()
		S := ws.WorkingSet()
		eps := opt.EpsBase / float64(max(len(S), 1))
		coordinateDescent(gdp, ws, S, eps, opt.MaxShrinkIter, rs)
	}
}

// firstNonAdjacentPair returns a pair of distinct support vertices with no
// edge between them in gdp, preferring pairs involving the weakest-connected
// vertex so refinement tends to peel marginal vertices first.
func firstNonAdjacentPair(gdp *graph.Graph, S []int) (u, v int, ok bool) {
	//lint:allow loopcheck -- support-sized O(|S|²) scan between Refine's per-round checkpoints; |S| is a clique candidate, not graph-scale
	for i := 0; i < len(S); i++ {
		for j := i + 1; j < len(S); j++ {
			if gdp.Weight(S[i], S[j]) == 0 {
				return S[i], S[j], true
			}
		}
	}
	return 0, 0, false
}
