package core

import (
	"math"
	"slices"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// GAOptions tunes the DCSGA solvers. The zero value selects the defaults the
// paper uses in its experiments (Section VI-A).
type GAOptions struct {
	// EpsBase controls the shrink-stage convergence condition
	// max_{k∈S} ∇k − min_{k∈S} ∇k ≤ EpsBase·(1/|S|); the paper sets 10⁻².
	EpsBase float64
	// MaxShrinkIter bounds 2-CD iterations per shrink stage. Default 200000.
	MaxShrinkIter int
	// MaxRounds bounds shrink+expansion rounds per initialization. Default 200.
	MaxRounds int
	// ReplicatorEps is the (intentionally faithful, intentionally flawed)
	// convergence condition of the original SEA baseline: stop the replicator
	// dynamic when the objective improves by less than this. Default 10⁻⁶.
	ReplicatorEps float64
	// MaxReplicatorIter bounds replicator iterations per shrink stage.
	// Default 20000.
	MaxReplicatorIter int
	// Parallelism is the number of worker goroutines used by the
	// multi-initialization drivers (SEACDRefineFull, SEARefineFull,
	// CollectCliques) and by NewSEA's smart-initialization loop, which runs
	// speculative batches of inits and commits them under the sequential
	// pruning rule (see newSEAPar). 0 or 1 means sequential; results are
	// bitwise identical at every degree. Degrees above GOMAXPROCS are capped.
	Parallelism int
}

func (o GAOptions) withDefaults() GAOptions {
	if o.EpsBase == 0 {
		o.EpsBase = 1e-2
	}
	if o.MaxShrinkIter == 0 {
		o.MaxShrinkIter = 200000
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 200
	}
	if o.ReplicatorEps == 0 {
		o.ReplicatorEps = 1e-6
	}
	if o.MaxReplicatorIter == 0 {
		o.MaxReplicatorIter = 20000
	}
	return o
}

// GAStats aggregates work and error counters across one solver run.
type GAStats struct {
	Inits           int // SEACD/SEA initializations performed
	ShrinkIters     int // total shrink-stage iterations (2-CD or replicator)
	Expansions      int // expansion operations performed
	ExpansionErrors int // expansions after which the objective *decreased*
	RefineSteps     int // vertex-removal steps spent in Refinement
}

func (s *GAStats) add(o GAStats) {
	s.Inits += o.Inits
	s.ShrinkIters += o.ShrinkIters
	s.Expansions += o.Expansions
	s.ExpansionErrors += o.ExpansionErrors
	s.RefineSteps += o.RefineSteps
}

// shrinkFunc runs one shrink stage on the working set S, mutating the
// workspace embedding toward a local KKT point, and returns the iterations
// spent. rs carries the run's cancellation checkpoint into the iteration loop.
type shrinkFunc func(g *graph.Graph, ws *simplex.Workspace, S []int, opt GAOptions, rs *runstate.State) int

// cdShrink is the paper's 2-coordinate-descent shrink stage with the correct
// convergence condition max∇ − min∇ ≤ EpsBase/|S|.
func cdShrink(g *graph.Graph, ws *simplex.Workspace, S []int, opt GAOptions, rs *runstate.State) int {
	eps := opt.EpsBase / float64(max(len(S), 1))
	return coordinateDescent(g, ws, S, eps, opt.MaxShrinkIter, rs)
}

// replicatorShrink is the original SEA shrink stage (Appendix A, Eq. 12):
// xi(t+1) = xi(t)·(Dx)_i / xᵀDx, restricted to S, with the baseline's loose
// convergence condition f(x) − f(x_old) ≤ ReplicatorEps. Requires D ≥ 0 on S
// (the replicator breaks on negative entries — the very reason the paper
// introduces coordinate descent). The loose condition is faithful to [18] and
// is what produces the expansion errors Table VII reports.
//
// S is marked in the workspace's InS; each iteration stages the next x_u in
// Dx[u] (all of them are needed before the first one may overwrite x) and
// then applies the normalized values in place.
func replicatorShrink(g *graph.Graph, ws *simplex.Workspace, S []int, opt GAOptions, rs *runstate.State) int {
	for _, u := range S {
		ws.InS[u] = true
	}
	iters := 0
	f := ws.Affinity(g)
	for iters < opt.MaxReplicatorIter {
		if f <= 0 {
			break // dynamic undefined (single vertex / no positive mass pairs)
		}
		if rs.Checkpoint() {
			break
		}
		iters++
		var sum float64
		supp := ws.Support()
		for _, u := range supp {
			if !ws.InS[u] {
				continue
			}
			var dxu float64
			g.VisitNeighbors(u, func(v int, w float64) {
				dxu += w * ws.Get(v)
			})
			if v := ws.Get(u) * dxu / f; v > 0 {
				ws.Dx[u] = v
				sum += v
			}
		}
		if sum <= 0 {
			break
		}
		// Normalize: the replicator preserves Σx=1 exactly in theory; guard
		// against floating-point drift. Vertices outside S or with no
		// positive next value stage 0 and leave the support.
		for _, u := range supp {
			v := ws.Dx[u]
			ws.Dx[u] = 0
			ws.Set(u, v/sum)
		}
		fNew := ws.Affinity(g)
		if fNew-f <= opt.ReplicatorEps {
			f = fNew
			break
		}
		f = fNew
	}
	for _, u := range S {
		ws.InS[u] = false
	}
	return iters
}

// expandResult reports one expansion operation.
type expandResult struct {
	expanded bool // Z was non-empty and x moved
	errored  bool // the objective decreased after the move
}

// expand performs the SEA Expansion operation (Appendix A) around the current
// point x: find Z = {i | ∇i f(x) > 2f(x)}, build the direction
//
//	b_i = −x_i·s (i ∈ Sx\Z),  b_i = γ_i (i ∈ Z),  γ_i = (Dx)_i − f(x),
//
// and move x ← x + τb with the step τ = 1/s if a ≤ 0, else min{1/s, ζ/a},
// where s = Σγ, ζ = Σγ², ω = Σ_{i,j∈Z} γiγj·D(i,j) and a = f·s² + 2sζ − ω.
//
// (The appendix of the paper contains two sign typos — the linear term of
// f(x+τb)−f(x) is +2ζτ, and the capped step is ζ/a, not −1/a; both follow
// from expanding the quadratic form, see the derivation in the tests.)
//
// Correctness of the step hinges on x being a *local KKT point* on its
// support: then every support vertex has (Dx)_u ≤ f + kktTol and Z is
// disjoint from the support, which makes f(x+τb) − f(x) = 2ζτ − aτ² exact and
// non-negative at the chosen τ. When the shrink stage stops short of a local
// KKT point (the original SEA's loose convergence condition), support
// vertices leak into Z, the quadratic model is wrong, and the objective can
// *decrease* — exactly the "errors in Expansion" that Section V-C and
// Table VII report for SEA+Refine. kktTol must be the precision the shrink
// stage actually guarantees.
//
// The boundary sums (Dx)_i accumulate in the workspace's Acc over the marked
// set Touched = Sx ∪ N(Sx); Z and γ live in InZ, Z and Gamma. All of them are
// cleared again before expand returns.
func expand(g *graph.Graph, ws *simplex.Workspace, kktTol float64, rs *runstate.State) expandResult {
	defer clearExpand(ws)
	f := ws.Affinity(g)
	// (Dx)_i for every vertex touching the support, plus the support itself.
	touch := func(v int) {
		if !ws.InS[v] {
			ws.InS[v] = true
			ws.Touched = append(ws.Touched, v)
		}
	}
	supp := ws.Support()
	for _, u := range supp {
		if rs.Checkpoint() {
			return expandResult{} // nothing moved yet, as on the bail below
		}
		xu := ws.Get(u)
		touch(u)
		ws.Acc[u] += 0
		g.VisitNeighbors(u, func(v int, w float64) {
			touch(v)
			ws.Acc[v] += w * xu
		})
	}
	if kktTol < 1e-12 {
		kktTol = 1e-12 // numeric floor so round-off never triggers expansion
	}
	for _, i := range ws.Touched {
		if dxi := ws.Acc[i]; dxi > f+kktTol {
			ws.Z = append(ws.Z, i)
			ws.InZ[i] = true
			ws.Gamma[i] = dxi - f
		}
	}
	zs := ws.Z
	if len(zs) == 0 {
		return expandResult{}
	}
	// Deterministic accumulation order: the γ sums below must not inherit the
	// discovery order of Touched, or round-off makes results depend on it.
	slices.Sort(zs)
	gamma := ws.Gamma
	var s, zeta float64
	for _, i := range zs {
		s += gamma[i]
		zeta += gamma[i] * gamma[i]
	}
	var omega float64
	for _, i := range zs {
		if rs.Checkpoint() {
			// Bail before any mutation of x: the caller sees "not expanded"
			// and unwinds with the current (valid) KKT-point embedding.
			return expandResult{}
		}
		g.VisitNeighbors(i, func(v int, w float64) {
			if ws.InZ[v] {
				omega += gamma[i] * gamma[v] * w
			}
		})
	}
	a := f*s*s + 2*s*zeta - omega
	var tau float64
	if a <= 0 {
		tau = 1 / s
	} else {
		tau = math.Min(1/s, zeta/a)
	}
	// Apply x ← x + τb.
	shrinkFactor := 1 - tau*s
	for _, u := range supp {
		if !ws.InZ[u] {
			ws.Set(u, ws.Get(u)*shrinkFactor)
		}
	}
	for _, i := range zs {
		ws.Set(i, ws.Get(i)+tau*gamma[i])
	}
	// With Z disjoint from the support the direction sums to zero and x stays
	// on the simplex; with overlap (non-KKT shrink output) it drifts —
	// project back by renormalizing.
	if sum := ws.Sum(); sum > 0 && math.Abs(sum-1) > 1e-15 {
		for _, u := range ws.Support() {
			ws.Set(u, ws.Get(u)/sum)
		}
	}
	fNew := ws.Affinity(g)
	if fNew < f-1e-12*(1+math.Abs(f)) {
		// Objective decreased: the "error in Expansion" counted in Table VII.
		// Faithful to the baseline, the move is kept, only counted.
		return expandResult{expanded: true, errored: true}
	}
	return expandResult{expanded: true}
}

// clearExpand returns the expansion's scratch in ws to zero.
func clearExpand(ws *simplex.Workspace) {
	for _, v := range ws.Touched {
		ws.InS[v] = false
		ws.Acc[v] = 0
	}
	for _, i := range ws.Z {
		ws.InZ[i] = false
		ws.Gamma[i] = 0
	}
	ws.Touched, ws.Z = ws.Touched[:0], ws.Z[:0]
}

// seaLoop is the shared shrink-and-expand skeleton of Algorithm 3: run the
// supplied shrink stage toward a local KKT point on the current working set,
// expand by Z, and repeat until Z is empty. kktTol maps the working-set size
// to the gradient precision the shrink stage guarantees; the expansion uses
// it to decide membership in Z. It mutates x and returns per-init statistics.
// Cancellation (rs) stops the loop between rounds, inside the shrink stage,
// and inside the expansion's boundary sweep (which bails before mutating x).
func seaLoop(g *graph.Graph, ws *simplex.Workspace, shrink shrinkFunc, kktTol func(sz int) float64, opt GAOptions, rs *runstate.State) GAStats {
	var st GAStats
	for round := 0; round < opt.MaxRounds; round++ {
		if rs.Checkpoint() {
			break
		}
		S := ws.WorkingSet()
		st.ShrinkIters += shrink(g, ws, S, opt, rs)
		if rs.Interrupted() {
			break // shrink stopped mid-descent: skip the unsafe expansion
		}
		res := expand(g, ws, kktTol(len(S)), rs)
		if res.expanded {
			st.Expansions++
			if res.errored {
				st.ExpansionErrors++
			}
			continue
		}
		break
	}
	return st
}

// SEACD is Algorithm 3: coordinate-descent shrink-and-expansion from the
// initial embedding x (mutated in place) on graph g, converging to a KKT
// point of max xᵀDx over the simplex. The graph is normally GD+; the
// algorithm itself tolerates negative weights (unlike the replicator).
func SEACD(g *graph.Graph, x *simplex.Vector, opt GAOptions) GAStats {
	var st GAStats
	onWorkspace(x, func(ws *simplex.Workspace) { st = seacdRS(g, ws, opt, runstate.New(nil)) })
	return st
}

// onWorkspace runs fn on a fresh workspace loaded with x and writes the
// result back into x: the adapter behind the exported single-run entry points.
func onWorkspace(x *simplex.Vector, fn func(ws *simplex.Workspace)) {
	ws := simplex.NewWorkspace(x.N())
	ws.Load(x)
	fn(ws)
	*x = *ws.Vector()
}

func seacdRS(g *graph.Graph, ws *simplex.Workspace, opt GAOptions, rs *runstate.State) GAStats {
	opt = opt.withDefaults()
	// The coordinate-descent shrink guarantees max∇−min∇ ≤ EpsBase/|S| on the
	// working set; since f is a convex combination of the support gradients,
	// no support vertex can exceed f by more than that — expansion is safe.
	st := seaLoop(g, ws, cdShrink, func(sz int) float64 {
		return opt.EpsBase / float64(max(sz, 1))
	}, opt, rs)
	st.Inits = 1
	return st
}

// SEA is the original algorithm of Liu et al. [18] with the replicator-based
// shrink stage and its loose convergence condition, used as the paper's
// baseline. Run it on GD+ only (non-negative weights).
func SEA(g *graph.Graph, x *simplex.Vector, opt GAOptions) GAStats {
	var st GAStats
	onWorkspace(x, func(ws *simplex.Workspace) { st = seaRS(g, ws, opt, runstate.New(nil)) })
	return st
}

func seaRS(g *graph.Graph, ws *simplex.Workspace, opt GAOptions, rs *runstate.State) GAStats {
	opt = opt.withDefaults()
	// The replicator's improvement-based stop gives no gradient guarantee at
	// all; the original implementation still tests Z membership at (roughly)
	// its objective precision. When the dynamic stalls far from a local KKT
	// point, support vertices leak into Z and the expansion can reduce the
	// objective — the error counted in Table VII.
	st := seaLoop(g, ws, replicatorShrink, func(int) float64 {
		return opt.ReplicatorEps
	}, opt, rs)
	st.Inits = 1
	return st
}
