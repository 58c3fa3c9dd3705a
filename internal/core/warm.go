package core

import (
	"context"

	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// DCSGreedyWarmCtx is DCSGreedyCtx with a warm start: alongside Algorithm 2's
// candidates it refines the prior set (the previous streaming tick's
// subgraph) with densest.LocalImprove and keeps whichever answer is denser.
// On a difference graph that has only drifted locally since the prior was
// mined, the refined prior routinely beats the greedy candidates — warmHit
// reports that case, the streaming engine's warm-start hit signal. A
// disconnected warm winner is refined to its best component first (Property 1:
// never lowers the density); the warm candidate carries no Theorem 2
// certificate, so Ratio is 0 when it wins. An empty prior is exactly
// DCSGreedyCtx.
func DCSGreedyWarmCtx(ctx context.Context, gd *graph.Graph, prior []int) (res ADResult, warmHit bool) {
	res = DCSGreedyCtx(ctx, gd, 1)
	if len(prior) == 0 {
		return res, false
	}
	imp := densest.LocalImproveRS(gd, prior, 0, runstate.New(ctx))
	if len(imp.S) == 0 || imp.Density <= res.Density {
		return res, false
	}
	best := imp.S
	if !gd.IsConnected(best) {
		best, _ = gd.BestComponent(best)
	}
	warm := newADResult(gd, best, 0)
	warm.Interrupted = res.Interrupted
	if warm.Density <= res.Density {
		return res, false
	}
	return warm, true
}

// NewSEAWarmCtx is NewSEACtx with a warm start: when the prior set (the
// previous streaming tick's support) is still a positive clique of gd, its
// locally-optimal embedding (CliqueEmbedding) competes with the solver's
// answer and wins ties of structure — warmHit reports a prior that beat every
// fresh initialization. A prior that is no longer a positive clique is
// discarded (its gdp-affinity would overstate the true objective, the same
// honesty rule the interrupted path applies).
func NewSEAWarmCtx(ctx context.Context, gd *graph.Graph, prior []int, opt GAOptions) (res GAResult, warmHit bool) {
	res = NewSEACtx(ctx, gd, opt)
	if len(prior) == 0 || !gd.IsPositiveClique(prior) {
		return res, false
	}
	x := CliqueEmbedding(gd, prior)
	if simplex.Affinity(gd, x) <= res.Affinity {
		return res, false
	}
	warm := newGAResult(gd, x, res.Stats)
	warm.Interrupted = res.Interrupted
	return warm, true
}
