package evolve

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/graph"
)

// maxRegion bounds the warm-start region: a delta whose one-hop reach (plus
// the previous subgraph) exceeds this is no longer local, and a full scratch
// solve is both safer and barely slower than mining the region.
func maxRegion(n int) int {
	if r := n / 2; r > 64 {
		return r
	}
	return 64
}

// validateDelta mirrors graph.ApplyDelta's input rules but reports errors
// instead of panicking — the tracker's delta entry point faces network input.
func validateDelta(n int, delta []graph.Edge) error {
	for _, e := range delta {
		if e.U == e.V {
			return fmt.Errorf("evolve: delta self-loop on vertex %d", e.U)
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("evolve: delta edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("evolve: delta edge (%d,%d) has non-finite weight", e.U, e.V)
		}
	}
	return nil
}

// ObserveDelta applies an edge delta to the previous observation (ApplyDelta
// semantics: each entry sets an edge's weight, 0 removes, last duplicate
// wins) and runs one tick of the incremental engine. See ObserveDeltaCtx.
//
//lint:allow ctxflow -- non-Ctx shim: never-cancelled root context; callers that need cancellation use the Ctx form
func (t *Tracker) ObserveDelta(delta []graph.Edge) (Report, error) {
	return t.ObserveDeltaCtx(context.Background(), delta)
}

// ObserveDeltaCtx is the delta-native observation path. Instead of rebuilding
// the difference graph, it advances the maintained one in O(k) for a k-edge
// delta, then mines it one of two ways:
//
//   - Incremental (the common case): only the region the delta can have
//     moved the answer through — the previous subgraph, the delta's
//     vertices, and their difference-graph neighbors — is extracted and
//     solved, warm-started from the previous subgraph
//     (core.DCSGreedyWarmCtx / core.NewSEAWarmCtx). Everything outside the
//     region decayed uniformly since last tick, so relative densities there
//     are unchanged and the argmax can only have shifted through the delta.
//   - Scratch: the full maintained difference graph is solved exactly like a
//     snapshot tick. This happens on the first delta tick after New/Restore
//     or an interrupted solve (no trustworthy prior — a completed snapshot
//     tick's global solve, by contrast, remains a valid prior), every
//     Config.ResyncEvery-th delta tick, when the
//     region outgrows locality, and — the drift rule — whenever the
//     incremental answer would flip the anomaly verdict, which is re-checked
//     globally before being reported.
//
// Cancellation behaves as in ObserveCtx: the report carries the best partial
// answer with Interrupted set, and the delta is folded into the expectation
// either way.
func (t *Tracker) ObserveDeltaCtx(ctx context.Context, delta []graph.Edge) (Report, error) {
	if err := validateDelta(t.n, delta); err != nil {
		return Report{}, err
	}
	t.obsMu.Lock()
	defer t.obsMu.Unlock()

	t.mu.Lock()
	if t.mt == nil {
		// First delta tick of this epoch: seed the maintainer from the
		// materialized state (one O(m) pass, amortized over the stream).
		t.mt = graph.NewMaintainer(t.expect, t.last, t.cfg.Lambda)
		t.expect, t.last = nil, nil
	}
	mt := t.mt
	touched := mt.BeginTick(delta)
	prevS := t.prevS
	prevAnomalous := t.prevAnomalous
	scratch := prevS == nil || t.sinceScratch+1 >= t.cfg.ResyncEvery
	t.mu.Unlock()

	var rep Report
	var solved []int
	if !scratch {
		region, ok := t.warmRegion(mt, prevS, touched)
		if !ok {
			scratch = true
		} else {
			rep, solved = t.mineRegion(ctx, mt, region, prevS)
			// Drift rule: a verdict flip must be confirmed globally —
			// the region solve cannot see a faraway set that crossed
			// the threshold by pure decay, nor certify that the old
			// anomaly has no successor elsewhere.
			if rep.Anomalous() != prevAnomalous {
				scratch = true
			}
		}
	}
	if scratch {
		t.mu.Lock()
		gd := mt.DiffGraph()
		t.mu.Unlock()
		rep, solved = t.mineFull(ctx, gd)
	}

	t.mu.Lock()
	mt.EndTick()
	t.finishTickLocked(&rep, solved, scratch)
	t.mu.Unlock()
	return rep, nil
}

// warmRegion assembles the incremental tick's mining region: the previous
// subgraph, the delta's vertices, and their current difference-graph
// neighbors, sorted. ok is false when the region outgrows maxRegion — the
// delta's reach is no longer local and the caller should solve from scratch.
// The membership marks live in a tracker-owned buffer (ticks are serialized
// on obsMu) so the per-tick hot path allocates only the region slice itself.
func (t *Tracker) warmRegion(mt *graph.Maintainer, prevS, touched []int) (region []int, ok bool) {
	cap := maxRegion(t.n)
	if t.regionMark == nil {
		t.regionMark = make([]bool, t.n)
	}
	in := t.regionMark
	region = make([]int, 0, len(prevS)+4*len(touched))
	add := func(v int) {
		if !in[v] {
			in[v] = true
			region = append(region, v)
		}
	}
	for _, v := range prevS {
		add(v)
	}
	for _, v := range touched {
		add(v)
	}
	for _, u := range touched {
		mt.VisitDiffNeighbors(u, func(v int, _ float64) { add(v) })
		if len(region) > cap {
			break
		}
	}
	for _, v := range region {
		in[v] = false
	}
	if len(region) > cap {
		return nil, false
	}
	sort.Ints(region)
	return region, true
}

// mineRegion solves the induced difference subgraph on region, warm-started
// from prevS (⊆ region by construction), and maps the answer back to the
// tracker's vertex ids. Densities and affinities on the induced graph equal
// those of the mapped sets on the full difference graph, since the induced
// subgraph keeps every edge among region members.
func (t *Tracker) mineRegion(ctx context.Context, mt *graph.Maintainer, region, prevS []int) (rep Report, solved []int) {
	ind, orig := mt.DiffInduced(region)
	prior := localize(region, prevS)
	rep.Mode = ModeIncremental
	if t.cfg.GA {
		res, hit := core.NewSEAWarmCtx(ctx, ind, prior, t.cfg.Opt)
		rep.Interrupted = res.Interrupted
		rep.WarmHit = hit
		solved = mapBack(orig, res.S)
		if res.Affinity > t.cfg.MinDensity {
			rep.S = solved
			rep.Contrast = res.Density
			rep.Affinity = res.Affinity
		}
		return rep, solved
	}
	res, hit := core.DCSGreedyWarmCtx(ctx, ind, prior)
	rep.Interrupted = res.Interrupted
	rep.WarmHit = hit
	solved = mapBack(orig, res.S)
	if res.Density > t.cfg.MinDensity {
		rep.S = solved
		rep.Contrast = res.Density
	}
	return rep, solved
}

// localize translates tracker vertex ids into region-local ids (region is
// sorted and must contain every id).
func localize(region, S []int) []int {
	out := make([]int, len(S))
	for i, v := range S {
		out[i] = sort.SearchInts(region, v)
	}
	return out
}

// mapBack translates region-local ids back through orig. Since orig is
// increasing and local is increasing, the result stays sorted.
func mapBack(orig, local []int) []int {
	out := make([]int, len(local))
	for i, v := range local {
		out[i] = orig[v]
	}
	return out
}
