// Package egoscan implements the comparison baseline of Section VI-E: the
// EgoScan algorithm of Cadena et al., "On dense subgraphs in signed network
// streams" (ICDM 2016) [6].
//
// EgoScan maximizes the *total* edge-weight difference W_D(S) over S ⊆ V on a
// signed difference graph — not a density. The original algorithm scans the
// ego net of every vertex and rounds a semidefinite-programming relaxation
// inside each ego net.
//
// Substitution note. An SDP solver is far outside this repository's
// stdlib-only scope (and is exactly what made EgoScan slow and memory-hungry
// in the paper's experiments), so this implementation keeps the algorithmic
// skeleton — an ego-net scan with local candidate construction — and replaces
// the SDP rounding with a deterministic greedy grow/prune local search on the
// same objective. The qualitative behaviour the paper reports is preserved:
// the subgraphs found are much larger than any DCS, have far higher total
// weight, and far lower density. The synthetic datasets of internal/datagen
// stand in for the paper's real ones on the same grounds.
//
// A scan runs on one dense workspace indexed by vertex id — membership marks,
// per-vertex gains, a touched list and the sorted member list — allocated
// once per scan and reused by every seed. Scratch is cleared through the
// touched and member lists, so a seed costs O(vol(S) + boundary) per round,
// never O(n), and every gain is summed over the members in increasing id
// order, which makes results bitwise reproducible.
package egoscan

import (
	"cmp"
	"context"
	"slices"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Result is a subgraph maximizing (approximately) the total weight W_D(S).
type Result struct {
	S              []int   // vertex set, increasing order
	TotalWeight    float64 // W_D(S), paper convention (each edge twice)
	Density        float64 // ρ_D(S) for comparison with DCS results
	EdgeDensity    float64 // W_D(S)/|S|²
	PositiveClique bool
	// Interrupted marks a run cancelled mid-scan: S is the best candidate
	// found before the cancellation, not the full scan's winner.
	Interrupted bool
}

// Options tunes the scan.
type Options struct {
	// MaxSeeds bounds how many ego nets are scanned (the highest-degree
	// vertices are tried first). 0 means all vertices.
	MaxSeeds int
	// MaxGrowRounds bounds grow/prune alternations per seed. 0 means 8.
	MaxGrowRounds int
}

func (o Options) withDefaults() Options {
	if o.MaxGrowRounds == 0 {
		o.MaxGrowRounds = 8
	}
	return o
}

// Scan runs the ego-net scan on a difference graph and returns the best
// total-weight subgraph found.
func Scan(gd *graph.Graph, opt Options) Result {
	return newWorkspace(gd).scan(opt, runstate.New(nil))
}

// ScanCtx is Scan with cooperative cancellation: when ctx is done the scan
// stops within one checkpoint interval and returns the best candidate found
// so far, tagged Interrupted.
func ScanCtx(ctx context.Context, gd *graph.Graph, opt Options) Result {
	return newWorkspace(gd).scan(opt, runstate.New(ctx))
}

// workspace is the dense scratch of one scan over one graph, indexed by
// vertex id. Between grow rounds gain and mark are zero and touched is empty;
// in holds exactly the vertices on members until the next seed starts or the
// scan ends, when they are cleared through that list. Nothing is ever reset
// in O(n).
type workspace struct {
	gd  *graph.Graph
	off []int     // gd's CSR offsets: row u is entries off[u]:off[u+1]
	ids []int32   // gd's CSR neighbor ids
	wts []float64 // gd's CSR weights

	in      []bool    // v ∈ S
	gain    []float64 // Σ_{u∈S} w(v,u) for boundary vertices v during a grow round
	mark    []bool    // v is on touched
	touched []int     // the boundary vertices with a gain entry this round
	members []int     // S in increasing id order
}

// newWorkspace sizes a workspace for gd. The scan reads gd's CSR rows
// directly: zero-copy on a plain graph (backed or not), while a view is
// flattened onto the heap once here. Neither list can outgrow n, so no
// append in the scan ever reallocates.
func newWorkspace(gd *graph.Graph) *workspace {
	n := gd.N()
	off, ids, wts := gd.CSR()
	return &workspace{
		gd:      gd,
		off:     off,
		ids:     ids,
		wts:     wts,
		in:      make([]bool, n),
		gain:    make([]float64, n),
		mark:    make([]bool, n),
		touched: make([]int, 0, n),
		members: make([]int, 0, n),
	}
}

// row returns u's neighbor ids in increasing order and their weights, as
// slices of equal length.
func (ws *workspace) row(u int) ([]int32, []float64) {
	lo, hi := ws.off[u], ws.off[u+1]
	ids := ws.ids[lo:hi]
	return ids, ws.wts[lo:hi][:len(ids)]
}

// scan tries the seeds in order and keeps the heaviest candidate. It leaves
// the workspace all-zero.
func (ws *workspace) scan(opt Options, rs *runstate.State) Result {
	opt = opt.withDefaults()
	n := ws.gd.N()
	if n == 0 {
		return Result{}
	}
	// Seed order: descending positive weighted degree — heavy hubs first,
	// mirroring EgoScan's prioritization of promising ego nets.
	posDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			break // unseen seeds keep degree 0, sort last, and are skipped below
		}
		_, wts := ws.row(v)
		for _, w := range wts {
			if w > 0 {
				posDeg[v] += w
			}
		}
	}
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	slices.SortFunc(seeds, func(a, b int) int {
		if c := cmp.Compare(posDeg[b], posDeg[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if opt.MaxSeeds > 0 && opt.MaxSeeds < len(seeds) {
		seeds = seeds[:opt.MaxSeeds]
	}

	var bestS []int
	bestW := 0.0
	seenSeed := make([]bool, n)
	for _, s := range seeds {
		if posDeg[s] <= 0 {
			break // no positive edge left to build on
		}
		if rs.Cancelled() {
			break // partial scan: keep whatever the earlier seeds produced
		}
		if seenSeed[s] {
			continue // already absorbed into an earlier candidate
		}
		S := ws.growPrune(s, opt.MaxGrowRounds, rs)
		for _, v := range S {
			seenSeed[v] = true
		}
		if w := ws.weight(); w > bestW {
			bestW = w
			bestS = append(bestS[:0], S...)
		}
	}
	ws.clear()
	if bestS == nil {
		bestS = []int{0}
	}
	w, rho, ed := ws.gd.SubgraphMetrics(bestS)
	return Result{
		S:              bestS,
		TotalWeight:    w,
		Density:        rho,
		EdgeDensity:    ed,
		PositiveClique: ws.gd.IsPositiveClique(bestS),
		Interrupted:    rs.Interrupted(),
	}
}

// growPrune builds a candidate around seed s: start from the positive part of
// the ego net, then alternate (a) adding every boundary vertex whose marginal
// contribution 2·W(v; S) is positive and (b) removing every member whose
// in-set degree is negative, until a fixed point or the round budget runs
// out. Every step strictly increases W_D(S), so termination is guaranteed
// even without the budget; the budget just caps worst-case work per seed.
// A cancelled call returns the member set it holds at that point. The result
// is the workspace's member list, valid until the next growPrune or clear.
func (ws *workspace) growPrune(s int, maxRounds int, rs *runstate.State) []int {
	ws.clear()
	ws.in[s] = true
	ws.members = append(ws.members, s)
	ids, wts := ws.row(s)
	for i, v := range ids {
		if wts[i] > 0 {
			ws.in[v] = true
			ws.members = append(ws.members, int(v))
		}
	}
	slices.Sort(ws.members)
	for round := 0; round < maxRounds; round++ {
		// Grow: marginal gain of adding v is 2·Σ_{u∈S} w(v,u). Additions
		// take effect only once every gain of the round is summed.
		for _, u := range ws.members {
			if rs.Checkpoint() {
				// Mid-grow cancellation: the current member set is already a
				// valid candidate; hand it back as-is.
				ws.dropGains()
				return ws.members
			}
			ids, wts := ws.row(u)
			for i, v := range ids {
				if ws.in[v] {
					continue
				}
				if !ws.mark[v] {
					ws.mark[v] = true
					ws.touched = append(ws.touched, int(v))
				}
				ws.gain[v] += wts[i]
			}
		}
		changed := ws.addPositiveGains()
		// Prune: drop members with negative in-set degree, in increasing id
		// order; a removal is seen by every later member of the pass.
		for _, v := range ws.members {
			if rs.Checkpoint() {
				ws.compact()
				return ws.members
			}
			var d float64
			ids, wts := ws.row(v)
			for i, to := range ids {
				if ws.in[to] {
					d += wts[i]
				}
			}
			if d < 0 {
				ws.in[v] = false
				changed = true
			}
		}
		ws.compact()
		if !changed {
			break
		}
	}
	return ws.members
}

// addPositiveGains moves the touched vertices with positive gain into S,
// merging them into the sorted member list, clears the round's gain scratch,
// and reports whether any vertex was added.
func (ws *workspace) addPositiveGains() bool {
	add := ws.touched[:0]
	for _, v := range ws.touched {
		if ws.gain[v] > 0 {
			add = append(add, v)
		}
		ws.gain[v] = 0
		ws.mark[v] = false
	}
	ws.touched = ws.touched[:0]
	if len(add) == 0 {
		return false
	}
	slices.Sort(add)
	// Merge from the back so members is extended in place.
	i, j := len(ws.members)-1, len(add)-1
	ws.members = ws.members[:len(ws.members)+len(add)]
	for k := len(ws.members) - 1; j >= 0; k-- {
		if i >= 0 && ws.members[i] > add[j] {
			ws.members[k] = ws.members[i]
			i--
		} else {
			ws.in[add[j]] = true
			ws.members[k] = add[j]
			j--
		}
	}
	return true
}

// dropGains clears a grow round that was cut short.
func (ws *workspace) dropGains() {
	for _, v := range ws.touched {
		ws.gain[v] = 0
		ws.mark[v] = false
	}
	ws.touched = ws.touched[:0]
}

// compact removes pruned vertices (in[v] == false) from the member list.
func (ws *workspace) compact() {
	ws.members = slices.DeleteFunc(ws.members, func(v int) bool { return !ws.in[v] })
}

// weight returns W_D(S) of the member set, summed exactly as TotalDegreeOf
// sums it over the sorted set.
func (ws *workspace) weight() float64 {
	var w float64
	//lint:allow loopcheck -- one O(vol(S)) walk of the candidate growPrune just built under per-member checkpoints
	for _, u := range ws.members {
		ids, wts := ws.row(u)
		for i, v := range ids {
			if ws.in[v] {
				w += wts[i]
			}
		}
	}
	return w
}

// clear empties the member set.
func (ws *workspace) clear() {
	for _, v := range ws.members {
		ws.in[v] = false
	}
	ws.members = ws.members[:0]
}
