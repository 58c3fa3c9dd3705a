package densest

import (
	"sort"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// defaultImproveRounds bounds LocalImprove's steepest-ascent loop when the
// caller passes maxRounds ≤ 0. Each round moves one vertex, so the bound also
// caps how far the result can drift from its seed.
const defaultImproveRounds = 32

// LocalImprove runs steepest-ascent local search from a seed set: each round
// considers every single-vertex move — adding a neighbor v of S (profitable
// when 2·w(v,S) > ρ(S)) or removing a member u (profitable when
// 2·w(u,S∖u) < ρ(S)) — applies the one that raises the density most, and
// stops at a local optimum or after maxRounds moves (≤ 0 means the default).
// Density follows the package convention ρ(S) = W(S)/|S| with edges counted
// twice.
//
// This is the warm-start entry point of the streaming engine: seeded with the
// previous tick's subgraph on a difference graph that has only drifted
// locally, a handful of rounds re-tracks the optimum without a full peel.
// Each round costs O(vol(S) + |N(S)|). An empty seed returns an empty result.
func LocalImprove(g *graph.Graph, seed []int, maxRounds int) Result {
	return LocalImproveRS(g, seed, maxRounds, runstate.New(nil))
}

// LocalImproveRS is LocalImprove with cooperative cancellation: an
// interrupted search stops between moves and returns the current set — every
// prefix of moves is a valid subgraph whose density is evaluated from
// scratch on return.
func LocalImproveRS(g *graph.Graph, seed []int, maxRounds int, rs *runstate.State) Result {
	if len(seed) == 0 {
		return Result{}
	}
	if maxRounds <= 0 {
		maxRounds = defaultImproveRounds
	}
	ws := acquireWorkspace()
	ws.growImprove(g.N())
	ws.g = g.Rows()
	res := ws.improve(g, seed, maxRounds, rs)
	ws.release()
	return res
}

// improve is LocalImproveRS on ws's dense scratch: membership marks, the
// connection weights w(v, S) and per-round candidate stamps. It restores
// in and conn to all-zero through the rows that fed them, so a call costs
// O(vol of every set it visited), never O(n).
func (ws *workspace) improve(g *graph.Graph, seed []int, maxRounds int, rs *runstate.State) Result {
	n := g.N()
	in, conn, seen := ws.in[:n], ws.conn[:n], ws.seen[:n]
	S := make([]int, 0, len(seed))
	for _, v := range seed {
		if !in[v] {
			in[v] = true
			S = append(S, v)
		}
	}
	w := g.TotalDegreeOf(S) // doubled convention

	// conn[v] = w(v, S) single-counted, maintained incrementally across
	// moves: adding/removing u shifts conn of u's neighbors only.
	for _, u := range S {
		if rs.Checkpoint() {
			break // round loop below polls the same latched State and exits
		}
		ws.shiftConn(int32(u), 1)
	}

	ws.added = ws.added[:0]
	for round := 0; round < maxRounds; round++ {
		if rs.Checkpoint() {
			break // current S is valid; density recomputed from scratch below
		}
		rho := w / float64(len(S))
		bestRho := rho
		bestV, bestAdd := -1, false
		// Candidate additions: non-members with any connection into S.
		// Scanning the frontier through S's rows keeps the round local.
		epoch := ws.nextEpoch()
		for _, u := range S {
			if ws.g.Dropped(int32(u)) {
				continue
			}
			ids, wts := ws.g.Row(int32(u))
			for i, t := range ids {
				if !ws.g.Visible(t, wts[i]) || in[t] || seen[t] == epoch {
					continue
				}
				seen[t] = epoch
				if r := (w + 2*conn[t]) / float64(len(S)+1); r > bestRho {
					bestRho, bestV, bestAdd = r, int(t), true
				}
			}
		}
		// Candidate removals (never empty the set).
		if len(S) > 1 {
			for _, u := range S {
				// conn[u] counts u's own edges into S, excluding u
				// itself (no self-loops), so it is w(u, S∖u) exactly.
				if r := (w - 2*conn[u]) / float64(len(S)-1); r > bestRho {
					bestRho, bestV, bestAdd = r, u, false
				}
			}
		}
		if bestV < 0 {
			break // local optimum
		}
		if bestAdd {
			in[bestV] = true
			S = append(S, bestV)
			ws.added = append(ws.added, int32(bestV))
			w += 2 * conn[bestV]
			ws.shiftConn(int32(bestV), 1)
		} else {
			in[bestV] = false
			for i, u := range S {
				if u == bestV {
					S = append(S[:i], S[i+1:]...)
					break
				}
			}
			w -= 2 * conn[bestV]
			ws.shiftConn(int32(bestV), -1)
		}
	}
	// Every conn entry ever written is a neighbor of a seed or of an added
	// vertex; every member left is in S.
	//lint:allow loopcheck -- scratch restore over the seed's rows, which the checkpointed setup loop above already walked once
	for _, u := range seed {
		ws.clearConn(int32(u))
	}
	//lint:allow loopcheck -- scratch restore: at most maxRounds added vertices
	for _, u := range ws.added {
		ws.clearConn(u)
	}
	for _, u := range S {
		in[u] = false
	}
	sort.Ints(S)
	// Recompute the final density from scratch: the incremental w above
	// accumulates one rounding per move and the caller compares this value
	// against freshly-evaluated candidates.
	return Result{S: S, Density: g.AverageDegreeOf(S)}
}

// shiftConn adds (sign 1) or subtracts (sign −1) u's visible edge weights to
// its neighbors' conn entries, in row order.
func (ws *workspace) shiftConn(u int32, sign int) {
	if ws.g.Dropped(u) {
		return
	}
	ids, wts := ws.g.Row(u)
	for i, t := range ids {
		if wt := wts[i]; ws.g.Visible(t, wt) {
			if sign > 0 {
				ws.conn[t] += wt
			} else {
				ws.conn[t] -= wt
			}
		}
	}
}

// clearConn zeroes the conn entry of every stored neighbor of u.
func (ws *workspace) clearConn(u int32) {
	ids, _ := ws.g.Row(u)
	for _, t := range ids {
		ws.conn[t] = 0
	}
}
