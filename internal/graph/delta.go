package graph

import (
	"fmt"
	"math"
	"sort"
)

// ApplyDelta returns the graph obtained from base by applying an edge-delta
// list: each entry sets the weight of the undirected edge (U, V) to W, so a
// positive or negative W adds or reweights the edge and W = 0 removes it.
// When the same pair appears more than once the last entry wins. The result
// is a fresh plain graph; base is not modified.
//
// This is the incremental counterpart of rebuilding a snapshot from scratch:
// one linear merge of the sorted delta against base's CSR rows — the same
// tandem-walk machinery Difference and Blend use — costing
// O(m + d log d + n) for d delta entries instead of the O(m + n) full rebuild
// plus the bandwidth of re-sending every unchanged edge. Streaming consumers
// (the dcsd watch API) feed per-tick observations this way.
//
// Invalid entries (self-loops, endpoints outside [0, n), non-finite weights)
// panic, matching Builder.AddEdge; callers holding untrusted input validate
// first.
func ApplyDelta(base *Graph, delta []Edge) *Graph {
	base = base.Compact()
	if len(delta) == 0 {
		return base
	}
	n := base.n
	ded := canonDelta(n, delta)
	// Scatter the canonical delta into sorted directed CSR rows (the Builder
	// fill pattern), keeping zero weights: in a delta row, W = 0 is the
	// removal marker, not an absent edge. The result is a merge operand
	// only, never a Graph handed out.
	deg := make([]int, n)
	for _, e := range ded {
		deg[e.U]++
		deg[e.V]++
	}
	doff := make([]int, n+1)
	for u := 0; u < n; u++ {
		doff[u+1] = doff[u] + deg[u]
	}
	d := &Graph{n: n, off: doff, ids: make([]int32, doff[n]), ws: make([]float64, doff[n])}
	cur := make([]int, n)
	copy(cur, doff[:n])
	for _, e := range ded {
		d.ids[cur[e.U]], d.ws[cur[e.U]] = int32(e.V), e.W
		cur[e.U]++
		d.ids[cur[e.V]], d.ws[cur[e.V]] = int32(e.U), e.W
		cur[e.V]++
	}
	// Tandem merge: a delta entry overrides the base weight outright (its
	// zero-result drop is exactly the removal), absent entries keep base's.
	return mergeRows(base, d,
		func(w1, w2 float64, _, in2 bool) float64 {
			if in2 {
				return w2
			}
			return w1
		})
}

// canonDelta validates an edge-delta list and returns it canonicalized:
// endpoints ordered U < V, entries sorted by pair, duplicates collapsed with
// the last entry winning. Shared by ApplyDelta and the streaming Maintainer so
// both interpret a delta identically. Invalid entries (self-loops, endpoints
// outside [0, n), non-finite weights) panic, matching Builder.AddEdge.
func canonDelta(n int, delta []Edge) []Edge {
	es := make([]Edge, 0, len(delta))
	for _, e := range delta {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: delta self-loop on vertex %d", e.U))
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			panic(fmt.Sprintf("graph: delta edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			panic(fmt.Sprintf("graph: delta edge (%d,%d) has non-finite weight", e.U, e.V))
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es = append(es, e)
	}
	// Sort stably by pair, then dedupe with the *last* entry winning — a
	// stream that reweights an edge twice in one tick means the newer value.
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	ded := es[:0]
	for _, e := range es {
		if len(ded) > 0 && ded[len(ded)-1].U == e.U && ded[len(ded)-1].V == e.V {
			ded[len(ded)-1].W = e.W
			continue
		}
		ded = append(ded, e)
	}
	return ded
}
