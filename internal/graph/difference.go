package graph

import "fmt"

// Difference returns the difference graph GD = G2 − G1 over the shared vertex
// set: the graph whose affinity matrix is D = A2 − A1 (Section III-B of the
// paper). Edges whose difference is exactly zero are absent from GD.
func Difference(g1, g2 *Graph) *Graph {
	return DifferenceAlpha(g1, g2, 1)
}

// DifferenceAlpha returns the generalized difference graph GD = G2 − αG1
// (Section III-D): maximizing density on GD then finds S with
// ρ2(S) − αρ1(S) maximized. Both graphs must have the same vertex count.
//
// The merge walks the two sorted adjacency rows of each vertex in tandem,
// writing directly into one flat CSR array sized up front — so construction
// costs O(m1 + m2 + n) after the graphs are built (matching the complexity
// analysis in Section IV-B) and performs a constant number of allocations
// regardless of n.
func DifferenceAlpha(g1, g2 *Graph, alpha float64) *Graph {
	return merge2(g1, g2, func(w1, w2 float64) float64 { return w2 - alpha*w1 })
}

// Blend returns the weighted sum a·g1 + b·g2 over the shared vertex set.
// DifferenceAlpha(g1, g2, α) equals Blend(g1, g2, −α, 1); exponential decay
// of an expectation graph is Blend(expect, observed, 1−λ, λ). Edges whose
// blended weight is exactly zero are dropped.
func Blend(g1, g2 *Graph, a, b float64) *Graph {
	return merge2(g1, g2, func(w1, w2 float64) float64 { return a*w1 + b*w2 })
}

// merge2 builds the plain CSR graph whose edge weights are f(w1, w2) over the
// union of the two edge sets, with absent edges contributing weight 0 and
// zero results dropped. View inputs are compacted first so the row merge is a
// plain array walk.
func merge2(g1, g2 *Graph, f func(w1, w2 float64) float64) *Graph {
	if g1.N() != g2.N() {
		panic(fmt.Sprintf("graph: combining graphs with different vertex counts %d vs %d", g1.N(), g2.N()))
	}
	return mergeRows(g1.Compact(), g2.Compact(), func(w1, w2 float64, _, _ bool) float64 { return f(w1, w2) })
}

// mergeRows is the linear-merge machinery behind Difference, Blend and
// ApplyDelta: it walks the sorted adjacency rows of two plain graphs over the
// same vertex set in tandem and builds the plain CSR graph whose edge weights
// are f(w1, w2, in1, in2) over the union of the two edge sets. Absent entries
// contribute weight 0 with their presence flag false — the flags let
// combiners like ApplyDelta treat "present with weight 0" (remove the edge)
// differently from "absent" (keep the other side's weight). Zero results are
// dropped.
func mergeRows(g1, g2 *Graph, f func(w1, w2 float64, in1, in2 bool) float64) *Graph {
	a := newRowAppender(g1.n, len(g1.ids)+len(g2.ids))
	for u := 0; u < g1.n; u++ {
		a.startRow(u)
		ids1, ws1 := g1.row(u)
		ids2, ws2 := g2.row(u)
		i, j := 0, 0
		for i < len(ids1) || j < len(ids2) {
			switch {
			case j >= len(ids2) || (i < len(ids1) && ids1[i] < ids2[j]):
				a.add(u, int(ids1[i]), f(ws1[i], 0, true, false))
				i++
			case i >= len(ids1) || ids2[j] < ids1[i]:
				a.add(u, int(ids2[j]), f(0, ws2[j], false, true))
				j++
			default: // same neighbor in both row sets
				a.add(u, int(ids1[i]), f(ws1[i], ws2[j], true, true))
				i++
				j++
			}
		}
	}
	return a.graph()
}

// CapWeights returns a copy of the graph where every edge weight above cap is
// replaced by cap. The paper uses this in the Actor "Discrete" setting
// ("we set edge weights D(u,v) = 10 if D(u,v) originally was greater than
// 10") to keep a few very heavy edges from dominating the DCS.
func (g *Graph) CapWeights(cap float64) *Graph {
	return g.mapWeights(func(w float64) float64 {
		if w > cap {
			return cap
		}
		return w
	})
}

// DiscretizeLevels maps raw difference weights onto the paper's Discrete
// setting for the DBLP co-author graphs (Section VI-B):
//
//	w ≥ hi          → +2
//	lo ≤ w < hi     → +1
//	−lo < w < 0     → −1   (i.e. w in (−hi+1 … 0) small negative band)
//	w ≤ −lo−? ...
//
// Concretely with the paper's numbers hi=5, lo=2: w≥5 → 2, 2≤w<5 → 1,
// −4<w<0 → −1, w≤−4 → −2. Weights in (0, lo) are dropped, matching the paper
// (only differences of at least lo count as a positive signal).
func (g *Graph) DiscretizeLevels(lo, hi float64) *Graph {
	return g.mapWeights(func(w float64) float64 {
		switch {
		case w >= hi:
			return 2
		case w >= lo:
			return 1
		case w > 0:
			return 0 // weak positive signal: dropped
		case w > -(hi - 1):
			return -1
		default:
			return -2
		}
	})
}
