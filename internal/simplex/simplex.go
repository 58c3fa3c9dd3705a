// Package simplex implements subgraph embeddings x ∈ Δn for the graph
// affinity density measure.
//
// A subgraph embedding is a point of the standard simplex
// Δn = {x | Σ xi = 1, xi ≥ 0}; entry xu is the participation of vertex u in
// the subgraph, the support set Sx = {u | xu > 0} is the subgraph itself, and
// the density is the graph affinity f(x) = xᵀAx (Eq. 2 of the paper).
//
// Two representations serve the DCSGA machinery in internal/core. A Vector is
// a result embedding: compact sorted (id, value) slices, O(|Sx|) memory, so
// the thousands of embeddings a multi-initialization run keeps stay small.
// A Workspace is the dense scratch of one solver worker: the working
// embedding and the kernels' per-vertex arrays, indexed by vertex id and
// sized O(n) once per worker — not once per initialization. Every kernel
// operation is priced in |support| and its boundary, never in n; the workspace
// keeps that true by clearing exactly the entries it touched.
package simplex

import (
	"fmt"
	"math"
	"slices"

	"github.com/dcslib/dcs/internal/graph"
)

// Vector is a sparse non-negative vector over n vertices, normally on the
// simplex (entries sum to 1). Entries that are absent are zero; entries that
// are present are strictly positive.
type Vector struct {
	n    int
	ids  []int     // support, strictly increasing
	vals []float64 // vals[k] = x_{ids[k]}
}

// New returns the zero vector over n vertices (not on the simplex until
// entries are set and normalized).
func New(n int) *Vector {
	return &Vector{n: n}
}

// Indicator returns e_u: the embedding of the single-vertex subgraph {u}.
func Indicator(n, u int) *Vector {
	v := New(n)
	v.Set(u, 1)
	return v
}

// Uniform returns the embedding that spreads mass 1/|S| over each vertex of
// S. S must be non-empty.
func Uniform(n int, S []int) *Vector {
	if len(S) == 0 {
		panic("simplex: Uniform over empty set")
	}
	w := 1 / float64(len(S))
	ids := slices.Compact(slices.Sorted(slices.Values(S)))
	vals := make([]float64, len(ids))
	for i := range vals {
		vals[i] = w
	}
	return &Vector{n: n, ids: ids, vals: vals}
}

// N returns the dimension (number of vertices).
func (v *Vector) N() int { return v.n }

// Get returns xu.
func (v *Vector) Get(u int) float64 {
	if i, ok := slices.BinarySearch(v.ids, u); ok {
		return v.vals[i]
	}
	return 0
}

// Set assigns xu = val. Negative values (including tiny negative round-off)
// and zeros clear the entry.
func (v *Vector) Set(u int, val float64) {
	if u < 0 || u >= v.n {
		panic(fmt.Sprintf("simplex: vertex %d out of range [0,%d)", u, v.n))
	}
	i, ok := slices.BinarySearch(v.ids, u)
	switch {
	case val <= 0 && ok:
		v.ids = slices.Delete(v.ids, i, i+1)
		v.vals = slices.Delete(v.vals, i, i+1)
	case val <= 0:
	case ok:
		v.vals[i] = val
	default:
		v.ids = slices.Insert(v.ids, i, u)
		v.vals = slices.Insert(v.vals, i, val)
	}
}

// Support returns Sx = {u | xu > 0} in increasing order.
func (v *Vector) Support() []int {
	return append(make([]int, 0, len(v.ids)), v.ids...)
}

// SupportSize returns |Sx| without materializing the sorted slice.
func (v *Vector) SupportSize() int { return len(v.ids) }

// Sum returns Σ xu (1 for a simplex point, up to round-off). Accumulation
// follows increasing vertex order for reproducibility.
func (v *Vector) Sum() float64 {
	var s float64
	for _, val := range v.vals {
		s += val
	}
	return s
}

// Normalize rescales the vector onto the simplex (divides by Sum). It panics
// on the zero vector.
func (v *Vector) Normalize() {
	s := v.Sum()
	if s <= 0 {
		panic("simplex: cannot normalize zero vector")
	}
	for i := range v.vals {
		v.vals[i] /= s
	}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return &Vector{n: v.n, ids: slices.Clone(v.ids), vals: slices.Clone(v.vals)}
}

// Visit calls fn for every non-zero entry in increasing vertex order. The
// deterministic order matters: floating-point accumulation over the support
// must follow one fixed order, or repeated runs of the iterative solvers
// diverge in their round-off and lose reproducibility. fn must not modify v.
func (v *Vector) Visit(fn func(u int, val float64)) {
	for i, u := range v.ids {
		fn(u, v.vals[i])
	}
}

// OnSimplex reports whether v lies on the simplex within tolerance tol.
func (v *Vector) OnSimplex(tol float64) bool {
	return math.Abs(v.Sum()-1) <= tol
}

// Affinity returns f(x) = xᵀDx computed against the graph's affinity matrix:
// Σ over ordered pairs (u,v) of xu·xv·D(u,v), i.e. each undirected edge
// contributes twice — matching Eq. 2 and the paper's W(S) convention. Cost is
// O(Σ_{u∈Sx} deg(u)·log|Sx|).
func Affinity(g *graph.Graph, v *Vector) float64 {
	var f float64
	v.Visit(func(u int, xu float64) {
		g.VisitNeighbors(u, func(to int, w float64) {
			if xv := v.Get(to); xv != 0 {
				f += xu * xv * w
			}
		})
	})
	return f
}

// DxEntry returns (Dx)_u = Σ_v D(u,v)·xv for a single vertex.
func DxEntry(g *graph.Graph, v *Vector, u int) float64 {
	var s float64
	g.VisitNeighbors(u, func(to int, w float64) {
		if xv := v.Get(to); xv != 0 {
			s += w * xv
		}
	})
	return s
}

// Gradient returns ∇u f(x) = 2(Dx)_u.
func Gradient(g *graph.Graph, v *Vector, u int) float64 {
	return 2 * DxEntry(g, v, u)
}

// GradientMap returns ∇f(x) restricted to the set of vertices where it can be
// non-zero: the support of x and every neighbor of the support. All other
// vertices have gradient exactly 0 (they have no edge into Sx).
func GradientMap(g *graph.Graph, v *Vector) map[int]float64 {
	grad := make(map[int]float64, 2*len(v.ids))
	v.Visit(func(u int, xu float64) {
		grad[u] += 0 // ensure support vertices are present even if isolated
		g.VisitNeighbors(u, func(to int, w float64) {
			grad[to] += 2 * w * xu
		})
	})
	return grad
}

// KKTViolation measures how far x is from the KKT conditions of
// max xᵀDx s.t. x ∈ Δn (Eq. 8):
//
//	max_{k: xk<1} ∇k f(x) ≤ min_{k: xk>0} ∇k f(x)
//
// It returns max_{k:xk<1} ∇k − min_{k:xk>0} ∇k; a value ≤ tol means x is a
// KKT point at precision tol. Vertices outside the gradient map have
// gradient 0 and participate in the max when the support does not cover all
// of V.
func KKTViolation(g *graph.Graph, v *Vector) float64 {
	grad := GradientMap(g, v)
	maxAny := math.Inf(-1)
	minSupp := math.Inf(1)
	for u, gu := range grad {
		xu := v.Get(u)
		if xu < 1 && gu > maxAny {
			maxAny = gu
		}
		if xu > 0 && gu < minSupp {
			minSupp = gu
		}
	}
	// Vertices with zero gradient that are not in the map: they exist whenever
	// the gradient map does not cover all n vertices, and they all have xk = 0
	// (< 1), contributing max ≥ 0.
	if len(grad) < v.n && maxAny < 0 {
		maxAny = 0
	}
	if math.IsInf(minSupp, 1) || math.IsInf(maxAny, -1) {
		return 0 // degenerate: no support or single-vertex full mass
	}
	return maxAny - minSupp
}

// IsKKT reports whether x satisfies the KKT conditions within tol.
func IsKKT(g *graph.Graph, v *Vector, tol float64) bool {
	return KKTViolation(g, v) <= tol
}

// LocalKKTViolation is KKTViolation restricted to a vertex set S (Eq. 11):
// max_{k∈S: xk<1} ∇k − min_{k∈S: xk>0} ∇k. The support of x must lie inside
// S for the notion to be meaningful.
func LocalKKTViolation(g *graph.Graph, v *Vector, S []int) float64 {
	maxAny := math.Inf(-1)
	minSupp := math.Inf(1)
	for _, u := range S {
		gu := Gradient(g, v, u)
		xu := v.Get(u)
		if xu < 1 && gu > maxAny {
			maxAny = gu
		}
		if xu > 0 && gu < minSupp {
			minSupp = gu
		}
	}
	if math.IsInf(minSupp, 1) || math.IsInf(maxAny, -1) {
		return 0
	}
	return maxAny - minSupp
}
