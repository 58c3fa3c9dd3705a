package simplex

import (
	"fmt"
	"slices"

	"github.com/dcslib/dcs/internal/graph"
)

// Workspace is the dense scratch of one DCSGA solver worker: the embedding x
// an initialization is working on, plus the per-vertex arrays of the shrink
// and expansion kernels, all indexed by vertex id. A worker sizes it to the
// graph once (Reset) and reuses it for every initialization it runs, so the
// kernels read and write plain array slots where a sparse vector would pay a
// hash probe per access, and allocate nothing per iteration.
//
// The embedding keeps a support list next to the dense values. Set never
// moves a listed entry — clearing one only leaves a zero behind — so kernels
// may Set while ranging over the slice Support returned; Support drops the
// zeros and restores increasing order lazily. A Workspace is not safe for
// concurrent use.
type Workspace struct {
	n        int
	x        []float64 // x_u; zero off the support
	listed   []bool    // u is on supp
	supp     []int     // support list, possibly holding cleared entries
	stale    bool      // some listed entry was cleared since the last Support
	unsorted bool      // supp is out of increasing order
	work     []int     // WorkingSet's copy of the support

	// Kernel scratch for internal/core. Between kernel calls every entry is
	// zero (false) and Touched and Z are empty: a kernel clears exactly the
	// entries it set before it returns.
	Dx      []float64 // (Dx)_u over the shrink stage's working set
	Acc     []float64 // (Dx)_u over the expansion's support and its boundary
	Gamma   []float64 // γ_u = (Dx)_u − f(x) over the expansion set Z
	InS     []bool    // working-set marks: the shrink's S, or the expansion's support ∪ boundary
	InZ     []bool    // expansion-set marks
	Touched []int     // the vertices the expansion marked in InS
	Z       []int     // the expansion set
}

// NewWorkspace returns an empty workspace over n vertices.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Reset(n)
	return w
}

// Reset empties the embedding and sizes the workspace to n vertices. The
// arrays are reallocated only when n exceeds their capacity; shrinking and
// regrowing within it reuses them, which is sound because every entry outside
// the current embedding is already zero.
func (w *Workspace) Reset(n int) {
	for _, u := range w.supp {
		w.x[u] = 0
		w.listed[u] = false
	}
	w.supp = w.supp[:0]
	w.stale, w.unsorted = false, false
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.listed = make([]bool, n)
		w.Dx = make([]float64, n)
		w.Acc = make([]float64, n)
		w.Gamma = make([]float64, n)
		w.InS = make([]bool, n)
		w.InZ = make([]bool, n)
	}
	w.n = n
	w.x, w.listed = w.x[:n], w.listed[:n]
	w.Dx, w.Acc, w.Gamma = w.Dx[:n], w.Acc[:n], w.Gamma[:n]
	w.InS, w.InZ = w.InS[:n], w.InZ[:n]
}

// Load resets the workspace to v's dimension and copies v into it.
func (w *Workspace) Load(v *Vector) {
	w.Reset(v.n)
	for i, u := range v.ids {
		w.x[u] = v.vals[i]
		w.listed[u] = true
	}
	w.supp = append(w.supp, v.ids...)
}

// Vector returns the embedding as a compact Vector.
func (w *Workspace) Vector() *Vector {
	S := w.Support()
	v := &Vector{n: w.n, ids: slices.Clone(S), vals: make([]float64, len(S))}
	for i, u := range S {
		v.vals[i] = w.x[u]
	}
	return v
}

// Get returns xu.
func (w *Workspace) Get(u int) float64 { return w.x[u] }

// Set assigns xu = val with Vector.Set's semantics: a value ≤ 0 clears the
// entry. It never reorders the support list.
func (w *Workspace) Set(u int, val float64) {
	if u < 0 || u >= w.n {
		panic(fmt.Sprintf("simplex: vertex %d out of range [0,%d)", u, w.n))
	}
	if val <= 0 {
		if w.x[u] != 0 {
			w.x[u] = 0
			w.stale = true
		}
		return
	}
	if !w.listed[u] {
		w.listed[u] = true
		if k := len(w.supp); k > 0 && w.supp[k-1] > u {
			w.unsorted = true
		}
		w.supp = append(w.supp, u)
	}
	w.x[u] = val
}

// Support returns Sx in increasing order. The slice is owned by the
// workspace: it stays valid across Set calls (entries set afterwards are not
// on it) and is rewritten by the next call that reads the support as a whole
// — Support, WorkingSet, SupportSize, Sum, Normalize, Affinity or Vector.
func (w *Workspace) Support() []int {
	if w.stale {
		k := 0
		for _, u := range w.supp {
			if w.x[u] != 0 {
				w.supp[k] = u
				k++
			} else {
				w.listed[u] = false
			}
		}
		w.supp = w.supp[:k]
		w.stale = false
	}
	if w.unsorted {
		slices.Sort(w.supp)
		w.unsorted = false
	}
	return w.supp
}

// WorkingSet returns a copy of Support that later support reads do not
// rewrite: the working set S a shrink stage runs over. It is owned by the
// workspace and valid until the next WorkingSet call.
func (w *Workspace) WorkingSet() []int {
	w.work = append(w.work[:0], w.Support()...)
	return w.work
}

// SupportSize returns |Sx|.
func (w *Workspace) SupportSize() int { return len(w.Support()) }

// Sum returns Σ xu, accumulated in increasing vertex order.
func (w *Workspace) Sum() float64 {
	var s float64
	for _, u := range w.Support() {
		s += w.x[u]
	}
	return s
}

// Normalize rescales the embedding onto the simplex (divides by Sum). It
// panics on the zero vector.
func (w *Workspace) Normalize() {
	s := w.Sum()
	if s <= 0 {
		panic("simplex: cannot normalize zero vector")
	}
	for _, u := range w.supp {
		w.x[u] /= s
	}
}

// Affinity returns f(x) = xᵀDx for the embedding, summed in exactly the
// order of the package-level Affinity: increasing support vertex, then
// neighbor order.
func (w *Workspace) Affinity(g *graph.Graph) float64 {
	var f float64
	//lint:allow loopcheck -- one O(Σ_{u∈Sx} deg u) evaluation, the cost of the package-level Affinity; the solver loops that call it poll between evaluations
	for _, u := range w.Support() {
		xu := w.x[u]
		g.VisitNeighbors(u, func(to int, wt float64) {
			if xv := w.x[to]; xv != 0 {
				f += xu * xv * wt
			}
		})
	}
	return f
}

// DxEntry returns (Dx)_u = Σ_v D(u,v)·xv for a single vertex.
func (w *Workspace) DxEntry(g *graph.Graph, u int) float64 {
	var s float64
	g.VisitNeighbors(u, func(to int, wt float64) {
		if xv := w.x[to]; xv != 0 {
			s += wt * xv
		}
	})
	return s
}
