package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// workspaceOf returns a fresh workspace holding x.
func workspaceOf(x *simplex.Vector) *simplex.Workspace {
	ws := simplex.NewWorkspace(x.N())
	ws.Load(x)
	return ws
}

// Property: one analytic 2-CD step (Eq. 9) matches the best value found by a
// dense scan of z ∈ [0, C], and never decreases the objective.
func TestStepMatchesDenseScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randomSignedGraph(rng, n, 0.6, 4)
		// Random simplex point over a random working set.
		var S []int
		x := simplex.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				x.Set(v, rng.Float64()+0.05)
				S = append(S, v)
			}
		}
		if len(S) < 2 {
			return true
		}
		x.Normalize()
		ws := workspaceOf(x)
		st := newCDState(g, ws, S, runstate.New(nil))
		i, j := S[rng.Intn(len(S))], S[rng.Intn(len(S))]
		if i == j {
			return true
		}
		before := ws.Affinity(g)
		C := ws.Get(i) + ws.Get(j)
		st.step(i, j)
		after := ws.Affinity(g)
		if after < before-1e-9 {
			return false
		}
		// Dense scan over the moved pair from the ORIGINAL point: rebuild and
		// compare. The step's result must be within epsilon of the scan max.
		best := after
		probe := ws.Vector()
		for k := 0; k <= 400; k++ {
			z := C * float64(k) / 400
			probe.Set(i, z)
			probe.Set(j, C-z)
			if v := simplex.Affinity(g, probe); v > best+1e-6*(1+C) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the incremental (Dx) bookkeeping of cdState stays consistent with
// a from-scratch recomputation across many steps.
func TestCDStateBookkeeping(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomSignedGraph(rng, n, 0.5, 4)
		var S []int
		x := simplex.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.8 {
				x.Set(v, rng.Float64()+0.05)
				S = append(S, v)
			}
		}
		if len(S) < 2 {
			return true
		}
		x.Normalize()
		ws := workspaceOf(x)
		st := newCDState(g, ws, S, runstate.New(nil))
		for iter := 0; iter < 30; iter++ {
			i, j, _, ok := st.pick()
			if !ok {
				break
			}
			st.step(i, j)
			for _, u := range S {
				if got, want := ws.Dx[u], ws.DxEntry(g, u); !almostEqual(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pick() must return the extreme-gradient pair of the paper's rule.
func TestPickExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomSignedGraph(rng, 8, 0.7, 5)
	S := []int{0, 1, 2, 3, 4, 5, 6, 7}
	x := simplex.Uniform(8, S)
	st := newCDState(g, workspaceOf(x), S, runstate.New(nil))
	i, j, gap, ok := st.pick()
	if !ok {
		t.Fatal("pick must succeed")
	}
	for _, k := range S {
		gk := simplex.Gradient(g, x, k)
		if gk > simplex.Gradient(g, x, i)+1e-9 {
			t.Fatalf("vertex %d has larger gradient than picked i=%d", k, i)
		}
		if gk < simplex.Gradient(g, x, j)-1e-9 {
			t.Fatalf("vertex %d has smaller gradient than picked j=%d", k, j)
		}
	}
	if gap < 0 {
		t.Fatal("gap must be non-negative for extreme pair")
	}
}

// Coordinate descent on a single-vertex or empty working set is a no-op.
func TestDescendDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomSignedGraph(rng, 4, 0.5, 3)
	ws := workspaceOf(simplex.Indicator(4, 1))
	if it := coordinateDescent(g, ws, []int{1}, 1e-9, 1000, runstate.New(nil)); it != 0 {
		t.Fatalf("single-vertex set should do nothing, did %d iters", it)
	}
	if it := coordinateDescent(g, ws, nil, 1e-9, 1000, runstate.New(nil)); it != 0 {
		t.Fatalf("empty set should do nothing, did %d iters", it)
	}
	if ws.Get(1) != 1 {
		t.Fatal("x must be untouched")
	}
}
