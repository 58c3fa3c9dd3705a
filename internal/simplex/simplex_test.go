package simplex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/clique"
	"github.com/dcslib/dcs/internal/graph"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestVectorBasics(t *testing.T) {
	v := New(5)
	v.Set(1, 0.5)
	v.Set(3, 0.5)
	if !v.OnSimplex(1e-12) {
		t.Fatal("should be on simplex")
	}
	S := v.Support()
	if len(S) != 2 || S[0] != 1 || S[1] != 3 {
		t.Fatalf("support = %v", S)
	}
	v.Set(1, 0) // clearing
	if v.SupportSize() != 1 {
		t.Fatal("Set(u, 0) must clear the entry")
	}
	v.Set(1, -1e-18) // negative round-off clears too
	if v.Get(1) != 0 {
		t.Fatal("negative values must clear")
	}
	c := v.Clone()
	c.Set(3, 0.25)
	if v.Get(3) != 0.5 {
		t.Fatal("clone must not alias")
	}
}

func TestIndicatorUniform(t *testing.T) {
	e := Indicator(4, 2)
	if e.Get(2) != 1 || e.SupportSize() != 1 || !e.OnSimplex(0) {
		t.Fatalf("indicator wrong: %v", e.Support())
	}
	u := Uniform(6, []int{0, 2, 4})
	if !almostEqual(u.Get(2), 1.0/3) || !u.OnSimplex(1e-12) {
		t.Fatal("uniform wrong")
	}
}

func TestNormalize(t *testing.T) {
	v := New(3)
	v.Set(0, 2)
	v.Set(1, 6)
	v.Normalize()
	if !almostEqual(v.Get(0), 0.25) || !almostEqual(v.Get(1), 0.75) {
		t.Fatalf("normalize wrong: %v %v", v.Get(0), v.Get(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("normalizing zero vector must panic")
		}
	}()
	New(3).Normalize()
}

func TestAffinityPairAndClique(t *testing.T) {
	// Single edge weight w: uniform embedding gives f = 2·(1/2)(1/2)·w = w/2.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 100)
	g := b.Build()
	x := Uniform(2, []int{0, 1})
	if f := Affinity(g, x); !almostEqual(f, 50) {
		t.Fatalf("pair affinity = %v, want 50 (Japan Robotics 2 check)", f)
	}
	// Unit K5 uniform: f = 1 − 1/5 (Motzkin–Straus value).
	k5 := graph.Complete(5, 1)
	x5 := Uniform(5, []int{0, 1, 2, 3, 4})
	if f := Affinity(k5, x5); !almostEqual(f, 0.8) {
		t.Fatalf("K5 affinity = %v, want 0.8", f)
	}
}

func TestAffinityMatchesDenseComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, float64(rng.Intn(9)-4))
				}
			}
		}
		g := b.Build()
		x := New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				x.Set(v, rng.Float64())
			}
		}
		if x.SupportSize() == 0 {
			return true
		}
		x.Normalize()
		// Dense xᵀDx over ordered pairs.
		var want float64
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want += x.Get(u) * x.Get(v) * g.Weight(u, v)
			}
		}
		return almostEqual(Affinity(g, x), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGradient(t *testing.T) {
	// Path 0-1-2 with weights 2 and 4; x = (0.5, 0.5, 0).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 4)
	g := b.Build()
	x := Uniform(3, []int{0, 1})
	// (Dx)_0 = 2·0.5 = 1 → ∇0 = 2. (Dx)_1 = 2·0.5 = 1 → ∇1 = 2.
	// (Dx)_2 = 4·0.5 = 2 → ∇2 = 4.
	if gr := Gradient(g, x, 0); !almostEqual(gr, 2) {
		t.Errorf("grad 0 = %v, want 2", gr)
	}
	if gr := Gradient(g, x, 2); !almostEqual(gr, 4) {
		t.Errorf("grad 2 = %v, want 4", gr)
	}
	gm := GradientMap(g, x)
	if len(gm) != 3 {
		t.Fatalf("gradient map size = %d, want 3", len(gm))
	}
	for u, want := range map[int]float64{0: 2, 1: 2, 2: 4} {
		if !almostEqual(gm[u], want) {
			t.Errorf("gm[%d] = %v, want %v", u, gm[u], want)
		}
	}
	// Vertex 2 has a larger gradient than the support: not a KKT point.
	if IsKKT(g, x, 1e-9) {
		t.Error("x should not be a KKT point (vertex 2 wants in)")
	}
	if v := KKTViolation(g, x); !almostEqual(v, 2) {
		t.Errorf("violation = %v, want 2", v)
	}
}

// At the Motzkin–Straus optimum (uniform on a maximum clique), the KKT
// conditions hold: every clique vertex has gradient 2(k−1)/k = 2f, and
// non-clique vertices cannot exceed it in a graph where the clique is maximum.
func TestKKTAtCliqueOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.45 {
					b.AddEdge(u, v, 1)
				}
			}
		}
		g := b.Build()
		mc := clique.Maximum(g)
		if len(mc) < 2 {
			continue
		}
		x := Uniform(n, mc)
		f := Affinity(g, x)
		k := float64(len(mc))
		if !almostEqual(f, (k-1)/k) {
			t.Fatalf("affinity at uniform clique = %v, want %v", f, (k-1)/k)
		}
		if !IsKKT(g, x, 1e-9) {
			t.Fatalf("uniform max-clique embedding should be KKT; violation=%v clique=%v",
				KKTViolation(g, x), mc)
		}
	}
}

func TestLocalKKT(t *testing.T) {
	// Path 0-1-2, x uniform on {0,1}: locally KKT on S={0,1} (both grads 2)
	// but not globally (vertex 2 has grad 4).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 4)
	g := b.Build()
	x := Uniform(3, []int{0, 1})
	if v := LocalKKTViolation(g, x, []int{0, 1}); v > 1e-9 {
		t.Fatalf("local violation on support = %v, want 0", v)
	}
	if v := LocalKKTViolation(g, x, []int{0, 1, 2}); !almostEqual(v, 2) {
		t.Fatalf("local violation on V = %v, want 2", v)
	}
}

func TestKKTSingleVertexDegenerate(t *testing.T) {
	// x = e_u with no positive neighbors: that is the global optimum of an
	// all-negative graph and must report as KKT.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, -2)
	b.AddEdge(1, 2, -3)
	g := b.Build()
	x := Indicator(3, 0)
	if !IsKKT(g, x, 1e-9) {
		t.Fatalf("single-vertex optimum must be KKT; violation = %v", KKTViolation(g, x))
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Set(3, 0.5)
}

func TestUniformEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Uniform(3, nil)
}

// The workspace's embedding follows Vector's entry semantics — Set(u, ≤0)
// deletes — while letting Set run during a range over Support.
func TestWorkspaceSetSupport(t *testing.T) {
	w := NewWorkspace(6)
	w.Set(4, 0.5)
	w.Set(1, 0.25)
	w.Set(3, 0.25)
	for _, u := range w.Support() { // clearing and adding mid-range is allowed
		if u == 3 {
			w.Set(3, 0)
			w.Set(0, 0.25)
		}
	}
	if S := w.Support(); len(S) != 3 || S[0] != 0 || S[1] != 1 || S[2] != 4 {
		t.Fatalf("support = %v, want [0 1 4]", S)
	}
	w.Set(1, -1e-18) // negative round-off clears too
	w.Set(1, 0.25)   // and a cleared entry can come back
	w.Set(5, 0)      // clearing an absent entry is a no-op
	if S := w.Support(); len(S) != 3 || w.Get(5) != 0 || !almostEqual(w.Sum(), 1) {
		t.Fatalf("support = %v, sum = %v", S, w.Sum())
	}
	v := w.Vector()
	var back Workspace
	back.Load(v)
	if got := back.Vector(); got.SupportSize() != 3 || got.Get(4) != 0.5 || got.Get(0) != 0.25 {
		t.Fatalf("Vector/Load round trip lost entries: %v", got.Support())
	}
	w.Reset(2)
	w.Reset(6)
	for u := 0; u < 6; u++ {
		if w.Get(u) != 0 {
			t.Fatalf("x[%d] survived Reset", u)
		}
	}
	if w.SupportSize() != 0 {
		t.Fatal("support survived Reset")
	}
}

// Affinity and DxEntry on a workspace equal the Vector versions bit for bit.
func TestWorkspaceMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, rng.Float64()*8-3)
				}
			}
		}
		g := b.Build()
		x := New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				x.Set(v, rng.Float64())
			}
		}
		if x.SupportSize() == 0 {
			continue
		}
		x.Normalize()
		w := NewWorkspace(n)
		w.Load(x)
		if w.Affinity(g) != Affinity(g, x) || w.Sum() != x.Sum() {
			t.Fatalf("trial %d: workspace affinity/sum differ from the vector's", trial)
		}
		for u := 0; u < n; u++ {
			if w.DxEntry(g, u) != DxEntry(g, x, u) {
				t.Fatalf("trial %d: DxEntry(%d) differs", trial, u)
			}
		}
	}
}
