package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// entry is one visible adjacency entry, as VisitNeighbors reports it.
type entry struct {
	To int
	W  float64
}

// neighbors collects u's visible adjacency row through VisitNeighbors; nil
// when the row is empty.
func neighbors(g *Graph, u int) []entry {
	var row []entry
	g.VisitNeighbors(u, func(v int, w float64) { row = append(row, entry{To: v, W: w}) })
	return row
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// paperExample builds the G1, G2 of Fig. 1 in the paper.
// G1 edges: (v1,v3)=2, (v1,v4)=2, (v3,v4)=1, (v3,v5)=3, (v2,v5)=2.
// G2 edges: (v1,v2)=1, (v1,v3)=5, (v1,v4)=6, (v3,v4)=4, (v3,v5)=2, (v2,v5)=3.
// Difference GD: (v1,v2)=1, (v1,v3)=3, (v1,v4)=4, (v3,v4)=3, (v3,v5)=-1,
// (v2,v5)=1. (Vertex vi maps to index i-1.)
func paperExample() (*Graph, *Graph) {
	b1 := NewBuilder(5)
	b1.AddEdge(0, 2, 2)
	b1.AddEdge(0, 3, 2)
	b1.AddEdge(2, 3, 1)
	b1.AddEdge(2, 4, 3)
	b1.AddEdge(1, 4, 2)
	b2 := NewBuilder(5)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(0, 2, 5)
	b2.AddEdge(0, 3, 6)
	b2.AddEdge(2, 3, 4)
	b2.AddEdge(2, 4, 2)
	b2.AddEdge(1, 4, 3)
	return b1.Build(), b2.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 0, 0.5) // merges with the above
	b.AddEdge(2, 3, -1)
	b.AddEdge(1, 3, 0) // dropped
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if w := g.Weight(0, 1); !almostEqual(w, 3.0) {
		t.Errorf("Weight(0,1) = %v, want 3", w)
	}
	if w := g.Weight(1, 0); !almostEqual(w, 3.0) {
		t.Errorf("Weight(1,0) = %v, want 3 (symmetry)", w)
	}
	if w := g.Weight(2, 3); !almostEqual(w, -1) {
		t.Errorf("Weight(2,3) = %v, want -1", w)
	}
	if g.HasEdge(1, 3) {
		t.Error("zero-weight edge must be absent")
	}
	if !almostEqual(g.TotalWeight(), 2.0) {
		t.Errorf("TotalWeight = %v, want 2", g.TotalWeight())
	}
}

func TestBuilderMergeToZeroDropsEdge(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(0, 1, -1.5)
	g := b.Build()
	if g.M() != 0 {
		t.Fatalf("edge with merged weight 0 must be dropped, M=%d", g.M())
	}
}

func TestBuilderPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewBuilder(3).AddEdge(1, 1, 1)
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range vertex")
		}
	}()
	NewBuilder(3).AddEdge(0, 3, 1)
}

func TestAdjacencySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, rng.NormFloat64())
			}
		}
		g := b.Build()
		for u := 0; u < n; u++ {
			row := neighbors(g, u)
			for i := 1; i < len(row); i++ {
				if row[i-1].To >= row[i].To {
					t.Fatalf("adjacency of %d not strictly sorted: %v", u, row)
				}
			}
		}
	}
}

func TestPaperDifferenceGraph(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	want := map[[2]int]float64{
		{0, 1}: 1, {0, 2}: 3, {0, 3}: 4, {2, 3}: 3, {2, 4}: -1, {1, 4}: 1,
	}
	if gd.M() != len(want) {
		t.Fatalf("GD has %d edges, want %d", gd.M(), len(want))
	}
	for k, w := range want {
		if got := gd.Weight(k[0], k[1]); !almostEqual(got, w) {
			t.Errorf("D(%d,%d) = %v, want %v", k[0], k[1], got, w)
		}
	}
	// GD+ drops the single negative edge (v3,v5).
	gp := gd.PositivePart()
	if gp.M() != 5 {
		t.Fatalf("GD+ has %d edges, want 5", gp.M())
	}
	if gp.HasEdge(2, 4) {
		t.Error("GD+ must not contain the negative edge (v3,v5)")
	}
}

func TestDifferenceAlpha(t *testing.T) {
	g1, g2 := paperExample()
	gd := DifferenceAlpha(g1, g2, 2)
	// D(v1,v3) = 5 - 2*2 = 1; D(v3,v5) = 2 - 2*3 = -4.
	if w := gd.Weight(0, 2); !almostEqual(w, 1) {
		t.Errorf("alpha=2: D(v1,v3) = %v, want 1", w)
	}
	if w := gd.Weight(2, 4); !almostEqual(w, -4) {
		t.Errorf("alpha=2: D(v3,v5) = %v, want -4", w)
	}
	// Edge present only in G1 gets weight -alpha*w1.
	if w := gd.Weight(0, 1); !almostEqual(w, 1) {
		t.Errorf("alpha=2: D(v1,v2) = %v, want 1", w)
	}
}

func TestDifferenceCancellation(t *testing.T) {
	b1 := NewBuilder(3)
	b1.AddEdge(0, 1, 2)
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1, 2)
	b2.AddEdge(1, 2, 1)
	gd := Difference(b1.Build(), b2.Build())
	if gd.HasEdge(0, 1) {
		t.Error("identical edge must cancel out of GD")
	}
	if !gd.HasEdge(1, 2) {
		t.Error("edge only in G2 must remain")
	}
}

func TestDifferencePanicsOnMismatchedN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for graphs of different sizes")
		}
	}()
	Difference(NewBuilder(3).Build(), NewBuilder(4).Build())
}

// Property: D = A2 − A1 entrywise, for random graph pairs.
func TestDifferenceMatchesMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		mk := func() *Graph {
			b := NewBuilder(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < 0.4 {
						b.AddEdge(u, v, float64(rng.Intn(9)-4))
					}
				}
			}
			return b.Build()
		}
		g1, g2 := mk(), mk()
		gd := Difference(g1, g2)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				if !almostEqual(gd.Weight(u, v), g2.Weight(u, v)-g1.Weight(u, v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: graphs are symmetric — Weight(u,v) == Weight(v,u) and adjacency
// degree sums are consistent with 2*TotalWeight.
func TestSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := NewBuilder(n)
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, rng.NormFloat64())
			}
		}
		g := b.Build()
		var degSum float64
		for u := 0; u < n; u++ {
			degSum += g.WeightedDegree(u)
			for _, nb := range neighbors(g, u) {
				if !almostEqual(g.Weight(nb.To, u), nb.W) {
					return false
				}
			}
		}
		return almostEqual(degSum, 2*g.TotalWeight())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDensities(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	// S = {v1,v3,v4}: edges (v1,v3)=3, (v1,v4)=4, (v3,v4)=3. The paper's W(S)
	// counts every edge in both directions: W = 2·(3+4+3) = 20, ρ = 20/3.
	S := []int{0, 2, 3}
	if w := gd.TotalDegreeOf(S); !almostEqual(w, 20) {
		t.Errorf("W(S) = %v, want 20", w)
	}
	if r := gd.AverageDegreeOf(S); !almostEqual(r, 20.0/3) {
		t.Errorf("rho(S) = %v, want 20/3", r)
	}
	if d := gd.EdgeDensityOf(S); !almostEqual(d, 20.0/9) {
		t.Errorf("edge density = %v, want 20/9", d)
	}
	if r := gd.AverageDegreeOf(nil); r != 0 {
		t.Errorf("rho(empty) = %v, want 0", r)
	}
}

func TestDegreeIn(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	in := make([]bool, 5)
	in[0], in[2], in[3] = true, true, true
	if d := gd.DegreeIn(0, in); !almostEqual(d, 7) { // 3+4
		t.Errorf("W(v1; G(S)) = %v, want 7", d)
	}
	if d := gd.DegreeIn(2, in); !almostEqual(d, 6) { // 3+3
		t.Errorf("W(v3; G(S)) = %v, want 6", d)
	}
}

func TestInduced(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	sub, orig := gd.Induced([]int{0, 2, 3})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced: n=%d m=%d, want 3,3", sub.N(), sub.M())
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 3 {
		t.Fatalf("orig mapping = %v", orig)
	}
	if !almostEqual(sub.Weight(0, 1), 3) || !almostEqual(sub.Weight(0, 2), 4) || !almostEqual(sub.Weight(1, 2), 3) {
		t.Error("induced weights wrong")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, -2) // negative edges still connect
	b.AddEdge(3, 4, 1)
	g := b.Build()
	comps := g.ConnectedComponents([]int{0, 1, 2, 3, 4, 5})
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3 ({0,1,2},{3,4},{5})", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if !g.IsConnected([]int{0, 1, 2}) {
		t.Error("{0,1,2} should be connected")
	}
	if g.IsConnected([]int{0, 3}) {
		t.Error("{0,3} should be disconnected")
	}
	if !g.IsConnected([]int{6}) || !g.IsConnected(nil) {
		t.Error("singletons and empty sets are connected by convention")
	}
}

func TestBestComponent(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 10) // component density 2·10/2 = 10
	b.AddEdge(2, 3, 2)
	b.AddEdge(3, 4, 2) // component {2,3,4} density 2·4/3 = 8/3
	g := b.Build()
	best, rho := g.BestComponent([]int{0, 1, 2, 3, 4})
	if len(best) != 2 || !almostEqual(rho, 10) {
		t.Fatalf("best component = %v rho=%v, want {0,1} rho=10", best, rho)
	}
}

// Property 1 of the paper: the best connected component has density at least
// that of the whole (possibly disconnected) set.
func TestBestComponentDominatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					b.AddEdge(u, v, float64(rng.Intn(11)-5))
				}
			}
		}
		g := b.Build()
		S := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.7 {
				S = append(S, v)
			}
		}
		if len(S) == 0 {
			return true
		}
		_, rho := g.BestComponent(S)
		return rho >= g.AverageDegreeOf(S)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxEdge(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	e, ok := gd.MaxEdge()
	if !ok || e.U != 0 || e.V != 3 || !almostEqual(e.W, 4) {
		t.Fatalf("max edge = %+v ok=%v, want (0,3,4)", e, ok)
	}
	if _, ok := NewBuilder(3).Build().MaxEdge(); ok {
		t.Error("edgeless graph must report no max edge")
	}
}

func TestIsPositiveClique(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	if !gd.IsPositiveClique([]int{0, 2, 3}) {
		t.Error("{v1,v3,v4} is a positive clique in GD")
	}
	if gd.IsPositiveClique([]int{0, 2, 4}) {
		t.Error("{v1,v3,v5} has edge (v3,v5)<0 and a missing edge")
	}
	if !gd.IsPositiveClique([]int{1}) || !gd.IsPositiveClique(nil) {
		t.Error("singleton/empty are positive cliques by convention")
	}
}

func TestNegateScaleCap(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	ng := gd.Negate()
	if w := ng.Weight(2, 4); !almostEqual(w, 1) {
		t.Errorf("negated D(v3,v5) = %v, want 1", w)
	}
	if !almostEqual(ng.TotalWeight(), -gd.TotalWeight()) {
		t.Error("negate must flip total weight")
	}
	sc := gd.Scale(0.5)
	if w := sc.Weight(0, 3); !almostEqual(w, 2) {
		t.Errorf("scaled D(v1,v4) = %v, want 2", w)
	}
	capped := gd.CapWeights(3)
	if w := capped.Weight(0, 3); !almostEqual(w, 3) {
		t.Errorf("capped D(v1,v4) = %v, want 3", w)
	}
	if w := capped.Weight(2, 4); !almostEqual(w, -1) {
		t.Errorf("cap must not touch negative weights, got %v", w)
	}
	zero := gd.Scale(0)
	if zero.M() != 0 || zero.N() != gd.N() {
		t.Error("scale by 0 must produce an edgeless graph over the same vertices")
	}
}

func TestDiscretizeLevels(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 7)  // >= 5  → 2
	b.AddEdge(0, 2, 3)  // in [2,5) → 1
	b.AddEdge(0, 3, 1)  // in (0,2) → dropped
	b.AddEdge(0, 4, -2) // in (-4,0) → -1
	b.AddEdge(0, 5, -9) // <= -4 → -2
	g := b.Build().DiscretizeLevels(2, 5)
	if w := g.Weight(0, 1); w != 2 {
		t.Errorf("level(7) = %v, want 2", w)
	}
	if w := g.Weight(0, 2); w != 1 {
		t.Errorf("level(3) = %v, want 1", w)
	}
	if g.HasEdge(0, 3) {
		t.Error("level(1) must be dropped")
	}
	if w := g.Weight(0, 4); w != -1 {
		t.Errorf("level(-2) = %v, want -1", w)
	}
	if w := g.Weight(0, 5); w != -2 {
		t.Errorf("level(-9) = %v, want -2", w)
	}
}

func TestComputeStats(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	st := gd.ComputeStats()
	if st.N != 5 || st.MPos != 5 || st.MNeg != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !almostEqual(st.MaxW, 4) || !almostEqual(st.MinW, -1) {
		t.Errorf("max/min = %v/%v, want 4/-1", st.MaxW, st.MinW)
	}
	if !almostEqual(st.AvgW, (1+3+4+3-1+1)/6.0) {
		t.Errorf("avg = %v", st.AvgW)
	}
	if !almostEqual(st.Density, 1.0) { // 5 positive edges / 5 vertices
		t.Errorf("density m+/n = %v, want 1", st.Density)
	}
	empty := NewBuilder(0).Build().ComputeStats()
	if empty.N != 0 || empty.AvgW != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5, 2)
	if g.M() != 10 {
		t.Fatalf("K5 has %d edges, want 10", g.M())
	}
	if !almostEqual(g.AverageDegreeOf([]int{0, 1, 2, 3, 4}), 8) {
		t.Error("K5 with weight 2 has average degree 2*(n-1) = 8")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g1, g2 := paperExample()
	gd := Difference(g1, g2)
	es := gd.Edges()
	if len(es) != gd.M() {
		t.Fatalf("Edges returned %d, want %d", len(es), gd.M())
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (es[i-1].U > e.U || (es[i-1].U == e.U && es[i-1].V >= e.V)) {
			t.Errorf("edges not sorted at %d", i)
		}
	}
}
