package dcs

import (
	"context"
	"math"
	"testing"
)

// fig1 builds the paper's Fig. 1 example pair (vi ↦ i−1).
func fig1() (*Graph, *Graph) {
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

var bg = context.Background()

func TestPublicAverageDegree(t *testing.T) {
	g1, g2 := fig1()
	res := FindAverageDegreeDCSOnParCtx(bg, Difference(g1, g2), 1)
	if math.Abs(res.Density-20.0/3) > 1e-9 {
		t.Fatalf("density = %v, want 20/3", res.Density)
	}
	if len(res.S) != 3 {
		t.Fatalf("S = %v, want the triangle {0,2,3}", res.S)
	}
	// Disappearing direction: best is the (v3,v5) edge with density 1.
	dis := FindAverageDegreeDCSOnParCtx(bg, Difference(g2, g1), 1)
	if math.Abs(dis.Density-1) > 1e-9 {
		t.Fatalf("disappearing density = %v, want 1", dis.Density)
	}
}

func TestPublicGraphAffinity(t *testing.T) {
	g1, g2 := fig1()
	res := FindGraphAffinityDCSOnCtx(bg, Difference(g1, g2), nil)
	if math.Abs(res.Affinity-2.25) > 1e-6 {
		t.Fatalf("affinity = %v, want 2.25", res.Affinity)
	}
	if !res.PositiveClique {
		t.Fatal("affinity DCS must be a positive clique")
	}
	sum := 0.0
	for _, v := range res.S {
		sum += res.X.Get(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("embedding mass = %v, want 1", sum)
	}
}

func TestPublicDifferenceAlpha(t *testing.T) {
	g1, g2 := fig1()
	gd := DifferenceAlpha(g1, g2, 2)
	if w := gd.Weight(0, 2); math.Abs(w-1) > 1e-9 {
		t.Fatalf("alpha-difference weight = %v, want 1", w)
	}
	res := FindAverageDegreeDCSOnParCtx(bg, gd, 1)
	if res.Density <= 0 {
		t.Fatalf("alpha contrast should still be positive, got %v", res.Density)
	}
}

func TestPublicTopContrastCliques(t *testing.T) {
	g1, g2 := fig1()
	cs, interrupted := TopContrastCliquesOnCtx(bg, Difference(g1, g2), nil)
	if interrupted || len(cs) == 0 {
		t.Fatal("expected at least one contrast clique")
	}
	if math.Abs(cs[0].Affinity-2.25) > 1e-6 {
		t.Fatalf("top clique affinity = %v, want 2.25", cs[0].Affinity)
	}
}

func TestPublicMaxTotalWeight(t *testing.T) {
	g1, g2 := fig1()
	gd := Difference(g1, g2)
	res := FindMaxTotalWeightSubgraphOnCtx(bg, gd)
	// Optimum: all positive edges {v1,v2,v3,v4,v5} minus the −1 edge cost…
	// best is {0,1,2,3} with W = 2(1+3+4+3) = 22 or all 5 with
	// W = 2(1+3+4+3−1+1) = 22; either way 22.
	if math.Abs(res.TotalWeight-22) > 1e-9 {
		t.Fatalf("total weight = %v (S=%v), want 22", res.TotalWeight, res.S)
	}
	ad := FindAverageDegreeDCSOnParCtx(bg, gd, 1)
	if res.TotalWeight < ad.TotalWeight {
		t.Fatal("total-weight objective must dominate the density solution's weight")
	}
}

func TestPublicStats(t *testing.T) {
	g1, g2 := fig1()
	st := Difference(g1, g2).ComputeStats()
	if st.N != 5 || st.MPos != 5 || st.MNeg != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicTopK(t *testing.T) {
	// Two disjoint growing cliques.
	b1 := NewBuilder(8)
	b2 := NewBuilder(8)
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			b2.AddEdge(u, v, 5)
		}
	}
	for u := 4; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			b2.AddEdge(u, v, 2)
		}
	}
	gd := Difference(b1.Build(), b2.Build())
	ads, interrupted := TopKAverageDegreeDCSOnParCtx(bg, gd, 5, 1)
	if interrupted || len(ads) != 2 {
		t.Fatalf("want 2 disjoint AD contrasts, got %d", len(ads))
	}
	gas, interrupted := TopKGraphAffinityDCSOnCtx(bg, gd, 5, nil)
	if interrupted || len(gas) != 2 {
		t.Fatalf("want 2 disjoint GA contrasts, got %d", len(gas))
	}
	if gas[0].Affinity < gas[1].Affinity {
		t.Error("strongest clique must come first")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: -1}})
	if g.M() != 2 || g.Weight(1, 2) != -1 {
		t.Fatal("FromEdges wrong")
	}
}
