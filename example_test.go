package dcs_test

import (
	"context"
	"fmt"

	dcs "github.com/dcslib/dcs"
)

// Example mines the emerging subgraph of the paper's Fig. 1 under both
// density measures.
func Example() {
	// Yesterday's relations.
	b1 := dcs.NewBuilder(5)
	b1.AddEdge(0, 2, 2)
	b1.AddEdge(0, 3, 2)
	b1.AddEdge(2, 3, 1)
	b1.AddEdge(2, 4, 3)
	b1.AddEdge(1, 4, 2)
	// Today's relations.
	b2 := dcs.NewBuilder(5)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(0, 2, 5)
	b2.AddEdge(0, 3, 6)
	b2.AddEdge(2, 3, 4)
	b2.AddEdge(2, 4, 2)
	b2.AddEdge(1, 4, 3)
	gd := dcs.Difference(b1.Build(), b2.Build())
	ctx := context.Background()

	ad := dcs.FindAverageDegreeDCSOnParCtx(ctx, gd, 1)
	fmt.Printf("average degree: S=%v density=%.3f\n", ad.S, ad.Density)

	ga := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, nil)
	fmt.Printf("graph affinity: S=%v f=%.3f clique=%v\n", ga.S, ga.Affinity, ga.PositiveClique)
	// Output:
	// average degree: S=[0 2 3] density=6.667
	// graph affinity: S=[0 2 3] f=2.250 clique=true
}

// ExampleDifferenceAlpha shows α-quasi-contrast mining: require the new
// density to be at least α times the old one.
func ExampleDifferenceAlpha() {
	b1 := dcs.NewBuilder(3)
	b1.AddEdge(0, 1, 2)
	b2 := dcs.NewBuilder(3)
	b2.AddEdge(0, 1, 3)
	b2.AddEdge(1, 2, 1)
	gd := dcs.DifferenceAlpha(b1.Build(), b2.Build(), 2)
	res := dcs.FindAverageDegreeDCSOnParCtx(context.Background(), gd, 1)
	fmt.Printf("S=%v density=%.2f\n", res.S, res.Density)
	// Output:
	// S=[1 2] density=1.00
}

// ExampleTopKAverageDegreeDCSOnParCtx mines several vertex-disjoint contrast
// subgraphs at once: two groups tightened between the snapshots, and top-k
// mining reports both, strongest first.
func ExampleTopKAverageDegreeDCSOnParCtx() {
	g1 := dcs.NewBuilder(8).Build() // no relations yesterday
	b2 := dcs.NewBuilder(8)         // two new cliques today
	b2.AddEdge(0, 1, 5)
	b2.AddEdge(0, 2, 5)
	b2.AddEdge(1, 2, 5)
	b2.AddEdge(4, 5, 3)
	b2.AddEdge(4, 6, 3)
	b2.AddEdge(5, 6, 3)

	gd := dcs.Difference(g1, b2.Build())
	results, _ := dcs.TopKAverageDegreeDCSOnParCtx(context.Background(), gd, 3, 1)
	for i, res := range results {
		fmt.Printf("#%d S=%v density=%.0f\n", i+1, res.S, res.Density)
	}
	// Output:
	// #1 S=[0 1 2] density=10
	// #2 S=[4 5 6] density=6
}

// ExampleFindMaxRatioContrastParCtx certifies the largest α such that some
// subgraph is α times denser in the new snapshot: the triangle tripled its
// weights, so α = 3 with the triangle as witness.
func ExampleFindMaxRatioContrastParCtx() {
	b1 := dcs.NewBuilder(4)
	b1.AddEdge(0, 1, 1)
	b1.AddEdge(1, 2, 1)
	b1.AddEdge(0, 2, 1)
	b1.AddEdge(2, 3, 4)
	b2 := dcs.NewBuilder(4)
	b2.AddEdge(0, 1, 3)
	b2.AddEdge(1, 2, 3)
	b2.AddEdge(0, 2, 3)
	b2.AddEdge(2, 3, 4) // unchanged

	res := dcs.FindMaxRatioContrastParCtx(context.Background(), b1.Build(), b2.Build(), 1)
	fmt.Printf("alpha=%.2f S=%v rho2=%.0f rho1=%.0f\n",
		res.Alpha, res.S, res.Density2, res.Density1)
	// Output:
	// alpha=3.00 S=[0 1 2] rho2=6 rho1=2
}
