// Quickstart: mine the density contrast subgraph of the paper's running
// example (Fig. 1) under both density measures, using only the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	dcs "github.com/dcslib/dcs"
)

func main() {
	// Two graphs over the same five vertices v1..v5 (ids 0..4):
	// G1 = relations yesterday, G2 = relations today.
	b1 := dcs.NewBuilder(5)
	b1.AddEdge(0, 2, 2)
	b1.AddEdge(0, 3, 2)
	b1.AddEdge(2, 3, 1)
	b1.AddEdge(2, 4, 3)
	b1.AddEdge(1, 4, 2)
	g1 := b1.Build()

	b2 := dcs.NewBuilder(5)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(0, 2, 5)
	b2.AddEdge(0, 3, 6)
	b2.AddEdge(2, 3, 4)
	b2.AddEdge(2, 4, 2)
	b2.AddEdge(1, 4, 3)
	g2 := b2.Build()

	// The difference graph G2 − G1 has both positive and negative weights.
	gd := dcs.Difference(g1, g2)
	ctx := context.Background()
	st := gd.ComputeStats()
	fmt.Printf("difference graph: n=%d, %d positive and %d negative edges\n",
		st.N, st.MPos, st.MNeg)

	// Average-degree DCS: the subgraph whose average degree grew the most.
	ad := dcs.FindAverageDegreeDCSOnParCtx(ctx, gd, 1)
	fmt.Printf("\naverage-degree DCS: S=%v\n", ad.S)
	fmt.Printf("  density difference %.3f (approx ratio %.2f, connected=%v)\n",
		ad.Density, ad.Ratio, ad.Connected)

	// Graph-affinity DCS: always a positive clique — every pair inside
	// strengthened its connection.
	ga := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, nil)
	fmt.Printf("\ngraph-affinity DCS: S=%v (positive clique: %v)\n", ga.S, ga.PositiveClique)
	fmt.Printf("  affinity difference %.3f; member weights:", ga.Affinity)
	for _, v := range ga.S {
		fmt.Printf(" v%d=%.3f", v+1, ga.X.Get(v))
	}
	fmt.Println()

	// The opposite direction: what became *less* dense? Swap the arguments.
	dis := dcs.FindAverageDegreeDCSOnParCtx(ctx, dcs.Difference(g2, g1), 1)
	fmt.Printf("\ndisappearing DCS: S=%v, density drop %.3f\n", dis.S, dis.Density)
}
