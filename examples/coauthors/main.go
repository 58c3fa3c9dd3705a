// Coauthors: mine emerging and disappearing co-author groups from two
// co-authorship snapshots (the application of Section VI-B), on the
// repository's synthetic DBLP-like dataset.
//
//	go run ./examples/coauthors
package main

import (
	"context"
	"fmt"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/datagen"
)

func main() {
	// Synthetic stand-in for the DBLP co-author snapshots (before/after 2010).
	// Planted contrast groups play the role of the real findings (UTA ML,
	// CMU Privacy & Security, Japan Robotics, Compiler & Software System).
	data := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 42, N: 1500})
	g1, g2 := data.G1, data.G2
	fmt.Printf("co-author snapshots: n=%d, m1=%d, m2=%d\n\n", g1.N(), g1.M(), g2.M())

	report := func(dir string, a, b *dcs.Graph) {
		gd := dcs.Difference(a, b)
		ad := dcs.FindAverageDegreeDCSOnParCtx(context.Background(), gd, 1)
		fmt.Printf("%s group (average degree): %d authors, density diff %.1f, ratio %.2f, clique=%v\n",
			dir, len(ad.S), ad.Density, ad.Ratio, ad.PositiveClique)
		for _, v := range ad.S {
			fmt.Printf("    %s\n", data.Labels[v])
		}
		ga := dcs.FindGraphAffinityDCSOnCtx(context.Background(), gd, nil)
		fmt.Printf("%s group (graph affinity): %d authors, affinity diff %.1f\n",
			dir, len(ga.S), ga.Affinity)
		for _, v := range ga.S {
			fmt.Printf("    %s (weight %.3f)\n", data.Labels[v], ga.X.Get(v))
		}
		fmt.Println()
	}
	report("emerging", g1, g2)
	report("disappearing", g2, g1)

	// Ground truth for the curious: which groups were planted?
	fmt.Println("planted emerging groups (ground truth):")
	for _, g := range data.EmergingGroups {
		fmt.Printf("    %v\n", g)
	}
}
