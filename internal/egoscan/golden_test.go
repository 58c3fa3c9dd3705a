package egoscan

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// goldenPath holds the Scan outputs recorded before grow/prune moved onto the
// dense workspace. Every float is written as its IEEE-754 bit pattern, so
// TestScanGolden fails if a single bit of any result moves.
const goldenPath = "testdata/egoscan_golden.txt"

// goldenCase is one scan of the equivalence corpus.
type goldenCase struct {
	name string
	gd   *graph.Graph
	opt  Options
}

// goldenCases returns the corpus: seeded co-author emerging and disappearing
// difference graphs at n=300 (the query-mix size) and n=1000, random signed
// graphs with dyadic and with arbitrary fractional weights, single-seed scans,
// a small positive clique, and masked views and backed storage of one graph.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, n := range []int{300, 1000} {
		seeds := int64(6)
		if n == 1000 {
			seeds = 3
		}
		for seed := int64(1); seed <= seeds; seed++ {
			c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: n})
			cs = append(cs,
				goldenCase{fmt.Sprintf("coauthor-emerging-n%d-s%d", n, seed), c.EmergingGD(), Options{}},
				goldenCase{fmt.Sprintf("coauthor-disappearing-n%d-s%d", n, seed), c.DisappearingGD(), Options{}})
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs = append(cs,
			goldenCase{fmt.Sprintf("dyadic-s%d", seed), fractionalSignedGraph(rng, 120, 0.08, true), Options{}},
			goldenCase{fmt.Sprintf("real-s%d", seed), fractionalSignedGraph(rng, 160, 0.06, false), Options{}})
	}
	c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 300})
	cs = append(cs,
		goldenCase{"coauthor-maxseeds1", c.EmergingGD(), Options{MaxSeeds: 1}},
		goldenCase{"real-maxseeds1-rounds2", fractionalSignedGraph(rand.New(rand.NewSource(8)), 160, 0.06, false), Options{MaxSeeds: 1, MaxGrowRounds: 2}},
		goldenCase{"positive-k4", positiveK4(), Options{}})
	// Masked views and parallel-array storage of one graph.
	gd := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 8, N: 300}).EmergingGD()
	var drop []int
	for v := 0; v < gd.N(); v += 3 {
		drop = append(drop, v)
	}
	cs = append(cs,
		goldenCase{"view-positive-part", gd.PositivePart(), Options{}},
		goldenCase{"view-without-vertices", gd.WithoutVertices(drop), Options{}},
		goldenCase{"backed", backedCopy(gd), Options{}})
	return cs
}

// backedCopy rebuilds g over caller-owned copies of its CSR arrays, as a
// memory-mapped snapshot is.
func backedCopy(g *graph.Graph) *graph.Graph {
	off, ids, ws := g.CSR()
	b, err := graph.FromCSRBacked(g.N(), slices.Clone(off), slices.Clone(ids), slices.Clone(ws), nil)
	if err != nil {
		panic(err)
	}
	return b
}

// positiveK4 is a weight-2 K4 hanging off a mostly negative path; the scan
// returns exactly the clique.
func positiveK4() *graph.Graph {
	b := graph.NewBuilder(8)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 2)
		}
	}
	b.AddEdge(3, 4, -5)
	b.AddEdge(4, 5, -5)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, -2)
	return b.Build()
}

// fractionalSignedGraph is an Erdős–Rényi signed graph with slightly more
// positive than negative edges. Dyadic weights are multiples of 1/4 in
// [−1.75, 2.25], so sums are exact and zero gains occur; otherwise weights are
// normal draws, whose sums depend on accumulation order.
func fractionalSignedGraph(rng *rand.Rand, n int, p float64, dyadic bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			var w float64
			if dyadic {
				w = float64(rng.Intn(17)-7) / 4
			} else {
				w = rng.NormFloat64() + 0.2
			}
			if w != 0 {
				b.AddEdge(u, v, w)
			}
		}
	}
	return b.Build()
}

func fbits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenOutput renders one line per corpus case.
func goldenOutput() []byte {
	var w bytes.Buffer
	for _, c := range goldenCases() {
		r := Scan(c.gd, c.opt)
		fmt.Fprintf(&w, "%s n=%d m=%d W=%s rho=%s ed=%s clique=%v S=%v\n",
			c.name, c.gd.N(), c.gd.M(), fbits(r.TotalWeight), fbits(r.Density), fbits(r.EdgeDensity), r.PositiveClique, r.S)
	}
	return w.Bytes()
}

// TestScanGolden pins Scan to the recorded sets and float bits.
func TestScanGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenOutput()
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %.300s\nwant: %.300s", goldenPath, i+1, g, w)
		}
	}
}
