package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/simplex"
)

// goldenPath holds the DCSGA outputs recorded before the kernels moved onto
// the dense workspace. Every float is written as its IEEE-754 bit pattern, so
// TestDCSGAGolden fails if a single bit of any result moves.
const goldenPath = "testdata/dcsga_golden.txt"

// goldenGraph is one difference graph of the equivalence corpus.
type goldenGraph struct {
	name string
	gd   *graph.Graph
}

// goldenGraphs returns the corpus: six seeded n=2000 co-author emerging
// difference graphs plus a small signed graph with two planted cliques.
func goldenGraphs() []goldenGraph {
	var gs []goldenGraph
	for seed := int64(1); seed <= 6; seed++ {
		c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 2000})
		gs = append(gs, goldenGraph{fmt.Sprintf("coauthor-%d", seed), c.EmergingGD()})
	}
	gs = append(gs, goldenGraph{"planted", goldenPlanted()})
	return gs
}

// goldenPlanted is a 40-vertex signed graph: a noisy ±1 background, a heavy
// 5-clique and a lighter 8-clique with one negative edge inside it.
func goldenPlanted() *graph.Graph {
	const n = 40
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u*7+v*13)%5 == 0 {
				b.AddEdge(u, v, float64((u+v)%3)-1)
			}
		}
	}
	heavy := []int{3, 11, 19, 27, 35}
	for i, u := range heavy {
		for _, v := range heavy[i+1:] {
			b.AddEdge(u, v, 6+float64((u+v)%4))
		}
	}
	light := []int{0, 5, 9, 14, 22, 30, 33, 38}
	for i, u := range light {
		for _, v := range light[i+1:] {
			w := 2 + float64((u*v)%3)
			if u == 9 && v == 30 {
				w = -3
			}
			b.AddEdge(u, v, w)
		}
	}
	return b.Build()
}

func fbits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func vecBits(x *simplex.Vector) string {
	var sb strings.Builder
	x.Visit(func(u int, xu float64) {
		fmt.Fprintf(&sb, " %d:%s", u, fbits(xu))
	})
	return sb.String()
}

func statsLine(st GAStats) string {
	return fmt.Sprintf("inits=%d shrink=%d exp=%d experr=%d refine=%d",
		st.Inits, st.ShrinkIters, st.Expansions, st.ExpansionErrors, st.RefineSteps)
}

// goldenRecord renders every DCSGA output the corpus pins for one graph.
func goldenRecord(w *bytes.Buffer, g goldenGraph) {
	fmt.Fprintf(w, "graph %s n=%d m=%d\n", g.name, g.gd.N(), g.gd.M())
	cs := CollectCliques(g.gd, GAOptions{})
	fmt.Fprintf(w, "collect %d\n", len(cs))
	for _, c := range cs {
		fmt.Fprintf(w, "  S=%v f=%s x=%s\n", c.S, fbits(c.Affinity), vecBits(c.X))
	}
	for _, p := range []int{1, 2} {
		top := TopKGraphAffinity(g.gd, 3, GAOptions{Parallelism: p})
		fmt.Fprintf(w, "topk3 p=%d %d\n", p, len(top))
		for _, c := range top {
			fmt.Fprintf(w, "  S=%v f=%s x=%s\n", c.S, fbits(c.Affinity), vecBits(c.X))
		}
	}
	res := NewSEA(g.gd, GAOptions{})
	fmt.Fprintf(w, "newsea S=%v f=%s %s x=%s\n", res.S, fbits(res.Affinity), statsLine(res.Stats), vecBits(res.X))
	res = SEARefineFull(g.gd, GAOptions{})
	fmt.Fprintf(w, "searefine S=%v f=%s %s\n", res.S, fbits(res.Affinity), statsLine(res.Stats))
	for i := 0; i < len(cs) && i < 3; i++ {
		fmt.Fprintf(w, "embed S=%v x=%s\n", cs[i].S, vecBits(CliqueEmbedding(g.gd, cs[i].S)))
	}
}

// goldenOutput renders the whole corpus. Graphs are solved concurrently
// (the race-detector run is long otherwise) and concatenated in corpus order.
func goldenOutput() []byte {
	gs := goldenGraphs()
	recs := make([]bytes.Buffer, len(gs))
	par.Run(runtime.GOMAXPROCS(0), len(gs), func(i int) { goldenRecord(&recs[i], gs[i]) })
	var w bytes.Buffer
	for i := range recs {
		w.Write(recs[i].Bytes())
	}
	return w.Bytes()
}

// TestDCSGAGolden pins CollectCliques, TopKGraphAffinity (k=3 at
// Parallelism 1 and 2), NewSEA, SEARefineFull and CliqueEmbedding to the
// recorded float bits: a kernel rewrite must reproduce every accumulation
// order exactly.
func TestDCSGAGolden(t *testing.T) {
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
