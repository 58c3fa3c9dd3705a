package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
)

// adGoldenPath holds the average-degree (Algorithm 2) outputs recorded
// before the peel moved onto its dense workspace, every float as its
// IEEE-754 bit pattern. Regenerate only for an intended change of answers:
//
//	go test ./internal/core -run TestDCSADGolden -update-dcsad
const adGoldenPath = "testdata/dcsad_golden.txt"

var updateDCSAD = flag.Bool("update-dcsad", false, "rewrite "+adGoldenPath+" from the current code")

// adGoldenCase is one difference graph of the peel corpus, plus the pair it
// was derived from when there is one (MaxRatioContrast needs G1 and G2).
type adGoldenCase struct {
	name   string
	gd     *graph.Graph
	g1, g2 *graph.Graph
}

// adGoldenCases returns the corpus: co-author pairs at two sizes in both
// directions (G2−G1 and G1−G2), WithoutVertices and PositivePart views over
// them, and signed random graphs built for heavy degree ties and many
// components.
func adGoldenCases() []adGoldenCase {
	var cs []adGoldenCase
	for _, cfg := range []datagen.CoauthorConfig{
		{Seed: 1, N: 300}, {Seed: 2, N: 300}, {Seed: 3, N: 2000},
	} {
		c := datagen.CoauthorPair(cfg)
		tag := fmt.Sprintf("coauthor-s%d-n%d", cfg.Seed, cfg.N)
		em, dis := c.EmergingGD(), c.DisappearingGD()
		cs = append(cs,
			adGoldenCase{tag + "-g2-g1", em, c.G1, c.G2},
			adGoldenCase{tag + "-g1-g2", dis, c.G2, c.G1},
			adGoldenCase{tag + "-g2-g1-without", em.WithoutVertices(adGoldenStrip(em)), nil, nil},
			adGoldenCase{tag + "-g1-g2-pos", dis.PositivePart(), nil, nil},
			adGoldenCase{tag + "-g2-g1-pos-without", em.PositivePart().WithoutVertices(adGoldenStrip(em)), nil, nil},
		)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3; i++ {
		ties := adGoldenTies(rng, 150+50*i, 0.04)
		cs = append(cs,
			adGoldenCase{fmt.Sprintf("ties-%d", i), ties, nil, nil},
			adGoldenCase{fmt.Sprintf("blocks-%d", i), adGoldenBlocks(rng, 12+4*i, 20), nil, nil},
			adGoldenCase{fmt.Sprintf("ties-%d-without", i), ties.WithoutVertices(adGoldenStrip(ties)), nil, nil},
		)
	}
	return cs
}

// adGoldenStrip picks a deterministic vertex set to hide: every 9th vertex
// plus the heaviest edge's endpoints, so the view cuts through the densest
// region rather than only its periphery.
func adGoldenStrip(gd *graph.Graph) []int {
	var S []int
	for v := 4; v < gd.N(); v += 9 {
		S = append(S, v)
	}
	if e, ok := gd.MaxEdge(); ok {
		S = append(S, e.U, e.V)
	}
	return S
}

// adGoldenTies is a sparse signed graph with weights in {−1, 1, 2}: almost
// every peel step is a degree tie broken by vertex id.
func adGoldenTies(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	ws := []float64{-1, 1, 1, 2}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v, ws[rng.Intn(len(ws))])
			}
		}
	}
	return b.Build()
}

// adGoldenBlocks is many disjoint signed blobs of skewed sizes with isolated
// vertices interleaved through the id space: the peel fans out over dozens
// of components and the merge replays them by (degree, id).
func adGoldenBlocks(rng *rand.Rand, blocks, isolated int) *graph.Graph {
	n := blocks*(blocks+3)/2 + isolated
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	next := 0
	for i := 0; i < blocks; i++ {
		size := i + 2
		members := perm[next : next+size]
		next += size
		for a := 0; a < size; a++ {
			for c := a + 1; c < size; c++ {
				if rng.Float64() < 0.6 {
					if w := rng.Intn(7) - 2; w != 0 {
						b.AddEdge(members[a], members[c], float64(w))
					}
				}
			}
		}
	}
	return b.Build()
}

func adLine(r ADResult) string {
	return fmt.Sprintf("S=%v rho=%s w=%s ed=%s ratio=%s pc=%t conn=%t int=%t",
		r.S, fbits(r.Density), fbits(r.TotalWeight), fbits(r.EdgeDensity), fbits(r.Ratio),
		r.PositiveClique, r.Connected, r.Interrupted)
}

// adGoldenRecord renders every Algorithm 2 output the corpus pins for one
// case.
func adGoldenRecord(w *bytes.Buffer, c adGoldenCase) {
	fmt.Fprintf(w, "graph %s n=%d m=%d view=%t\n", c.name, c.gd.N(), c.gd.M(), c.gd.IsView())
	res := DCSGreedy(c.gd)
	fmt.Fprintf(w, "greedy %s\n", adLine(res))
	for _, p := range []int{1, 2} {
		top := TopKAverageDegreePar(c.gd, 10, p)
		fmt.Fprintf(w, "topk10 p=%d %d\n", p, len(top))
		for _, r := range top {
			fmt.Fprintf(w, "  %s\n", adLine(r))
		}
	}
	// Warm starts: from a peel answer of the graph itself (usually a local
	// optimum already), from a shifted copy of it, and from an arbitrary
	// low-id set that LocalImprove must climb away from.
	shifted := make([]int, 0, len(res.S))
	for _, v := range res.S {
		shifted = append(shifted, (v+1)%c.gd.N())
	}
	arbitrary := []int{0, 1, 2, 3, 5, 8, 13, 21, 34}
	for i, prior := range [][]int{res.S, shifted, arbitrary} {
		if c.gd.N() == 0 {
			break
		}
		var in []int
		for _, v := range prior {
			if v < c.gd.N() {
				in = append(in, v)
			}
		}
		imp := densest.LocalImprove(c.gd, in, 0)
		fmt.Fprintf(w, "improve%d S=%v rho=%s\n", i, imp.S, fbits(imp.Density))
		warm, hit := DCSGreedyWarmCtx(context.Background(), c.gd, in)
		fmt.Fprintf(w, "warm%d hit=%t %s\n", i, hit, adLine(warm))
	}
	if c.g1 != nil {
		// The raw pair has G2-only edges (the +Inf case); blending each graph
		// into the other gives both the union's edge set, so the binary
		// search runs its full course over a finite bracket.
		blend1, blend2 := graph.Blend(c.g1, c.g2, 1, 0.25), graph.Blend(c.g1, c.g2, 0.25, 1)
		for _, pair := range [][2]*graph.Graph{{c.g1, c.g2}, {blend1, blend2}} {
			rr := MaxRatioContrast(pair[0], pair[1])
			fmt.Fprintf(w, "ratio alpha=%s S=%v d2=%s d1=%s int=%t\n",
				fbits(rr.Alpha), rr.S, fbits(rr.Density2), fbits(rr.Density1), rr.Interrupted)
		}
	}
}

// adGoldenOutput renders the whole corpus, cases solved concurrently and
// concatenated in corpus order.
func adGoldenOutput() []byte {
	cs := adGoldenCases()
	recs := make([]bytes.Buffer, len(cs))
	par.Run(runtime.GOMAXPROCS(0), len(cs), func(i int) { adGoldenRecord(&recs[i], cs[i]) })
	var w bytes.Buffer
	for i := range recs {
		w.Write(recs[i].Bytes())
	}
	return w.Bytes()
}

// TestDCSADGolden pins DCSGreedy, TopKAverageDegree (k=10 at parallelism 1
// and 2), DCSGreedyWarmCtx and MaxRatioContrast to the recorded float bits:
// a peel rewrite must reproduce the (pop-degree, id) removal order and every
// accumulation order exactly.
func TestDCSADGolden(t *testing.T) {
	got := adGoldenOutput()
	if *updateDCSAD {
		if err := os.WriteFile(adGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(adGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("%s line %d differs:\n got: %.300s\nwant: %.300s", adGoldenPath, i+1, g, w)
		}
	}
}
