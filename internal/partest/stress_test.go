package partest

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
)

// TestConcurrentSolvesSharedGraph runs many parallel solves against the SAME
// graph objects at once. Graphs are advertised as safe for concurrent readers
// (their scratch buffers come from shared pools), and each parallel solve
// additionally forks workers internally — run under -race this test is the
// proof. Every solve must still produce the sequential answer.
func TestConcurrentSolvesSharedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	gd := Disconnected(rng, 9, 10, 5)
	g1, g2 := PositivePair(rng, 30, 0.3, 1.0)

	wantAD := core.DCSGreedy(gd)
	wantTopK := core.TopKAverageDegree(gd, 3)
	wantRatio := core.MaxRatioContrast(g1, g2)
	wantGA := core.NewSEA(gd, core.GAOptions{})

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*4)
	for i := 0; i < goroutines; i++ {
		deg := Degrees[i%len(Degrees)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := core.DCSGreedyCtx(context.Background(), gd, deg); !reflect.DeepEqual(got, wantAD) {
				errs <- "DCSGreedyCtx diverged under concurrency"
			}
			if got := core.TopKAverageDegreePar(gd, 3, deg); !reflect.DeepEqual(got, wantTopK) {
				errs <- "TopKAverageDegreePar diverged under concurrency"
			}
			if got := core.MaxRatioContrastCtx(context.Background(), g1, g2, deg); !reflect.DeepEqual(got, wantRatio) {
				errs <- "MaxRatioContrastCtx diverged under concurrency"
			}
			if got := core.NewSEA(gd, core.GAOptions{Parallelism: deg}); !reflect.DeepEqual(got, wantGA) {
				errs <- "NewSEA diverged under concurrency"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestCancelBeforeSolve is the deterministic half of the cancellation
// contract: a solve started with an already-dead context must return
// promptly (one checkpoint interval per worker) and still produce a valid,
// non-empty partial result — the merge of whatever peel prefixes completed,
// which with an immediate cancellation is the whole-graph candidate.
func TestCancelBeforeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gd := RandomSigned(rng, 200, 0.05, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, deg := range Degrees {
		start := time.Now()
		res := core.DCSGreedyCtx(ctx, gd, deg)
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("degree %d: cancelled solve took %v", deg, elapsed)
		}
		if !res.Interrupted {
			t.Fatalf("degree %d: cancelled solve not marked Interrupted", deg)
		}
		if len(res.S) == 0 {
			t.Fatalf("degree %d: cancelled solve returned an empty subgraph", deg)
		}
		if res.Ratio != 0 {
			t.Fatalf("degree %d: interrupted solve kept certificate %v", deg, res.Ratio)
		}
		if err := core.ValidateAD(gd, res); err != nil {
			t.Fatalf("degree %d: partial result invalid: %v", deg, err)
		}
	}
}

// TestCancelMidRound cancels while parallel peel rounds are in flight and
// asserts the solve unwinds promptly with an exact partial: workers poll
// their forked run states once per pop, so the return latency is bounded by
// checkpoint intervals, not by the remaining work.
func TestCancelMidRound(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	// Large enough that a full solve takes visible time even on fast machines.
	gd := RandomSigned(rng, 900, 0.02, 5)
	for _, deg := range Degrees {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		res := core.DCSGreedyCtx(ctx, gd, deg)
		elapsed := time.Since(start)
		cancel()
		if elapsed > 10*time.Second {
			t.Fatalf("degree %d: cancelled solve took %v", deg, elapsed)
		}
		if len(res.S) == 0 {
			t.Fatalf("degree %d: cancelled solve returned an empty subgraph", deg)
		}
		// The solve may legitimately have finished before the deadline fired;
		// only an actually-interrupted run loses its certificate.
		if res.Interrupted && res.Ratio != 0 {
			t.Fatalf("degree %d: interrupted solve kept certificate %v", deg, res.Ratio)
		}
		if err := core.ValidateAD(gd, res); err != nil {
			t.Fatalf("degree %d: partial result invalid: %v", deg, err)
		}
	}
}

// TestGreedyParManyComponentsStress hammers the component fan-out with far
// more components than workers, under every degree concurrently — the shape
// where task claiming, the shared loc map and the merge heap all work
// hardest. Run under -race this doubles as the data-race check for the
// peel's shared read-only state.
func TestGreedyParManyComponentsStress(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	g := Disconnected(rng, 25, 40, 6)
	want := densest.Greedy(g)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		deg := Degrees[i%len(Degrees)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				got := densest.GreedyPar(g, deg)
				if got.Density != want.Density || !reflect.DeepEqual(got.S, want.S) {
					t.Errorf("degree %d: diverged from sequential", deg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPeelLadderSharedViews runs the degree ladder concurrently over one set
// of shared graphs and views of them. The sign-filter views hide negative
// edges that join their positive components, so a peel worker that read a
// hidden neighbor's heap slot would read another worker's component: run
// under -race, this test is the proof that none does. Every answer must
// equal the sequential one.
func TestPeelLadderSharedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := RandomSigned(rng, 300, 0.03, 5)
	strip := []int{0, 7, 77, 150, 299}
	graphs := []*graph.Graph{g, g.PositivePart(), g.WithoutVertices(strip), g.PositivePart().WithoutVertices(strip)}
	wantPeel := make([]densest.Result, len(graphs))
	wantTopK := make([][]core.ADResult, len(graphs))
	for i, h := range graphs {
		wantPeel[i] = densest.Greedy(h)
		wantTopK[i] = core.TopKAverageDegree(h, 3)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, deg := range Degrees {
				for j, h := range graphs {
					got := densest.GreedyPar(h, deg)
					if got.Density != wantPeel[j].Density || !reflect.DeepEqual(got.S, wantPeel[j].S) {
						t.Errorf("graph %d degree %d: peel diverged from sequential", j, deg)
						return
					}
					if top := core.TopKAverageDegreePar(h, 3, deg); !reflect.DeepEqual(top, wantTopK[j]) {
						t.Errorf("graph %d degree %d: top-k diverged from sequential", j, deg)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
