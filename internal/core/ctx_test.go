package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/dcslib/dcs/internal/graph"
)

// randomDiffGraph builds a signed pseudo-difference graph large enough that
// the solvers do real work but small enough for fast tests.
func randomDiffGraph(n int, density float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				b.AddEdge(u, v, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// cancelledCtx returns a context that is already done.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestDCSGreedyCtxBackgroundMatches(t *testing.T) {
	gd := randomDiffGraph(200, 0.1, 1)
	plain := DCSGreedy(gd)
	ctxed := DCSGreedyCtx(context.Background(), gd, 1)
	if ctxed.Interrupted {
		t.Fatal("background run tagged Interrupted")
	}
	if len(plain.S) != len(ctxed.S) || plain.Density != ctxed.Density || plain.Ratio != ctxed.Ratio {
		t.Fatalf("context-free and background results differ: %+v vs %+v", plain, ctxed)
	}
}

func TestDCSGreedyCtxCancelledReturnsValidPartial(t *testing.T) {
	gd := randomDiffGraph(400, 0.05, 2)
	res := DCSGreedyCtx(cancelledCtx(), gd, 1)
	if !res.Interrupted {
		t.Fatal("pre-cancelled run not tagged Interrupted")
	}
	if len(res.S) == 0 {
		t.Fatal("interrupted run returned an empty subgraph")
	}
	if res.Ratio != 0 {
		t.Fatalf("interrupted run kept an approximation certificate: %v", res.Ratio)
	}
	// All metrics must still describe S exactly.
	if err := ValidateAD(gd, res); err != nil {
		t.Fatalf("interrupted result fails validation: %v", err)
	}
}

func TestNewSEACtxCancelledReturnsValidPartial(t *testing.T) {
	gd := randomDiffGraph(200, 0.15, 3)
	res := NewSEACtx(cancelledCtx(), gd, GAOptions{})
	if !res.Interrupted {
		t.Fatal("pre-cancelled run not tagged Interrupted")
	}
	if err := ValidateGA(gd, res); err != nil {
		t.Fatalf("interrupted result fails validation: %v", err)
	}
	full := NewSEA(gd, GAOptions{})
	if full.Interrupted {
		t.Fatal("uncancelled run tagged Interrupted")
	}
	if full.Affinity < res.Affinity {
		t.Fatalf("full run (%v) worse than interrupted run (%v)", full.Affinity, res.Affinity)
	}
}

func TestCollectCliquesCtxPartial(t *testing.T) {
	gd := randomDiffGraph(150, 0.2, 4)
	full, interrupted := CollectCliquesCtx(context.Background(), gd, GAOptions{})
	if interrupted {
		t.Fatal("background run reported interrupted")
	}
	if len(full) == 0 {
		t.Fatal("fixture found no cliques; pick a denser graph")
	}
	partial, interrupted := CollectCliquesCtx(cancelledCtx(), gd, GAOptions{})
	if !interrupted {
		t.Fatal("pre-cancelled run not reported interrupted")
	}
	if len(partial) > len(full) {
		t.Fatalf("partial run found more cliques (%d) than the full run (%d)", len(partial), len(full))
	}
}

// TestCollectCliquesCtxParallelCancel exercises worker-side cancellation
// under the race detector: cancel fires while parallel initializations run.
func TestCollectCliquesCtxParallelCancel(t *testing.T) {
	gd := randomDiffGraph(300, 0.15, 5)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
		close(done)
	}()
	cliques, _ := CollectCliquesCtx(ctx, gd, GAOptions{Parallelism: 4})
	<-done
	// However the race resolved, every reported clique must be real.
	for _, c := range cliques {
		if len(c.S) == 0 {
			t.Fatal("empty clique reported")
		}
	}
}

func TestTopKAverageDegreeCtxCancelled(t *testing.T) {
	gd := randomDiffGraph(300, 0.05, 6)
	results, interrupted := TopKAverageDegreeCtx(cancelledCtx(), gd, 5, 1)
	if !interrupted {
		t.Fatal("pre-cancelled run not reported interrupted")
	}
	// Best-so-far contract: with no completed picks, the truncated first
	// pick is still returned (what DCSGreedyCtx alone would have given), and
	// it must be a valid tagged subgraph of gd.
	if len(results) > 1 {
		t.Fatalf("pre-cancelled run mined %d subgraphs, want at most the truncated first pick", len(results))
	}
	for _, res := range results {
		if !res.Interrupted {
			t.Fatal("truncated pick not tagged Interrupted")
		}
		if err := ValidateAD(gd, res); err != nil {
			t.Fatalf("truncated pick fails validation: %v", err)
		}
	}
	full, interrupted := TopKAverageDegreeCtx(context.Background(), gd, 5, 1)
	if interrupted {
		t.Fatal("background run reported interrupted")
	}
	plain := TopKAverageDegree(gd, 5)
	if len(full) != len(plain) {
		t.Fatalf("ctx and plain top-k disagree: %d vs %d", len(full), len(plain))
	}
}

func TestMaxRatioContrastCtxCancelled(t *testing.T) {
	// Overlaying weighted graphs: every G2 edge has a G1 counterpart, so the
	// ratio search actually binary-searches.
	b1 := graph.NewBuilder(6)
	b2 := graph.NewBuilder(6)
	rng := rand.New(rand.NewSource(7))
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			w := 1 + rng.Float64()
			b1.AddEdge(u, v, w)
			b2.AddEdge(u, v, w*(1+rng.Float64()))
		}
	}
	g1, g2 := b1.Build(), b2.Build()
	res := MaxRatioContrastCtx(cancelledCtx(), g1, g2, 1)
	if !res.Interrupted {
		t.Fatal("pre-cancelled run not tagged Interrupted")
	}
	full := MaxRatioContrast(g1, g2)
	if full.Interrupted {
		t.Fatal("uncancelled run tagged Interrupted")
	}
	if res.Alpha > full.Alpha+1e-9 {
		t.Fatalf("interrupted lower bound %v exceeds the full search's %v", res.Alpha, full.Alpha)
	}
}

// TestCancellationLatency asserts the acceptance criterion at the core
// layer: a solver on a large graph observes cancellation within one
// checkpoint interval — far under the generous wall-clock bound used here.
func TestCancellationLatency(t *testing.T) {
	gd := randomDiffGraph(1200, 0.02, 8)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		close(started)
		// k is far more subgraphs than the fixture contains, so only the
		// cancellation can end the loop early.
		TopKAverageDegreeCtx(ctx, gd, 1<<30, 1)
		close(finished)
	}()
	<-started
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("solver did not observe cancellation within 5s")
	}
}
