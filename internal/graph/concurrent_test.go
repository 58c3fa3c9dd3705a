package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Graphs advertise concurrent-reader safety (scratch.go pools the mark
// buffers precisely so that one graph can serve many goroutines), but until
// the parallel solver engine nothing exercised it: the tests below hammer
// Compact, masked VisitNeighbors, WithoutVertices and TotalDegreeOf from
// many goroutines against one shared view and, under -race, prove the claim.

func randomTestGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if w := rng.Intn(11) - 4; w != 0 {
					b.AddEdge(u, v, float64(w))
				}
			}
		}
	}
	return b.Build()
}

func TestCompactConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomTestGraph(rng, 120, 0.1)
	drop := []int{3, 17, 42, 90, 91, 92}
	view := g.WithoutVertices(drop)
	want := view.Compact()

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				c := view.Compact()
				if c.N() != want.N() || c.M() != want.M() || c.TotalWeight() != want.TotalWeight() {
					errs <- "Compact diverged under concurrent readers"
					return
				}
				// Row-level equality against the reference compaction.
				for u := 0; u < c.N(); u++ {
					if !reflect.DeepEqual(neighbors(c, u), neighbors(want, u)) {
						errs <- "Compact produced a different adjacency row concurrently"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestMaskedVisitNeighborsConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := randomTestGraph(rng, 150, 0.08)
	view := g.WithoutVertices([]int{0, 5, 50, 149})

	// Reference degree sums computed single-threaded.
	want := make([]float64, view.N())
	for u := 0; u < view.N(); u++ {
		view.VisitNeighbors(u, func(_ int, w float64) { want[u] += w })
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				for u := 0; u < view.N(); u++ {
					var s float64
					view.VisitNeighbors(u, func(_ int, w float64) { s += w })
					if s != want[u] {
						errs <- "masked VisitNeighbors diverged under concurrent readers"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestViewDerivationConcurrent derives fresh views and pooled-scratch metrics
// from one shared base graph in parallel: WithoutVertices allocates masks,
// TotalDegreeOf borrows a pooled mark buffer — the shared sync.Pool path that
// must never hand two goroutines the same buffer.
func TestViewDerivationConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomTestGraph(rng, 100, 0.12)
	S := []int{1, 2, 3, 20, 21, 22, 77}
	wantTD := g.TotalDegreeOf(S)
	wantView := g.WithoutVertices(S).Compact()

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				if td := g.TotalDegreeOf(S); td != wantTD {
					errs <- "TotalDegreeOf diverged under concurrency"
					return
				}
				v := g.WithoutVertices(S)
				if v.M() != wantView.M() || v.TotalWeight() != wantView.TotalWeight() {
					errs <- "WithoutVertices diverged under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
