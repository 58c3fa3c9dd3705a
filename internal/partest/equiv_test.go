package partest

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
)

// TestMain raises GOMAXPROCS so that degree 8 of the ladder is a real
// parallelism degree (par.Workers caps at GOMAXPROCS): on a 1-CPU runner the
// whole harness would otherwise silently test the sequential path three
// times.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}

type fixture struct {
	name string
	g    *graph.Graph
}

// adFixtures is the graph family the average-degree equivalence tests sweep:
// random signed graphs from sparse to dense, hostile float magnitudes,
// many-component graphs and the degenerate sizes.
func adFixtures(rng *rand.Rand) []fixture {
	return []fixture{
		{"empty", Empty()},
		{"singleton", Singleton()},
		{"tiny", RandomSigned(rng, 3, 0.9, 3)},
		{"sparse", RandomSigned(rng, 40, 0.05, 5)},
		{"dense", RandomSigned(rng, 30, 0.5, 5)},
		{"unit_ties", RandomSigned(rng, 25, 0.4, 1)}, // weights ∈ {−1, 1}: heavy ties
		{"hostile", HostileWeights(rng, 35, 0.2)},
		{"disconnected", Disconnected(rng, 7, 6, 4)},
	}
}

func TestGreedyParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 8; round++ {
		for _, fx := range adFixtures(rng) {
			seq := densest.Greedy(fx.g)
			for _, deg := range Degrees {
				got := densest.GreedyPar(fx.g, deg)
				if got.Density != seq.Density {
					t.Fatalf("%s round %d degree %d: density %v, sequential %v",
						fx.name, round, deg, got.Density, seq.Density)
				}
				if !slices.Equal(got.S, seq.S) {
					t.Fatalf("%s round %d degree %d: S %v, sequential %v",
						fx.name, round, deg, got.S, seq.S)
				}
			}
		}
	}
}

func TestDCSGreedyParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 8; round++ {
		for _, fx := range adFixtures(rng) {
			seq := core.DCSGreedy(fx.g)
			if err := core.ValidateAD(fx.g, seq); err != nil {
				t.Fatalf("%s round %d: sequential result invalid: %v", fx.name, round, err)
			}
			for _, deg := range Degrees {
				got := core.DCSGreedyCtx(context.Background(), fx.g, deg)
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", fx.name, round, deg, got, seq)
				}
				if err := core.ValidateAD(fx.g, got); err != nil {
					t.Fatalf("%s round %d degree %d: certificate invalid: %v", fx.name, round, deg, err)
				}
			}
		}
	}
}

func TestTopKParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 4; round++ {
		for _, fx := range adFixtures(rng) {
			seq := core.TopKAverageDegree(fx.g, 4)
			for _, deg := range Degrees {
				got, interrupted := core.TopKAverageDegreeCtx(context.Background(), fx.g, 4, deg)
				if interrupted || !reflect.DeepEqual(got, seq) {
					t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", fx.name, round, deg, got, seq)
				}
				for i, res := range got {
					if err := core.ValidateAD(fx.g, res); err != nil {
						t.Fatalf("%s round %d degree %d: result %d invalid: %v", fx.name, round, deg, i, err)
					}
				}
			}
		}
	}
}

func TestRatioParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := []struct {
		name       string
		n          int
		p, overlap float64
	}{
		{"overlaid", 30, 0.3, 1.0},  // every G2 edge overlays G1: real binary search
		{"unbounded", 30, 0.3, 0.6}, // G2-only edges likely: +Inf fast path
		{"sparse", 50, 0.06, 1.0},   // disconnected difference graphs inside probes
		{"tiny", 4, 0.9, 1.0},       //
	}
	for round := 0; round < 4; round++ {
		for _, tc := range cases {
			g1, g2 := PositivePair(rng, tc.n, tc.p, tc.overlap)
			seq := core.MaxRatioContrast(g1, g2)
			for _, deg := range Degrees {
				got := core.MaxRatioContrastCtx(context.Background(), g1, g2, deg)
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", tc.name, round, deg, got, seq)
				}
			}
		}
	}
}

func TestNewSEAParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for round := 0; round < 3; round++ {
		for _, fx := range adFixtures(rng) {
			seq := core.NewSEA(fx.g, core.GAOptions{})
			if err := core.ValidateGA(fx.g, seq); err != nil {
				t.Fatalf("%s round %d: sequential result invalid: %v", fx.name, round, err)
			}
			for _, deg := range Degrees {
				got := core.NewSEA(fx.g, core.GAOptions{Parallelism: deg})
				// The whole struct, Stats included: the speculative batches
				// must not even run (and count) an init the sequential
				// pruning would have skipped.
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", fx.name, round, deg, got, seq)
				}
				if err := core.ValidateGA(fx.g, got); err != nil {
					t.Fatalf("%s round %d degree %d: certificate invalid: %v", fx.name, round, deg, err)
				}
			}
		}
	}
}
