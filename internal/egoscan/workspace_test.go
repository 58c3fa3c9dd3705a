package egoscan

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// scanAllocCeiling bounds the allocations of one Scan: the workspace, the
// seed-order arrays, the result set and a few words of sort and metric
// scratch. It is a constant, so it cannot grow with the number of seeds.
const scanAllocCeiling = 30

// queryMixGraph is an emerging co-author difference graph of the size the
// query-mix benchmark serves to the totalweight measure.
func queryMixGraph(seed int64) *graph.Graph {
	return datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 300}).EmergingGD()
}

func TestScanAllocs(t *testing.T) {
	gd := queryMixGraph(1)
	for _, opt := range []Options{{MaxSeeds: 1}, {}} {
		if allocs := testing.AllocsPerRun(3, func() { Scan(gd, opt) }); allocs > scanAllocCeiling {
			t.Fatalf("%+v: %v allocs per Scan, ceiling %d", opt, allocs, scanAllocCeiling)
		}
	}
}

// Once a workspace has seen a graph, growing and pruning from every vertex of
// it allocates nothing: per-seed cost is independent of the heap.
func TestGrowPruneReusesWorkspace(t *testing.T) {
	gd := queryMixGraph(2)
	ws := newWorkspace(gd)
	rs := runstate.New(nil)
	grown := 0
	allocs := testing.AllocsPerRun(3, func() {
		grown = 0
		for s := 0; s < gd.N(); s++ {
			if len(ws.growPrune(s, 8, rs)) > 1 {
				grown++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per pass over all %d seeds, want 0", allocs, gd.N())
	}
	if grown < gd.N()/2 {
		t.Fatalf("only %d of %d seeds grew past themselves", grown, gd.N())
	}
}

// assertClean fails unless every scratch entry of ws is zero and both lists
// are empty.
func assertClean(t *testing.T, ws *workspace, what string) {
	t.Helper()
	if len(ws.members) != 0 || len(ws.touched) != 0 {
		t.Fatalf("%s: %d members and %d touched left", what, len(ws.members), len(ws.touched))
	}
	for v := range ws.in {
		if ws.in[v] || ws.mark[v] || ws.gain[v] != 0 {
			t.Fatalf("%s: vertex %d left in=%v mark=%v gain=%v", what, v, ws.in[v], ws.mark[v], ws.gain[v])
		}
	}
}

func TestWorkspaceCleanAfterScan(t *testing.T) {
	cases := []struct {
		name string
		gd   *graph.Graph
		opt  Options
	}{
		{"coauthor", queryMixGraph(3), Options{}},
		{"coauthor-maxseeds1", queryMixGraph(3), Options{MaxSeeds: 1}},
		{"real", fractionalSignedGraph(rand.New(rand.NewSource(4)), 160, 0.06, false), Options{MaxGrowRounds: 1}},
		{"dyadic", fractionalSignedGraph(rand.New(rand.NewSource(5)), 120, 0.08, true), Options{}},
	}
	for _, c := range cases {
		ws := newWorkspace(c.gd)
		ws.scan(c.opt, runstate.New(nil))
		assertClean(t, ws, c.name)
	}
	// Cancelled mid-scan: the interrupted grow round or prune pass must
	// clean up too.
	gd := midScanGraph()
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(d, cancel)
		ws := newWorkspace(gd)
		ws.scan(Options{}, runstate.New(ctx))
		timer.Stop()
		cancel()
		assertClean(t, ws, "cancelled after "+d.String())
	}
}

// midScanGraph is large enough that a scan runs for far longer than the
// cancellation delays of the mid-scan tests.
func midScanGraph() *graph.Graph {
	return datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 6, N: 2000}).EmergingGD()
}

// A cancelled growPrune hands back the seed's positive ego net — the member
// set it holds before the first grow round — and leaves no gain behind.
func TestGrowPruneCancelledReturnsEgoNet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gd := queryMixGraph(4)
	ws := newWorkspace(gd)
	for s := 0; s < gd.N(); s += 7 {
		want := []int{s}
		gd.VisitNeighbors(s, func(v int, w float64) {
			if w > 0 {
				want = append(want, v)
			}
		})
		slices.Sort(want)
		if got := ws.growPrune(s, 8, runstate.New(ctx)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: cancelled growPrune = %v, want ego net %v", s, got, want)
		}
		ws.clear()
		assertClean(t, ws, "cancelled growPrune")
	}
}

// checkPartial asserts the contract of an interrupted scan: a non-empty,
// increasing S whose reported metrics are exactly its own.
func checkPartial(t *testing.T, gd *graph.Graph, res Result, what string) {
	t.Helper()
	if !res.Interrupted {
		t.Fatalf("%s: result not marked Interrupted", what)
	}
	if len(res.S) == 0 || !slices.IsSorted(res.S) {
		t.Fatalf("%s: S = %v, want a non-empty increasing set", what, res.S)
	}
	if w := gd.TotalDegreeOf(res.S); res.TotalWeight != w {
		t.Fatalf("%s: TotalWeight %v, but W_D(S) = %v", what, res.TotalWeight, w)
	}
	if rho := gd.AverageDegreeOf(res.S); res.Density != rho {
		t.Fatalf("%s: Density %v, but ρ_D(S) = %v", what, res.Density, rho)
	}
}

func TestScanCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gd := queryMixGraph(5)
	checkPartial(t, gd, ScanCtx(ctx, gd, Options{}), "pre-cancelled")
}

func TestScanCtxCancelledMidScan(t *testing.T) {
	gd := midScanGraph()
	full := Scan(gd, Options{})
	interrupted := 0
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(d, cancel)
		res := ScanCtx(ctx, gd, Options{})
		timer.Stop()
		cancel()
		if !res.Interrupted {
			// The scan beat the timer: it must then be the full answer.
			if !slices.Equal(res.S, full.S) || res.TotalWeight != full.TotalWeight {
				t.Fatalf("uninterrupted ScanCtx after %v differs from Scan", d)
			}
			continue
		}
		interrupted++
		checkPartial(t, gd, res, "cancelled after "+d.String())
	}
	if interrupted == 0 {
		t.Fatal("no run was cancelled mid-scan; use a larger graph")
	}
}
