package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// assertScratchClean fails unless every kernel scratch array of ws is zero
// over its whole capacity — entries beyond the current n included, since a
// later Reset to a larger n exposes them again.
func assertScratchClean(t *testing.T, ws *simplex.Workspace, where string) {
	t.Helper()
	for _, a := range []struct {
		name string
		v    []float64
	}{{"Dx", ws.Dx}, {"Acc", ws.Acc}, {"Gamma", ws.Gamma}} {
		for u, x := range a.v[:cap(a.v)] {
			if x != 0 {
				t.Fatalf("%s: %s[%d] = %v left behind", where, a.name, u, x)
			}
		}
	}
	for _, a := range []struct {
		name string
		v    []bool
	}{{"InS", ws.InS}, {"InZ", ws.InZ}} {
		for u, b := range a.v[:cap(a.v)] {
			if b {
				t.Fatalf("%s: %s[%d] left set", where, a.name, u)
			}
		}
	}
	if len(ws.Touched) != 0 || len(ws.Z) != 0 {
		t.Fatalf("%s: Touched/Z not emptied (%d, %d)", where, len(ws.Touched), len(ws.Z))
	}
}

func sameVector(a, b *simplex.Vector) bool {
	as, bs := a.Support(), b.Support()
	if len(as) != len(bs) {
		return false
	}
	for i, u := range as {
		if bs[i] != u || math.Float64bits(a.Get(u)) != math.Float64bits(b.Get(u)) {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseMatchesFresh runs one worker's workspace through graphs
// of n = 2000, 300 and 2000 again, then over a WithoutVertices view, and
// checks every initialization against a run on a fresh workspace: the
// results must be bitwise equal and the scratch must come back clean.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	big := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 3, N: 2000}).EmergingGD()
	small := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 4, N: 300}).EmergingGD()
	top := NewSEA(big, GAOptions{})
	view := big.WithoutVertices(top.S).PositivePart()
	graphs := []struct {
		name string
		gdp  *graph.Graph
	}{
		{"n=2000", big.PositivePartCompact()},
		{"n=300", small.PositivePartCompact()},
		{"n=2000 again", big.PositivePartCompact()},
		{"WithoutVertices view", view},
	}
	opt := GAOptions{}.withDefaults()
	rs := runstate.New(nil)
	ws := simplex.NewWorkspace(0)
	for _, g := range graphs {
		runs := 0
		for u := 0; u < g.gdp.N() && runs < 60; u += 7 {
			if g.gdp.OutDegree(u) == 0 {
				continue
			}
			runs++
			for _, rep := range []bool{false, true} {
				got, gotSt := runInit(g.gdp, ws, u, rep, opt, rs)
				assertScratchClean(t, ws, g.name)
				want, wantSt := runInit(g.gdp, simplex.NewWorkspace(g.gdp.N()), u, rep, opt, rs)
				if !sameVector(got, want) || gotSt != wantSt {
					t.Fatalf("%s, start %d, replicator=%v: reused workspace gave %v %+v, fresh gave %v %+v",
						g.name, u, rep, got.Support(), gotSt, want.Support(), wantSt)
				}
			}
		}
		if runs == 0 {
			t.Fatalf("%s: no start vertex exercised", g.name)
		}
	}
	// The embedding itself must not leak across a shrink and regrow either.
	ws.Reset(300)
	ws.Reset(2000)
	for u := 0; u < 2000; u++ {
		if ws.Get(u) != 0 {
			t.Fatalf("x[%d] = %v survived Reset", u, ws.Get(u))
		}
	}
	if ws.SupportSize() != 0 {
		t.Fatalf("support %v survived Reset", ws.Support())
	}
}

// runInitAllocCeiling is the whole heap cost of one initialization on a warm
// workspace: the returned compact vector (header, ids and values).
const runInitAllocCeiling = 3

// TestRunInitAllocs pins the allocations of one runInit to a constant: they
// must not grow with the shrink iterations or the support size.
func TestRunInitAllocs(t *testing.T) {
	gdp := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 1, N: 2000}).EmergingGD().PositivePartCompact()
	opt := GAOptions{}.withDefaults()
	rs := runstate.New(nil)
	ws := simplex.NewWorkspace(gdp.N())
	minIters, maxIters, minSupp, maxSupp := math.MaxInt, 0, math.MaxInt, 0
	for u := 0; u < gdp.N(); u += 37 {
		if gdp.OutDegree(u) == 0 {
			continue
		}
		for _, rep := range []bool{false, true} {
			x, st := runInit(gdp, ws, u, rep, opt, rs)
			minIters, maxIters = min(minIters, st.ShrinkIters), max(maxIters, st.ShrinkIters)
			minSupp, maxSupp = min(minSupp, x.SupportSize()), max(maxSupp, x.SupportSize())
			allocs := testing.AllocsPerRun(3, func() { runInit(gdp, ws, u, rep, opt, rs) })
			if allocs > runInitAllocCeiling {
				t.Fatalf("start %d, replicator=%v (%d shrink iterations, |S|=%d): %v allocs per runInit, ceiling %d",
					u, rep, st.ShrinkIters, x.SupportSize(), allocs, runInitAllocCeiling)
			}
		}
	}
	// Guard against a vacuous pass: the sample must span real variation.
	if maxIters < 10*max(minIters, 1) || maxSupp <= minSupp {
		t.Fatalf("sample too uniform: shrink iterations %d..%d, support %d..%d", minIters, maxIters, minSupp, maxSupp)
	}
}

// TestPeelAllocs pins the allocations of the average-degree solvers on the
// n=2000 benchmark pair: the peels run on pooled workspaces, so what is left
// is the answers themselves, the per-round views of top-k and the metric
// recomputation, not per-component heaps.
func TestPeelAllocs(t *testing.T) {
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 2000})
	gd := graph.Difference(d.G1, d.G2)
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"DCSGreedy", 100, func() { DCSGreedy(gd) }},
		{"TopKAverageDegree k=10", 3000, func() { TopKAverageDegree(gd, 10) }},
	} {
		c.run() // warm the GD+ memo and the workspace pool
		allocs := testing.AllocsPerRun(3, c.run)
		t.Logf("%s: %v allocs per run", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %v allocs per run, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

// TestPeelCancelled checks the cancellation contract of the peel path with a
// context that is done before the solve starts and with one cancelled while
// it runs: the answer is tagged Interrupted, is non-empty, carries its exact
// density and no certificate.
func TestPeelCancelled(t *testing.T) {
	gd := randomDiffGraph(400, 0.05, 9)
	check := func(name string, g *graph.Graph, res ADResult) {
		t.Helper()
		if !res.Interrupted {
			t.Fatalf("%s: not tagged Interrupted", name)
		}
		if len(res.S) == 0 {
			t.Fatalf("%s: empty subgraph", name)
		}
		if exact := g.AverageDegreeOf(res.S); res.Density != exact {
			t.Fatalf("%s: density %v, exact %v", name, res.Density, exact)
		}
		if res.Ratio != 0 {
			t.Fatalf("%s: kept certificate %v", name, res.Ratio)
		}
	}
	view := gd.WithoutVertices([]int{3, 30, 300})
	for _, workers := range []int{1, 2} {
		check("pre-cancelled", gd, DCSGreedyCtx(cancelledCtx(), gd, workers))
		check("pre-cancelled view", view, DCSGreedyCtx(cancelledCtx(), view, workers))
	}

	// One long path plus random chords keeps a single big component, so the
	// peel runs long after the cancellation lands.
	const n = 20000
	rng := rand.New(rand.NewSource(10))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1)
	}
	for i := 0; i < 3*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(u, v, float64(rng.Intn(9)-3))
		}
	}
	long := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(time.Millisecond, cancel)
	check("cancelled mid-solve", long, DCSGreedyCtx(ctx, long, 1))
}

// TestTopKHugeKAllocatesPerPick checks that top-k sizes its result by the
// picks it finds, not by k: on a 50,000-vertex graph with three positive
// edges, k = 2^30 reserves at most topKHint result slots and costs the same
// bytes as k = 4 (both stop after three picks and one empty round) up to that
// hint, doubled for size-class rounding — where reserving one slot per
// possible pick (n/2) would cost over a megabyte.
func TestTopKHugeKAllocatesPerPick(t *testing.T) {
	const n = 50000
	b := graph.NewBuilder(n)
	for v := 0; v < 6; v += 2 {
		b.AddEdge(v, v+1, float64(v+1))
	}
	for v := 10; v < 1000; v++ {
		b.AddEdge(v, v+1, -1)
	}
	gd := b.Build()
	if res := TopKAverageDegree(gd, 1<<30); len(res) != 3 || cap(res) > topKHint {
		t.Fatalf("k=2^30: %d picks in a slice of capacity %d, want 3 within %d", len(res), cap(res), topKHint)
	}
	if raceBuild() {
		// The race detector makes sync.Pool drop entries at random, so the
		// workspace regrowth it forces swamps the byte comparison.
		return
	}
	// A collection would empty the workspace pool the same way.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytesFor := func(k int) uint64 {
		TopKAverageDegree(gd, k) // warm the GD+ memo and the workspace pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TopKAverageDegree(gd, k)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, huge := bytesFor(4), bytesFor(1<<30)
	t.Logf("bytes: k=4 %d, k=2^30 %d", small, huge)
	if slack := uint64(2 * topKHint * unsafe.Sizeof(ADResult{})); huge > small+slack {
		t.Fatalf("k=2^30 allocated %d bytes, k=4 %d: more than %d bytes apart", huge, small, slack)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
