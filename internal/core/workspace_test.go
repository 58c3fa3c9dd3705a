package core

import (
	"math"
	"testing"

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
