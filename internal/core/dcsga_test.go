package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/clique"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// solveInteriorKKT solves the interior KKT system on a clique support S of
// gd: find x with D(S)x = λ·1, Σx = 1 by Gaussian elimination over the
// (k+1)×(k+1) system. Returns (x, λ, ok); ok is false if the system is
// singular or the solution leaves the simplex interior (x_i < 0).
func solveInteriorKKT(gd *graph.Graph, S []int) ([]float64, float64, bool) {
	k := len(S)
	// Unknowns: x_0..x_{k-1}, λ. Equations: Σ_j D(S_i,S_j) x_j − λ = 0 for
	// each i; Σ x_j = 1.
	m := k + 1
	A := make([][]float64, m)
	for i := range A {
		A[i] = make([]float64, m+1)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			A[i][j] = gd.Weight(S[i], S[j])
		}
		A[i][k] = -1
	}
	for j := 0; j < k; j++ {
		A[k][j] = 1
	}
	A[k][m] = 1
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if math.Abs(A[piv][col]) < 1e-12 {
			return nil, 0, false
		}
		A[col], A[piv] = A[piv], A[col]
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			fac := A[r][col] / A[col][col]
			for c := col; c <= m; c++ {
				A[r][c] -= fac * A[col][c]
			}
		}
	}
	x := make([]float64, k)
	for i := 0; i < k; i++ {
		x[i] = A[i][m] / A[i][i]
		if x[i] < -1e-9 {
			return nil, 0, false
		}
	}
	lambda := A[k][m] / A[k][k]
	return x, lambda, true
}

// bruteForceGA computes the exact DCSGA optimum for tiny graphs by Theorem 5:
// some optimal embedding is supported on a positive clique, and on a fixed
// clique support the optimum is either interior (Dx = λ1, value λ) or lies on
// the boundary — which is a smaller clique, covered by the enumeration.
func bruteForceGA(gd *graph.Graph) float64 {
	n := gd.N()
	if n > 16 {
		panic("bruteForceGA limited to n ≤ 16")
	}
	best := 0.0 // single vertex
	for mask := 1; mask < 1<<uint(n); mask++ {
		var S []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				S = append(S, v)
			}
		}
		if len(S) < 2 || !gd.IsPositiveClique(S) {
			continue
		}
		if _, lambda, ok := solveInteriorKKT(gd, S); ok && lambda > best {
			best = lambda
		}
	}
	return best
}

func TestSolveInteriorKKTTriangle(t *testing.T) {
	// Fig. 1 triangle {v1,v3,v4} with weights 3,4,3: optimal
	// x = (3/8, 1/4, 3/8), f = 2.25.
	gd := figure1GD()
	x, lambda, ok := solveInteriorKKT(gd, []int{0, 2, 3})
	if !ok {
		t.Fatal("system should be solvable")
	}
	if !almostEqual(lambda, 2.25) {
		t.Fatalf("lambda = %v, want 2.25", lambda)
	}
	want := []float64{0.375, 0.25, 0.375}
	for i := range want {
		if !almostEqual(x[i], want[i]) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestNewSEAFigure1(t *testing.T) {
	gd := figure1GD()
	res := NewSEA(gd, GAOptions{})
	if !almostEqual(res.Affinity, 2.25) {
		t.Fatalf("NewSEA affinity = %v S=%v, want 2.25 on {0,2,3}", res.Affinity, res.S)
	}
	if len(res.S) != 3 || res.S[0] != 0 || res.S[1] != 2 || res.S[2] != 3 {
		t.Fatalf("S = %v, want [0 2 3]", res.S)
	}
	if !res.PositiveClique {
		t.Fatal("result must be a positive clique (Theorem 5)")
	}
	if !almostEqual(res.X.Get(0), 0.375) || !almostEqual(res.X.Get(2), 0.25) || !almostEqual(res.X.Get(3), 0.375) {
		t.Fatalf("embedding = %v %v %v, want (0.375, 0.25, 0.375)",
			res.X.Get(0), res.X.Get(2), res.X.Get(3))
	}
	if res.Stats.ExpansionErrors != 0 {
		t.Errorf("SEACD must not make expansion errors, got %d", res.Stats.ExpansionErrors)
	}
}

func TestGAOnNoPositiveEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, -1)
	gd := b.Build()
	for name, res := range map[string]GAResult{
		"NewSEA":      NewSEA(gd, GAOptions{}),
		"SEACDRefine": SEACDRefineFull(gd, GAOptions{}),
		"SEARefine":   SEARefineFull(gd, GAOptions{}),
	} {
		if res.Affinity != 0 || res.X.SupportSize() != 1 {
			t.Errorf("%s on all-negative GD: affinity=%v |S|=%d, want 0 and 1",
				name, res.Affinity, res.X.SupportSize())
		}
	}
	// Empty graph.
	if res := NewSEA(graph.NewBuilder(0).Build(), GAOptions{}); res.Affinity != 0 {
		t.Error("empty graph must give affinity 0")
	}
}

// Motzkin–Straus: on an unweighted graph the DCSGA optimum is 1 − 1/ω(G).
func TestMotzkinStrausUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, 1)
				}
			}
		}
		gd := b.Build()
		omega := clique.Number(gd)
		opt := 1 - 1/float64(omega)
		res := SEACDRefineFull(gd, GAOptions{})
		// Never above the Motzkin–Straus optimum...
		if res.Affinity > opt+1e-6 {
			return false
		}
		// ...and the refined solution is a clique whose uniform value it
		// attains: f = (k−1)/k for k = |S|.
		k := float64(len(res.S))
		if k >= 1 && !almostEqual(res.Affinity, (k-1)/k) {
			return false
		}
		return res.PositiveClique
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// On small unweighted graphs, full-initialization SEACD+Refine reliably finds
// the maximum clique (one init lands inside it), attaining 1 − 1/ω exactly.
func TestMotzkinStrausAttained(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(8)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, 1)
				}
			}
		}
		gd := b.Build()
		if gd.M() == 0 {
			continue
		}
		omega := clique.Number(gd)
		opt := 1 - 1/float64(omega)
		res := SEACDRefineFull(gd, GAOptions{})
		if !almostEqual(res.Affinity, opt) {
			t.Fatalf("trial %d: affinity = %v, want 1-1/%d = %v (S=%v)",
				trial, res.Affinity, omega, opt, res.S)
		}
	}
}

// All three DCSGA solvers stay at or below the exact optimum and return
// positive cliques, on random weighted graphs.
func TestGASolversBoundedByOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		gd := randomSignedGraph(rng, n, 0.5, 4)
		opt := bruteForceGA(gd)
		for _, res := range []GAResult{
			NewSEA(gd, GAOptions{}),
			SEACDRefineFull(gd, GAOptions{}),
			SEARefineFull(gd, GAOptions{}),
		} {
			if res.Affinity > opt+1e-6 {
				return false
			}
			if !res.PositiveClique {
				return false
			}
			if math.Abs(res.X.Sum()-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Full-init SEACD+Refine attains the exact optimum on a deterministic sweep
// of small weighted graphs (validated seeds; the algorithm is deterministic).
func TestSEACDAttainsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hits, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(7)
		gd := randomSignedGraph(rng, n, 0.5, 4)
		if gd.PositivePart().M() == 0 {
			continue
		}
		opt := bruteForceGA(gd)
		res := SEACDRefineFull(gd, GAOptions{})
		total++
		if almostEqual(res.Affinity, opt) {
			hits++
		}
	}
	// Local search is not guaranteed optimal, but on these sizes it should
	// almost always land on the global optimum.
	if hits*10 < total*9 {
		t.Fatalf("SEACD+Refine attained the oracle on only %d/%d graphs", hits, total)
	}
}

// NewSEA's smart initialization must not degrade quality relative to full
// initialization (the paper observed it never did in experiments; on these
// validated seeds it holds exactly).
func TestNewSEAMatchesFullInit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(9)
		gd := randomSignedGraph(rng, n, 0.45, 5)
		smart := NewSEA(gd, GAOptions{})
		full := SEACDRefineFull(gd, GAOptions{})
		if !almostEqual(smart.Affinity, full.Affinity) {
			t.Fatalf("trial %d: NewSEA=%v full=%v", trial, smart.Affinity, full.Affinity)
		}
		if smart.Stats.Inits > full.Stats.Inits {
			t.Errorf("trial %d: smart init used more inits (%d) than full (%d)",
				trial, smart.Stats.Inits, full.Stats.Inits)
		}
	}
}

// KKT conditions hold at SEACD's output (Theorem 4), on GD+.
func TestSEACDReachesKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		gd := randomSignedGraph(rng, n, 0.4, 5)
		gdp := gd.PositivePart()
		if gdp.M() == 0 {
			continue
		}
		// Pick a non-isolated start vertex.
		start := -1
		for v := 0; v < n; v++ {
			if gdp.OutDegree(v) > 0 {
				start = v
				break
			}
		}
		x := simplex.Indicator(n, start)
		SEACD(gdp, x, GAOptions{})
		// The shrink precision is EpsBase/|S|; allow that much violation.
		viol := simplex.KKTViolation(gdp, x)
		if viol > 2e-2 {
			t.Fatalf("trial %d: KKT violation = %v after SEACD (support %v)",
				trial, viol, x.Support())
		}
	}
}

// Refinement: output support is a clique of GD+ and the objective never
// decreases (Theorem 5).
func TestRefineImprovesToClique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		gd := randomSignedGraph(rng, n, 0.5, 4)
		gdp := gd.PositivePart()
		if gdp.M() == 0 {
			return true
		}
		start := -1
		for v := 0; v < n; v++ {
			if gdp.OutDegree(v) > 0 {
				start = v
				break
			}
		}
		x := simplex.Indicator(n, start)
		SEACD(gdp, x, GAOptions{})
		before := simplex.Affinity(gdp, x)
		Refine(gdp, x, GAOptions{})
		after := simplex.Affinity(gdp, x)
		if after < before-1e-9 {
			return false
		}
		S := x.Support()
		// Support must be a clique in GD+ ⇒ positive clique in GD.
		return gd.IsPositiveClique(S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 6: µu is a true upper bound on the affinity of any positive-clique
// embedding containing u.
func TestInitBoundsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(8)
		gd := randomSignedGraph(rng, n, 0.5, 5)
		gdp := gd.PositivePart()
		if gdp.M() == 0 {
			continue
		}
		mu := initBounds(gdp, runstate.New(nil))
		// Enumerate all positive cliques and their interior optima.
		for mask := 1; mask < 1<<uint(n); mask++ {
			var S []int
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					S = append(S, v)
				}
			}
			if len(S) < 2 || !gd.IsPositiveClique(S) {
				continue
			}
			if _, lambda, ok := solveInteriorKKT(gd, S); ok {
				for _, u := range S {
					if lambda > mu[u]+1e-9 {
						t.Fatalf("µ bound violated: clique %v has f=%v > µ[%d]=%v",
							S, lambda, u, mu[u])
					}
				}
			}
		}
	}
}

// Coordinate descent never decreases the objective and reaches a local KKT
// point on its working set.
func TestCoordinateDescentMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		gd := randomSignedGraph(rng, n, 0.5, 4)
		// Random starting point on the simplex.
		var S []int
		x := simplex.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.5 {
				x.Set(v, rng.Float64()+0.01)
				S = append(S, v)
			}
		}
		if len(S) == 0 {
			return true
		}
		x.Normalize()
		before := simplex.Affinity(gd, x)
		ws := workspaceOf(x)
		coordinateDescent(gd, ws, S, 1e-9, 100000, runstate.New(nil))
		x = ws.Vector()
		after := simplex.Affinity(gd, x)
		if after < before-1e-9 {
			return false
		}
		// Local KKT on S within the tolerance (plus numerical slack).
		return simplex.LocalKKTViolation(gd, x, S) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Expansion at an exact KKT point must not decrease the objective (the
// correctness argument of the Expansion stage).
func TestExpansionFromExactKKT(t *testing.T) {
	// Unit K3 {0,1,2} plus vertex 3 connected to all of it with weight 2:
	// uniform on the K3 is a local KKT point on {0,1,2}; vertex 3 has
	// gradient 2·2 = 4 > 2f = 4/3, so Z = {3} and expansion must improve.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 3, 2)
	b.AddEdge(1, 3, 2)
	b.AddEdge(2, 3, 2)
	g := b.Build()
	x := simplex.Uniform(4, []int{0, 1, 2})
	before := simplex.Affinity(g, x)
	ws := workspaceOf(x)
	res := expand(g, ws, 1e-9, runstate.New(nil))
	x = ws.Vector()
	if !res.expanded {
		t.Fatal("expansion must trigger (vertex 3 improves)")
	}
	if res.errored {
		t.Fatal("expansion from an exact KKT point must not decrease the objective")
	}
	after := simplex.Affinity(g, x)
	if after <= before {
		t.Fatalf("objective did not increase: %v -> %v", before, after)
	}
	if x.Get(3) <= 0 {
		t.Fatal("vertex 3 must have entered the support")
	}
	if math.Abs(x.Sum()-1) > 1e-9 {
		t.Fatalf("x left the simplex: sum = %v", x.Sum())
	}
}

func TestExpandNoCandidates(t *testing.T) {
	// Uniform on a maximum clique of the whole graph: no vertex improves.
	g := graph.Complete(4, 1)
	x := simplex.Uniform(4, []int{0, 1, 2, 3})
	res := expand(g, workspaceOf(x), 1e-9, runstate.New(nil))
	if res.expanded {
		t.Fatal("no expansion candidates should exist at the global optimum")
	}
}

// The replicator shrink stage also never decreases the objective on
// non-negative graphs.
func TestReplicatorMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, float64(1+rng.Intn(4)))
				}
			}
		}
		g := b.Build()
		var S []int
		x := simplex.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				x.Set(v, rng.Float64()+0.01)
				S = append(S, v)
			}
		}
		if len(S) == 0 {
			return true
		}
		x.Normalize()
		before := simplex.Affinity(g, x)
		ws := workspaceOf(x)
		replicatorShrink(g, ws, S, GAOptions{}.withDefaults(), runstate.New(nil))
		x = ws.Vector()
		after := simplex.Affinity(g, x)
		return after >= before-1e-9 && math.Abs(x.Sum()-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// CollectCliques: every returned set is a positive clique, no duplicates, no
// subsets of other returned cliques, sorted by affinity.
func TestCollectCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	gd := randomSignedGraph(rng, 14, 0.4, 5)
	cs := CollectCliques(gd, GAOptions{})
	if len(cs) == 0 {
		t.Skip("no cliques on this seed")
	}
	seen := map[string]bool{}
	for i, c := range cs {
		if !gd.IsPositiveClique(c.S) {
			t.Fatalf("clique %d (%v) is not a positive clique", i, c.S)
		}
		k := supportKey(c.S)
		if seen[k] {
			t.Fatalf("duplicate clique %v", c.S)
		}
		seen[k] = true
		if i > 0 && cs[i-1].Affinity < c.Affinity-1e-9 {
			t.Fatal("cliques not sorted by affinity")
		}
	}
	// No clique is a subset of another.
	for i := range cs {
		for j := range cs {
			if i == j {
				continue
			}
			sub := true
			set := map[int]bool{}
			for _, v := range cs[j].S {
				set[v] = true
			}
			for _, v := range cs[i].S {
				if !set[v] {
					sub = false
					break
				}
			}
			if sub {
				t.Fatalf("clique %v is a subset of %v", cs[i].S, cs[j].S)
			}
		}
	}
}

// The weighted-clique QP: NewSEA on a single weighted triangle graph
// reproduces the closed-form interior optimum.
func TestWeightedTriangleInterior(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(0, 2, 4)
	gd := b.Build()
	_, lambda, ok := solveInteriorKKT(gd, []int{0, 1, 2})
	if !ok {
		t.Fatal("triangle system solvable")
	}
	res := NewSEA(gd, GAOptions{})
	if !almostEqual(res.Affinity, math.Max(lambda, 2)) {
		t.Fatalf("NewSEA = %v, interior = %v", res.Affinity, lambda)
	}
}
