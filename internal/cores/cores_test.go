package cores

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

func TestTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus a path 2-3-4: triangle is the 2-core, tail is 1-core.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	core := Numbers(g)
	want := []int{2, 2, 2, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Errorf("core[%d] = %d, want %d (all: %v)", v, core[v], w, core)
		}
	}
	if d := Degeneracy(g); d != 2 {
		t.Errorf("degeneracy = %d, want 2", d)
	}
	k2 := KCore(g, 2)
	if len(k2) != 3 || k2[0] != 0 || k2[1] != 1 || k2[2] != 2 {
		t.Errorf("2-core = %v, want [0 1 2]", k2)
	}
}

func TestCliqueCoreNumbers(t *testing.T) {
	g := graph.Complete(6, 1)
	for v, c := range Numbers(g) {
		if c != 5 {
			t.Fatalf("core[%d] = %d in K6, want 5", v, c)
		}
	}
}

func TestEdgelessAndEmpty(t *testing.T) {
	g := graph.NewBuilder(4).Build()
	for v, c := range Numbers(g) {
		if c != 0 {
			t.Fatalf("core[%d] = %d in edgeless graph, want 0", v, c)
		}
	}
	if got := Numbers(graph.NewBuilder(0).Build()); len(got) != 0 {
		t.Fatalf("empty graph core numbers = %v", got)
	}
}

func TestNegativeWeightsIgnored(t *testing.T) {
	// Core numbers look only at topology: negative edges count as edges.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, -5)
	b.AddEdge(1, 2, -5)
	b.AddEdge(0, 2, -5)
	core := Numbers(b.Build())
	for v, c := range core {
		if c != 2 {
			t.Fatalf("core[%d] = %d, want 2", v, c)
		}
	}
}

// bruteCore computes core numbers by repeated minimum-degree deletion.
func bruteCore(g *graph.Graph) []int {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.OutDegree(v)
	}
	core := make([]int, n)
	k := 0
	for removed := 0; removed < n; {
		// Find min-degree alive vertex.
		best, bd := -1, 1<<30
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < bd {
				best, bd = v, deg[v]
			}
		}
		if bd > k {
			k = bd
		}
		core[best] = k
		alive[best] = false
		removed++
		g.VisitNeighbors(best, func(v int, _ float64) {
			if alive[v] {
				deg[v]--
			}
		})
	}
	return core
}

// Property: bin-sort peeling matches the O(n²) reference implementation.
func TestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(u, v, 1)
				}
			}
		}
		g := b.Build()
		got, want := Numbers(g), bruteCore(g)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: τ(u)+1 upper-bounds the size of any clique containing u. We plant
// a clique and check every member's core number.
func TestCoreBoundsPlantedClique(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 30
		k := 4 + rng.Intn(5)
		b := graph.NewBuilder(n)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				b.AddEdge(i, j, 1)
			}
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1)
			}
		}
		core := Numbers(b.Build())
		for v := 0; v < k; v++ {
			if core[v]+1 < k {
				t.Fatalf("core[%d]+1 = %d < planted clique size %d", v, core[v]+1, k)
			}
		}
	}
}

func TestNumbersRSCancelled(t *testing.T) {
	// A pre-cancelled State stops the peel at the first checkpoint. The
	// partial array must still be a sound upper bound on every core number —
	// that is the contract NewSEA's µu pruning relies on.
	b := graph.NewBuilder(7)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	g := b.Build()
	exact := Numbers(g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part := NumbersRS(g, runstate.New(ctx))
	if len(part) != g.N() {
		t.Fatalf("partial core numbers have length %d, want %d", len(part), g.N())
	}
	for v := range part {
		if part[v] < exact[v] {
			t.Errorf("partial core[%d] = %d < exact %d: interrupted peel must stay an upper bound", v, part[v], exact[v])
		}
	}

	// A live (uncancelled) State changes nothing.
	live := NumbersRS(g, runstate.New(context.Background()))
	for v := range live {
		if live[v] != exact[v] {
			t.Fatalf("NumbersRS with live state: core[%d] = %d, want %d", v, live[v], exact[v])
		}
	}
}
