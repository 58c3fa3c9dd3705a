package densest

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// newTestHeap builds a peel heap over the given (key, vertex) pairs, with pos
// sized posLen so the vertices can be scattered ids of a larger graph, as a
// component's are.
func newTestHeap(keys []float64, verts []int32, posLen int) *peelHeap {
	pos := make([]int32, posLen)
	for i := range pos {
		pos[i] = -1
	}
	hp := &peelHeap{h: make([]entry, len(keys)), pos: pos}
	for i := range keys {
		hp.h[i] = entry{key: keys[i], v: verts[i]}
	}
	hp.init()
	return hp
}

func iota32(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(i)
	}
	return v
}

// checkHeap fails unless hp is a valid min-heap by (key, v) whose pos maps
// exactly its live vertices to their slots and every other slot to −1.
func checkHeap(t *testing.T, hp *peelHeap) {
	t.Helper()
	live := 0
	for v, p := range hp.pos {
		if p < 0 {
			continue
		}
		live++
		if int(p) >= len(hp.h) || hp.h[p].v != int32(v) {
			t.Fatalf("pos[%d] = %d does not hold vertex %d", v, p, v)
		}
	}
	if live != len(hp.h) {
		t.Fatalf("%d pos slots set for %d heap entries", live, len(hp.h))
	}
	for i := 1; i < len(hp.h); i++ {
		if hp.h[i].less(hp.h[(i-1)/2]) {
			t.Fatalf("slot %d %+v sorts before its parent %+v", i, hp.h[i], hp.h[(i-1)/2])
		}
	}
}

func TestPeelHeapPopOrder(t *testing.T) {
	hp := newTestHeap([]float64{5, 1, 4, 2, 3}, iota32(5), 5)
	for i, want := range []int32{1, 3, 4, 2, 0} {
		if e := hp.popMin(); e.v != want {
			t.Fatalf("pop %d: got vertex %d (key %v), want %d", i, e.v, e.key, want)
		}
		checkHeap(t, hp)
	}
	if len(hp.h) != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestPeelHeapLower(t *testing.T) {
	hp := newTestHeap([]float64{10, 20, 30, 40}, iota32(4), 4)
	hp.lower(hp.pos[3], 35) // 3 becomes the minimum
	checkHeap(t, hp)
	if hp.h[0].v != 3 || hp.h[0].key != 5 {
		t.Fatalf("min = %+v, want vertex 3 at key 5", hp.h[0])
	}
	hp.lower(hp.pos[3], -100) // a negative weight raises 3 to the bottom
	checkHeap(t, hp)
	if hp.h[0].v != 0 {
		t.Fatalf("min = %+v, want vertex 0", hp.h[0])
	}
	if e := hp.popMin(); e.v != 0 || hp.pos[0] != -1 {
		t.Fatalf("popped %+v, pos[0] = %d; want vertex 0 and −1", e, hp.pos[0])
	}
	checkHeap(t, hp)
	if hp.h[0].v != 1 || len(hp.h) != 3 {
		t.Fatalf("min = %+v with %d entries, want vertex 1 of 3", hp.h[0], len(hp.h))
	}
}

func TestPeelHeapTieBreak(t *testing.T) {
	// Equal keys pop in vertex order whatever order the slots start in.
	hp := newTestHeap([]float64{1, 1, 1, 1}, []int32{9, 2, 7, 4}, 10)
	var got []int32
	for len(hp.h) > 0 {
		got = append(got, hp.popMin().v)
	}
	if !slices.Equal(got, []int32{2, 4, 7, 9}) {
		t.Fatalf("ties must pop in vertex order, got %v", got)
	}
}

func TestPeelHeapEmpty(t *testing.T) {
	hp := newTestHeap(nil, nil, 3)
	checkHeap(t, hp)
	if len(hp.h) != 0 {
		t.Fatal("empty heap must have length 0")
	}
}

// TestPeelHeapSortedOracle interleaves random key changes of both signs with
// pops, as a peel does, over vertices scattered in a larger id space. Every
// pop must return the least (key, vertex) pair of a sorted oracle, and the
// heap and its pos slots must stay consistent after every operation.
func TestPeelHeapSortedOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		posLen := n + rng.Intn(40)
		verts := make([]int32, n)
		for i, v := range rng.Perm(posLen)[:n] {
			verts[i] = int32(v)
		}
		keys := make([]float64, n)
		cur := make(map[int32]float64, n)
		for i := range keys {
			// Small integers force ties; the id must then decide.
			keys[i] = float64(rng.Intn(7) - 3)
			cur[verts[i]] = keys[i]
		}
		hp := newTestHeap(keys, verts, posLen)
		checkHeap(t, hp)
		for len(hp.h) > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				v := verts[rng.Intn(n)]
				if hp.pos[v] < 0 {
					continue
				}
				w := float64(rng.Intn(9) - 4)
				if w == 0 {
					continue
				}
				hp.lower(hp.pos[v], w)
				cur[v] -= w
				checkHeap(t, hp)
			}
			oracle := make([]entry, 0, len(cur))
			for v, key := range cur {
				oracle = append(oracle, entry{key: key, v: v})
			}
			slices.SortFunc(oracle, func(a, b entry) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			got := hp.popMin()
			checkHeap(t, hp)
			if got != oracle[0] {
				t.Logf("seed %d: popped %+v, oracle minimum %+v", seed, got, oracle[0])
				return false
			}
			delete(cur, got.v)
		}
		return len(cur) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// assertPosClean fails unless every pos slot of ws, over its whole capacity,
// is −1 and the LocalImprove marks are all clear.
func assertPosClean(t *testing.T, ws *workspace, where string) {
	t.Helper()
	for v, p := range ws.pos[:cap(ws.pos)] {
		if p != -1 {
			t.Fatalf("%s: pos[%d] = %d left behind", where, v, p)
		}
	}
	for v := range ws.in[:cap(ws.in)] {
		if ws.in[v] || ws.conn[v] != 0 {
			t.Fatalf("%s: in[%d] = %v, conn[%d] = %v left behind", where, v, ws.in[v], v, ws.conn[v])
		}
	}
}

// randomSigned is a G(n, p) graph with integer weights in [−4, 4].
func randomSigned(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if w := rng.Intn(9) - 4; w != 0 {
					b.AddEdge(u, v, float64(w))
				}
			}
		}
	}
	return b.Build()
}

// cancelAfterDiscovery is greedy with the context cancelled between
// component discovery and the peels, so every peel is cut short at its first
// poll and must hand its unpopped slots back.
func cancelAfterDiscovery(ws *workspace, g *graph.Graph, workers int) Result {
	ctx, cancel := context.WithCancel(context.Background())
	rs := runstate.New(ctx)
	ws.g = g.Rows()
	nc, ok := ws.components(g.N(), rs)
	cancel()
	if !ok {
		panic("discovery cancelled before the context was")
	}
	if workers <= 1 {
		for c := 0; c < nc; c++ {
			ws.peel(c, rs)
		}
	} else {
		ws.peelPar(g.N(), nc, rs, workers)
	}
	return ws.mergePeels(g.N(), nc, rs)
}

// TestPeelWorkspaceClean runs one workspace through complete, cancelled and
// view peels, at several parallelism degrees and across graphs of growing
// and shrinking n, plus local searches: every pos slot must be −1 afterwards
// and every complete answer equal the independent segment-tree peel's.
func TestPeelWorkspaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	small := randomSigned(rng, 90, 0.08)
	big := randomSigned(rng, 600, 0.02)
	strip := []int{1, 5, 8, 13, 21, 34, 55}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"n=90", small},
		{"n=600", big},
		{"positive view", big.PositivePart()},
		{"without view", big.WithoutVertices(strip)},
		{"positive without view", big.PositivePart().WithoutVertices(strip)},
		{"n=90 again", small},
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	seed := []int{0, 2, 4, 6, 8, 10}
	ws := acquireWorkspace()
	for _, c := range graphs {
		ws.grow(c.g.N())
		ws.growImprove(c.g.N())
		for _, workers := range []int{1, 2, 4} {
			got := ws.greedy(c.g, runstate.New(nil), workers)
			assertPosClean(t, ws, c.name)
			want := GreedySegTree(c.g)
			if got.Density != want.Density || !slices.Equal(got.S, want.S) {
				t.Fatalf("%s, %d workers: reused workspace gave %v (%v), oracle %v (%v)",
					c.name, workers, got.S, got.Density, want.S, want.Density)
			}
			if part := ws.greedy(c.g, runstate.New(dead), workers); len(part.S) == 0 {
				t.Fatalf("%s, %d workers: pre-cancelled peel returned an empty set", c.name, workers)
			}
			assertPosClean(t, ws, c.name+" pre-cancelled")
			if part := cancelAfterDiscovery(ws, c.g, workers); len(part.S) == 0 {
				t.Fatalf("%s, %d workers: cancelled peel returned an empty set", c.name, workers)
			}
			assertPosClean(t, ws, c.name+" cancelled")
		}
		ws.g = c.g.Rows()
		got := ws.improve(c.g, seed, defaultImproveRounds, runstate.New(nil))
		assertPosClean(t, ws, c.name+" improve")
		if want := LocalImprove(c.g, seed, 0); got.Density != want.Density || !slices.Equal(got.S, want.S) {
			t.Fatalf("%s: reused improve gave %v, fresh %v", c.name, got.S, want.S)
		}
	}
	ws.release()
}

// TestPeelCancelMidPeel cancels between component discovery and the peel of
// a single 3000-vertex component: the peel stops within one checkpoint
// interval, short of the component, and the merge still returns a non-empty
// prefix whose density is exact.
func TestPeelCancelMidPeel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 3000
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1) // a path keeps the graph one component
	}
	for i := 0; i < 4*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(u, v, float64(rng.Intn(5)+1))
		}
	}
	g := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	rs := runstate.New(ctx)
	ws := acquireWorkspace()
	ws.grow(n)
	ws.g = g.Rows()
	nc, ok := ws.components(n, rs)
	if !ok || nc != 1 {
		t.Fatalf("components: %d, ok %v; want one", nc, ok)
	}
	cancel()
	ws.peel(0, rs)
	if pops := ws.peels[0].pops; pops >= n {
		t.Fatalf("peel ran to completion (%d pops) after the cancellation", pops)
	}
	if !rs.Interrupted() {
		t.Fatal("run state not latched after a cancelled peel")
	}
	res := ws.mergePeels(n, nc, rs)
	assertPosClean(t, ws, "mid-peel cancel")
	ws.release()
	if len(res.S) == 0 {
		t.Fatal("cancelled peel returned an empty set")
	}
	if exact := g.AverageDegreeOf(res.S); res.Density != exact {
		t.Fatalf("density %v, exact recomputation %v", res.Density, exact)
	}
}

func BenchmarkPeelSequence(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(7))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	verts := iota32(n)
	hp := &peelHeap{h: make([]entry, n), pos: make([]int32, n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp.h = hp.h[:n]
		for j := range keys {
			hp.h[j] = entry{key: keys[j], v: verts[j]}
		}
		hp.init()
		for len(hp.h) > 0 {
			v := hp.popMin().v
			// Touch a few pseudo-neighbors like peeling would.
			for d := int32(1); d <= 3; d++ {
				if p := hp.pos[(v+d*37)%n]; p >= 0 {
					hp.lower(p, 0.01)
				}
			}
		}
	}
}
