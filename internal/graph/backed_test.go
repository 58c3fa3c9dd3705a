package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// toBacked rebuilds a plain heap graph over caller-owned copies of its CSR
// arrays through FromCSRBacked, as dataio's mmap open path does.
func toBacked(t *testing.T, g *Graph, release func()) *Graph {
	t.Helper()
	off, ids, ws := g.CSR()
	b, err := FromCSRBacked(g.N(), slices.Clone(off), slices.Clone(ids), slices.Clone(ws), release)
	if err != nil {
		t.Fatalf("FromCSRBacked: %v", err)
	}
	return b
}

// sameAsHeap asserts got and want are the same graph bitwise: headers, every
// edge weight, and the per-vertex accessors.
func sameAsHeap(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%s: header mismatch: n=%d m=%d tw=%v, want n=%d m=%d tw=%v",
			label, got.N(), got.M(), got.TotalWeight(), want.N(), want.M(), want.TotalWeight())
	}
	ge, we := edgeMap(got), edgeMap(want)
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", label, len(ge), len(we))
	}
	for k, w := range we {
		if ge[k] != w {
			t.Fatalf("%s: edge %v = %v, want %v", label, k, ge[k], w)
		}
	}
	for u := 0; u < want.N(); u++ {
		if got.OutDegree(u) != want.OutDegree(u) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, got.OutDegree(u), want.OutDegree(u))
		}
		if got.WeightedDegree(u) != want.WeightedDegree(u) {
			t.Fatalf("%s: WeightedDegree(%d) = %v, want %v", label, u, got.WeightedDegree(u), want.WeightedDegree(u))
		}
		gn, wn := neighbors(got, u), neighbors(want, u)
		if len(gn) != len(wn) {
			t.Fatalf("%s: vertex %d visits %d neighbors, want %d", label, u, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("%s: neighbor %d of %d = %+v, want %+v", label, i, u, gn[i], wn[i])
			}
			if w := got.Weight(u, wn[i].To); w != wn[i].W {
				t.Fatalf("%s: Weight(%d,%d) = %v, want %v", label, u, wn[i].To, w, wn[i].W)
			}
		}
	}
}

// TestBackedEquivalence drives every Graph accessor on a backed graph, its
// views, and graphs merged from it, asserting bitwise equality with the heap
// twin.
func TestBackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 17, 80} {
		h := randomTestGraph(rng, n, 0.15)
		b := toBacked(t, h, nil)
		if !b.Backed() {
			t.Fatal("Backed() = false on FromCSRBacked graph")
		}
		sameAsHeap(t, "base", b, h)

		// Views over backed storage.
		sameAsHeap(t, "pos view", b.PositivePart(), h.PositivePart())
		sameAsHeap(t, "pos compact", b.PositivePartCompact(), h.PositivePartCompact())
		if n > 3 {
			S := []int{0, 2, n - 1}
			sameAsHeap(t, "without", b.WithoutVertices(S), h.WithoutVertices(S))
			sameAsHeap(t, "without+pos", b.WithoutVertices(S).PositivePart(), h.WithoutVertices(S).PositivePart())
			sameAsHeap(t, "without compact", b.WithoutVertices(S).Compact(), h.WithoutVertices(S).Compact())
		}

		// Compact on a plain backed graph is the identity; CSR yields arrays
		// equal to the original's, and a heap graph over copies of them no
		// longer references the backed storage.
		if b.Compact() != b {
			t.Fatal("Compact() on a plain backed graph must return the graph itself")
		}
		boff, bids, bws := b.CSR()
		hoff, hids, hws := h.CSR()
		if !slices.Equal(boff, hoff) {
			t.Fatalf("CSR off mismatch: %v vs %v", boff, hoff)
		}
		if !slices.Equal(bids, hids) {
			t.Fatalf("CSR ids mismatch: %v vs %v", bids, hids)
		}
		for i := range bws {
			if math.Float64bits(bws[i]) != math.Float64bits(hws[i]) {
				t.Fatalf("CSR ws[%d]: %v vs %v", i, bws[i], hws[i])
			}
		}
		heap, err := FromCSR(b.N(), slices.Clone(boff), slices.Clone(bids), slices.Clone(bws))
		if err != nil {
			t.Fatalf("FromCSR over a backed graph's arrays: %v", err)
		}
		if heap.Backed() {
			t.Fatal("FromCSR must return heap storage")
		}
		sameAsHeap(t, "heap copy", heap, h)

		// Merge machinery: difference, blend, delta, maintainer seeding.
		h2 := randomTestGraph(rng, n, 0.15)
		b2 := toBacked(t, h2, nil)
		sameAsHeap(t, "difference", DifferenceAlpha(b2, b, 0.7), DifferenceAlpha(h2, h, 0.7))
		sameAsHeap(t, "blend", Blend(b, b2, 0.25, 0.75), Blend(h, h2, 0.25, 0.75))
		if n > 2 {
			delta := []Edge{{U: 0, V: 1, W: 3.5}, {U: 1, V: 2, W: -2}}
			sameAsHeap(t, "delta", ApplyDelta(b, delta), ApplyDelta(h, delta))
			mb := NewMaintainer(b, b2, 0.5)
			mh := NewMaintainer(h, h2, 0.5)
			sameAsHeap(t, "maintainer diff", mb.DiffGraph(), mh.DiffGraph())
		}

		// Scalar transforms materialize off backed storage.
		sameAsHeap(t, "negate", b.Negate(), h.Negate())
		sameAsHeap(t, "scale", b.Scale(2.5), h.Scale(2.5))
	}
}

func TestBackedRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	released := 0
	g := toBacked(t, randomTestGraph(rng, 20, 0.2), func() { released++ })
	if released != 0 {
		t.Fatal("release hook ran before Release")
	}
	g.Release()
	if released != 1 {
		t.Fatalf("release hook ran %d times, want 1", released)
	}
	g.Release() // idempotent
	if released != 1 {
		t.Fatalf("Release must run the hook at most once; ran %d times", released)
	}
	if toBacked(t, randomTestGraph(rng, 5, 0.5), nil).StorageBytes() == 0 {
		t.Fatal("StorageBytes() = 0 on a non-empty backed graph")
	}
}

// TestFromCSRBackedRejectsCorruptInput runs every corrupt input through both
// constructors, which share one validator: each must reject it.
func TestFromCSRBackedRejectsCorruptInput(t *testing.T) {
	// A valid 3-vertex path to perturb: edges (0,1,w=2), (1,2,w=-3).
	base := func() (off []int, ids []int32, ws []float64) {
		return []int{0, 1, 3, 4},
			[]int32{1, 0, 2, 1},
			[]float64{2, 2, -3, -3}
	}
	cases := []struct {
		name string
		mut  func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64)
	}{
		{"bad n", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return -1, off, ids, ws
		}},
		{"offsets length", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return 3, off[:3], ids, ws
		}},
		{"parallel length mismatch", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return 3, off, ids, ws[:3]
		}},
		{"offsets end short", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			off[3] = 3
			return 3, off, ids, ws
		}},
		{"offsets decrease", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			off[1], off[2] = 3, 1
			return 3, off, ids, ws
		}},
		{"neighbor out of range", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[2] = 9
			return 3, off, ids, ws
		}},
		{"negative neighbor", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[1] = -1
			return 3, off, ids, ws
		}},
		{"self-loop", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[0] = 0
			return 3, off, ids, ws
		}},
		{"row not increasing", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[1], ids[2] = 2, 0
			return 3, off, ids, ws
		}},
		{"zero weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[0], ws[1] = 0, 0
			return 3, off, ids, ws
		}},
		{"NaN weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[0], ws[1] = math.NaN(), math.NaN()
			return 3, off, ids, ws
		}},
		{"+Inf weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[0], ws[1] = math.Inf(1), math.Inf(1)
			return 3, off, ids, ws
		}},
		{"-Inf weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[2], ws[3] = math.Inf(-1), math.Inf(-1)
			return 3, off, ids, ws
		}},
		{"mirror weight mismatch", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[1] = 2.0000001
			return 3, off, ids, ws
		}},
		{"asymmetric entry", func([]int, []int32, []float64) (int, []int, []int32, []float64) {
			// Structurally sorted, but the entry (0,1) has no mirror in row 1.
			return 2, []int{0, 1, 1}, []int32{1}, []float64{2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, off, ids, ws := tc.mut(base())
			if _, err := FromCSR(n, off, ids, ws); err == nil {
				t.Fatalf("FromCSR accepted corrupt input (%s)", tc.name)
			}
			n, off, ids, ws = tc.mut(base())
			if _, err := FromCSRBacked(n, off, ids, ws, nil); err == nil {
				t.Fatalf("FromCSRBacked accepted corrupt input (%s)", tc.name)
			}
		})
	}
	// The unperturbed base must be accepted, or the cases above prove nothing.
	off, ids, ws := base()
	if _, err := FromCSR(3, off, ids, ws); err != nil {
		t.Fatalf("FromCSR rejected valid input: %v", err)
	}
	off, ids, ws = base()
	if _, err := FromCSRBacked(3, off, ids, ws, nil); err != nil {
		t.Fatalf("FromCSRBacked rejected valid input: %v", err)
	}
}

// TestCSRAliasesStorage pins CSR's aliasing contract: a plain graph, heap or
// backed, hands out its own arrays; a view hands out fresh ones.
func TestCSRAliasesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	h := randomTestGraph(rng, 30, 0.3)
	b := toBacked(t, h, nil)
	for _, g := range []*Graph{h, b} {
		off, ids, ws := g.CSR()
		if len(ids) == 0 {
			t.Fatal("test graph has no edges")
		}
		if &off[0] != &g.off[0] || &ids[0] != &g.ids[0] || &ws[0] != &g.ws[0] {
			t.Fatalf("CSR on a plain graph (backed=%v) copied its arrays", g.Backed())
		}
		v := g.WithoutVertices([]int{0})
		voff, vids, vws := v.CSR()
		if &voff[0] == &g.off[0] || &vids[0] == &g.ids[0] || &vws[0] == &g.ws[0] {
			t.Fatalf("CSR on a view (backed=%v) aliased the base arrays", g.Backed())
		}
	}
}

// TestNewBuilderRejectsIDOverflow pins the int32-id cap: a vertex count past
// MaxN panics before anything is allocated.
func TestNewBuilderRejectsIDOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(1<<31) did not panic")
		}
	}()
	NewBuilder(1 << 31)
}

// TestPositivePartCompactMemoized asserts the plain-graph memoization: two
// calls return the same materialization, and views still get correct (fresh)
// results.
func TestPositivePartCompactMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randomTestGraph(rng, 40, 0.2)
	p1, p2 := g.PositivePartCompact(), g.PositivePartCompact()
	if p1 != p2 {
		t.Fatal("PositivePartCompact not memoized on a plain graph")
	}
	sameAsHeap(t, "memoized pos", p1, g.PositivePart().Compact())
	v := g.WithoutVertices([]int{1, 2})
	vp := v.PositivePartCompact()
	if vp.IsView() {
		t.Fatal("PositivePartCompact on a view returned a view")
	}
	sameAsHeap(t, "view pos", vp, v.PositivePart().Compact())
}
