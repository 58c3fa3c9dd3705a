package graph

// This file implements backed CSR storage: a Graph whose adjacency arrays —
// offsets, neighbor ids ([]int32) and weights ([]float64), the same layout
// every Graph uses — are owned by the caller instead of the heap. The arrays
// are typically aliases of a read-only memory-mapped .dcsg v2 file
// (internal/dataio.OpenMapped), which is how dcsd serves snapshot sets larger
// than RAM: the kernel pages adjacency in and out on demand.
//
// A backed graph differs from a heap graph only in ownership: it carries a
// Release hook and reports Backed. Every accessor, view and merge reads it
// exactly as it reads a heap graph, and CSR on a plain backed graph returns
// the mapped arrays themselves.

// FromCSRBacked is FromCSR over externally owned arrays: off, ids and ws are
// neither copied nor owned by the graph, and may alias a read-only memory
// mapping. They are verified exactly as FromCSR verifies them. release, if
// non-nil, is invoked by Release when the storage should be torn down (e.g.
// munmap); after Release the graph and every view derived from it must not
// be used.
func FromCSRBacked(n int, off []int, ids []int32, ws []float64, release func()) (*Graph, error) {
	g, err := FromCSR(n, off, ids, ws)
	if err != nil {
		return nil, err
	}
	g.backed, g.release = true, release
	return g, nil
}

// Backed reports whether g's adjacency lives in externally owned storage
// (FromCSRBacked) rather than the heap.
func (g *Graph) Backed() bool { return g.backed }

// Release invokes the release hook the backed storage was constructed with
// (typically an munmap), at most once. After Release neither g nor any view
// or subslice derived from it may be used — the backing memory is gone. It
// is a no-op on heap graphs and on views (only the root graph that owns the
// hook releases).
func (g *Graph) Release() {
	if r := g.release; r != nil {
		g.release = nil
		r()
	}
}

// StorageBytes estimates the bytes of CSR storage reachable from g: offsets
// plus the id and weight arrays, plus the memoized positive part when one
// has been computed. Views report their base storage; the figure is the
// byte-accounting input of the dcsd memory budget, not an exact heap
// measurement.
func (g *Graph) StorageBytes() int64 {
	b := int64(len(g.off))*8 + int64(len(g.ids))*4 + int64(len(g.ws))*8
	if g.drop != nil {
		b += int64(len(g.drop))
	}
	if p := g.pos.Load(); p != nil {
		b += p.StorageBytes()
	}
	return b
}
