package graph

import "fmt"

// CSR exposes the graph's compressed-sparse-row arrays: the offsets array
// (len n+1) and the parallel neighbor-id and weight arrays it indexes, with
// every undirected edge appearing once per direction and each row sorted by
// neighbor id. On a plain graph the returned slices are the graph's own
// storage — on a plain backed graph, the mapping itself — and callers must
// not modify them; on a view the visible entries are compacted into fresh
// arrays first. This is the export hook the binary graph codec
// (internal/dataio) serializes from: dumping the arrays verbatim round-trips
// the graph byte-exactly with no per-edge re-sorting.
func (g *Graph) CSR() (off []int, ids []int32, ws []float64) {
	g = g.Compact()
	return g.off, g.ids, g.ws
}

// FromCSR builds a Graph directly from CSR arrays, the import counterpart of
// CSR: off (len n+1) indexes the directed entry arrays ids and ws. The arrays
// are adopted, not copied — the caller must not modify them afterwards.
//
// Every structural invariant a Builder would establish is verified: offsets
// form a monotone cover of the entries, each row is strictly increasing
// (sorted, no parallel entries), entries are self-loop-free with finite
// non-zero weights, and every directed entry has a bitwise-equal mirror in
// the opposite row. The edge count and total weight are recomputed in the
// same pass, so corrupt or hostile input (FromCSRBacked hands over mapped
// file bytes) produces an error, never a Graph violating the package
// contracts.
func FromCSR(n int, off []int, ids []int32, ws []float64) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxN {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the limit %d", n, MaxN)
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want n+1 = %d", len(off), n+1)
	}
	if len(ids) != len(ws) {
		return nil, fmt.Errorf("graph: %d neighbor ids but %d weights", len(ids), len(ws))
	}
	if n > 0 && off[0] != 0 {
		return nil, fmt.Errorf("graph: offsets must start at 0, got %d", off[0])
	}
	if len(off) > 0 && off[n] != len(ids) {
		return nil, fmt.Errorf("graph: offsets end at %d, want len(entries) = %d", off[n], len(ids))
	}
	m := 0
	var tw float64
	// Mirror verification runs as one O(n+m) merge instead of a binary
	// search per edge: cur[v].next walks row v's lower-partner entries
	// (ids < v, sorted ascending), which must be consumed in order by the
	// upper edges (u, v) as u ascends — both sequences are strictly
	// increasing, so the greedy match is exact. An unconsumed lower entry
	// (a mirror with no counterpart) either mismatches a later consumption
	// or survives to the final 2m == len(ids) count, which then fails.
	// This pass dominates the mmap cold-open cost, so it stays sequential
	// and branch-light, with the cursor and row end packed into one cache
	// line per probed vertex.
	// The monotone check runs in the cursor-init scan, before any off[u] is
	// used as a slice index: with off[0] == 0 and off[n] == len(ids) already
	// verified, monotonicity bounds every row inside the entry arrays, so
	// hostile offsets (which may alias an untrusted mapping verbatim) error
	// here instead of faulting the loops below.
	type rowCursor struct{ next, end int }
	var cur []rowCursor
	if n > 0 {
		cur = make([]rowCursor, n)
		for v := range cur {
			if off[v+1] < off[v] {
				return nil, fmt.Errorf("graph: offsets decrease at vertex %d", v)
			}
			cur[v] = rowCursor{next: off[v], end: off[v+1]}
		}
	}
	// A sorted row splits into its lower-partner prefix (ids < u) and
	// upper-partner suffix (ids > u), so each row runs as two tight loops
	// instead of one with a per-entry to>u branch — that branch is ~50/50
	// and its mispredictions, not the checks themselves, dominated the
	// single-loop version.
	for u := 0; u < n; u++ {
		i, re := off[u], off[u+1]
		prev := -1
		// Lower prefix: -1 < to < u (so the bounds check is implied) and
		// strictly increasing; the mirror pairing is consumed by the upper
		// loop of the partner rows via cur.
		for ; i < re; i++ {
			to, w := int(ids[i]), ws[i]
			if to >= u {
				break
			}
			if to <= prev {
				return nil, rowOrderErr(u, to, n)
			}
			prev = to
			// w-w is 0 for every finite non-zero weight and NaN for
			// NaN/±Inf — one subtraction in place of IsNaN+IsInf calls.
			if w == 0 || w-w != 0 {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, to, w)
			}
		}
		if i < re && int(ids[i]) == u {
			return nil, fmt.Errorf("graph: self-loop on vertex %d", u)
		}
		// Upper suffix: every entry counts an undirected edge from its
		// lower endpoint and must find its bitwise-equal mirror next in
		// the higher row's consumption order.
		for ; i < re; i++ {
			to, w := int(ids[i]), ws[i]
			if uint(to) >= uint(n) || to <= prev {
				return nil, rowOrderErr(u, to, n)
			}
			prev = to
			if w == 0 || w-w != 0 {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, to, w)
			}
			c := cur[to]
			if c.next >= c.end || int(ids[c.next]) != u || ws[c.next] != w {
				return nil, fmt.Errorf("graph: edge (%d,%d) has no matching mirror entry", u, to)
			}
			cur[to].next = c.next + 1
			m++
			tw += w
		}
	}
	if 2*m != len(ids) {
		return nil, fmt.Errorf("graph: %d directed entries for %d undirected edges", len(ids), m)
	}
	return &Graph{n: n, m: m, totalW: tw, off: off, ids: ids, ws: ws}, nil
}

// rowOrderErr describes a neighbor id that broke row u's strictly increasing
// order within [0, n): out of range, or not above its predecessor. It runs
// only on the error path, so the validation loops keep a single comparison.
func rowOrderErr(u, to, n int) error {
	if to < 0 || to >= n {
		return fmt.Errorf("graph: vertex %d has neighbor %d out of range [0,%d)", u, to, n)
	}
	return fmt.Errorf("graph: row %d not strictly increasing at neighbor %d", u, to)
}

// rowAppender assembles a plain heap graph row by row, in vertex order, into
// fresh CSR arrays. It is the one writer behind every materializing
// constructor (mapWeights, mergeRows, the Maintainer's accessors): each
// undirected edge is appended from both endpoint rows and counted from its
// lower one, and zero weights are dropped.
type rowAppender struct {
	n   int
	off []int
	ids []int32
	ws  []float64
	m   int
	tw  float64
}

// newRowAppender starts an n-vertex graph with room for sizeHint directed
// entries.
func newRowAppender(n, sizeHint int) *rowAppender {
	return &rowAppender{
		n:   n,
		off: make([]int, n+1),
		ids: make([]int32, 0, sizeHint),
		ws:  make([]float64, 0, sizeHint),
	}
}

// startRow begins row u; rows must be started in increasing order.
func (a *rowAppender) startRow(u int) { a.off[u] = len(a.ids) }

// add appends the entry (to, w) to row u unless w is zero.
func (a *rowAppender) add(u, to int, w float64) {
	if w == 0 {
		return
	}
	a.ids = append(a.ids, int32(to))
	a.ws = append(a.ws, w)
	if to > u {
		a.m++
		a.tw += w
	}
}

// graph closes the last row and returns the assembled graph.
func (a *rowAppender) graph() *Graph {
	a.off[a.n] = len(a.ids)
	return &Graph{n: a.n, m: a.m, totalW: a.tw, off: a.off, ids: a.ids, ws: a.ws}
}

// Rows is a read-only window onto a graph's CSR storage together with its
// view masks, for solvers that walk rows directly instead of through
// VisitNeighbors closures. The visible graph is the storage minus what the
// masks hide: every entry of a row u with Dropped(u), and every entry (to, w)
// for which Visible(to, w) is false. Honouring both on every read makes a
// view usable as is, with no Compact.
type Rows struct {
	off     []int
	ids     []int32
	ws      []float64
	drop    []bool // nil when no vertex is hidden
	posOnly bool
}

// Rows returns g's storage and masks without copying anything: on a view the
// arrays are the base graph's (on a backed graph, possibly a read-only
// mapping), so callers must never modify them.
func (g *Graph) Rows() Rows {
	return Rows{off: g.off, ids: g.ids, ws: g.ws, drop: g.drop, posOnly: g.posOnly}
}

// Row returns u's stored entries as parallel id and weight slices of equal
// length, masks not applied.
func (r *Rows) Row(u int32) ([]int32, []float64) {
	lo, hi := r.off[u], r.off[u+1]
	ids := r.ids[lo:hi]
	return ids, r.ws[lo:hi][:len(ids)]
}

// Dropped reports whether the vertex mask hides u and with it its whole row.
func (r *Rows) Dropped(u int32) bool { return r.drop != nil && r.drop[u] }

// Visible reports whether a stored entry (to, w) survives both masks. It
// reads no per-vertex state of its own beyond the vertex mask, so a caller
// that tests it first touches no scratch slot of a hidden neighbor.
func (r *Rows) Visible(to int32, w float64) bool {
	return !(r.posOnly && w <= 0) && !(r.drop != nil && r.drop[to])
}
