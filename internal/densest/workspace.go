package densest

import (
	"sync"

	"github.com/dcslib/dcs/internal/graph"
)

// workspace is one worker's dense peel scratch, indexed by global vertex id
// and sized to the largest n it has served. Workspaces come from a
// sync.Pool, so the G_D and G_D⁺ peels of one solve, the rounds of top-k,
// the ratio probes and warm-start local search all reuse the same arrays.
//
// Between uses pos is −1 everywhere, in and conn are all-zero and no seen
// stamp equals the next epoch; every other array is scratch that a peel
// overwrites before reading. A component-parallel peel shares one workspace
// among its workers: component c owns the segment start[c]:start[c+1] of
// members, heap and popDeg and the pos slots of its own vertices, and a
// worker tests an entry's visibility before it reads pos, so it never
// touches a slot of another component.
type workspace struct {
	g graph.Rows

	pos     []int32   // heap slot of v within its component's segment; −1 = not in a heap
	heap    []entry   // heap arena, segmented by component
	cid     []int32   // component id of v; reused as the keep mark of the answer
	stack   []int32   // component discovery stack, then the merged removal order
	members []int32   // vertices grouped by component, ascending within each; a peel overwrites its segment with its removal order
	popDeg  []float64 // weighted degree of each removal at its pop, segmented like members
	start   []int32   // component c is members[start[c]:start[c+1]]
	peels   []compPeel
	merge   []int32 // merge heap of component indices

	// LocalImprove scratch, grown on first use.
	in    []bool    // v ∈ S
	conn  []float64 // w(v, S), single-counted
	seen  []uint32  // seen[v] == epoch: v was scanned as a candidate this round
	epoch uint32
	added []int32 // vertices added to S, whose rows fed conn
}

// entry is one heap slot: a vertex and its current weighted degree, stored
// together so a comparison reads a single slot.
type entry struct {
	key float64
	v   int32
}

// less is the peel's priority: minimum degree first, ties broken by the
// smaller vertex id. It is a strict total order, so every correct heap pops
// the same sequence.
func (a entry) less(b entry) bool {
	return a.key < b.key || (a.key == b.key && a.v < b.v)
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// acquireWorkspace returns a pooled workspace; the caller sizes the arrays
// it needs with grow or growImprove.
func acquireWorkspace() *workspace {
	return workspacePool.Get().(*workspace)
}

// release drops the graph reference and returns ws to the pool. Callers
// release only after a normal return, never from a defer: a workspace
// abandoned by a panic may break its invariants and is left to the
// collector.
func (ws *workspace) release() {
	ws.g = graph.Rows{}
	workspacePool.Put(ws)
}

// grow sizes the peel arrays for n vertices, keeping pos's all −1 invariant.
// Arrays only grow, so a workspace reused across sizes allocates at most once
// per new maximum.
func (ws *workspace) grow(n int) {
	if cap(ws.pos) >= n {
		return
	}
	ws.pos = make([]int32, n)
	for i := range ws.pos {
		ws.pos[i] = -1
	}
	ws.heap = make([]entry, n)
	ws.cid = make([]int32, n)
	ws.stack = make([]int32, n)
	ws.members = make([]int32, n)
	ws.popDeg = make([]float64, n)
	// Counting sort places components through start[c+1] as a cursor, which
	// needs one slot beyond the n+1 boundaries.
	ws.start = make([]int32, n+2)
	ws.peels = make([]compPeel, n)
	ws.merge = make([]int32, n)
}

// growImprove sizes the LocalImprove arrays for n vertices, zeroed.
func (ws *workspace) growImprove(n int) {
	if cap(ws.conn) >= n {
		return
	}
	ws.in = make([]bool, n)
	ws.conn = make([]float64, n)
	ws.seen = make([]uint32, n)
	ws.epoch = 0
}

// nextEpoch starts a new seen generation. On wrap-around every stale stamp
// is cleared, so an old stamp can never alias the new epoch.
func (ws *workspace) nextEpoch() uint32 {
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.seen)
		ws.epoch = 1
	}
	return ws.epoch
}

// degree returns v's visible weighted degree, summed in row order exactly as
// graph.WeightedDegree does.
func (ws *workspace) degree(v int32) float64 {
	var s float64
	if ws.g.Dropped(v) {
		return s
	}
	ids, wts := ws.g.Row(v)
	for i, t := range ids {
		if w := wts[i]; ws.g.Visible(t, w) {
			s += w
		}
	}
	return s
}

// peelHeap is an indexed binary min-heap by (key, v) over one component's
// vertices. Its slots are a segment of the workspace's heap arena and pos
// maps a global vertex id to its slot in that segment.
type peelHeap struct {
	h   []entry
	pos []int32
}

// init heapifies h in place (its entries already written) and records every
// slot in pos.
func (p *peelHeap) init() {
	for i, e := range p.h {
		p.pos[e.v] = int32(i)
	}
	for i := len(p.h)/2 - 1; i >= 0; i-- {
		p.down(i)
	}
}

// popMin removes and returns the minimum entry, whose pos slot becomes −1.
// The hole left at the root walks down along the smaller children to a leaf,
// and the last entry is then sifted up from there: about half the
// comparisons of a classic sift-down, since the last entry almost always
// belongs near the bottom.
func (p *peelHeap) popMin() entry {
	h := p.h
	top := h[0]
	p.pos[top.v] = -1
	last := len(h) - 1
	i := 0
	//lint:allow loopcheck -- heap sift: O(log n) hops per pop, checkpointed by the pop loop
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].less(h[c]) {
			c = r
		}
		h[i] = h[c]
		p.pos[h[i].v] = int32(i)
		i = c
	}
	if i < last {
		p.up(i, h[last])
	}
	p.h = h[:last]
	return top
}

// lower subtracts w from the key in slot i and restores heap order: a
// positive w can only move the entry up, a negative one only down.
func (p *peelHeap) lower(i int32, w float64) {
	p.h[i].key -= w
	if w > 0 {
		p.up(int(i), p.h[i])
	} else {
		p.down(int(i))
	}
}

// up places e at slot i or above, moving larger parents down.
func (p *peelHeap) up(i int, e entry) {
	h := p.h
	//lint:allow loopcheck -- heap sift: O(log n) hops per update, checkpointed by the pop loop
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		p.pos[h[i].v] = int32(i)
		i = parent
	}
	h[i] = e
	p.pos[e.v] = int32(i)
}

// down sifts the entry in slot i toward the leaves.
func (p *peelHeap) down(i int) {
	h := p.h
	e := h[i]
	//lint:allow loopcheck -- heap sift: O(log n) hops per update, checkpointed by the pop loop
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		p.pos[h[i].v] = int32(i)
		i = c
	}
	h[i] = e
	p.pos[e.v] = int32(i)
}
