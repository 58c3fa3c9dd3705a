package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/evolve"
	"github.com/dcslib/dcs/internal/graph"
)

// tracer collects spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) int64 {
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	return s.ID
}

// replayer times the public functions of each layer, one span per call,
// on the inputs the workloads send to dcsd, generated from the same seed.
type replayer struct {
	tr      *tracer
	trace   int64 // replay items use negative trace IDs; HTTP ops use their index
	metrics map[string]metric
	tmp     string
}

func (r *replayer) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// timeItem runs fn once per input, in rounds, until at least three rounds
// and 300 ms have passed (at most 50 rounds). It returns the median over
// rounds of the mean call time, in ms.
func (r *replayer) timeItem(item, call string, inputs int, fn func(i int)) float64 {
	start := time.Now()
	var rounds []float64
	for len(rounds) < 3 || (time.Since(start) < 300*time.Millisecond && len(rounds) < 50) {
		rounds = append(rounds, mean(r.timeEach(item, call, inputs, fn)))
	}
	return median(rounds)
}

// allocsPerCall counts heap allocations per call over one pass of the
// inputs (a count, exact for single-threaded code).
func allocsPerCall(inputs int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < inputs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(inputs)
}

// replayChurn times graph build, difference, v2 write and mapped open on
// the snapshot-churn variants.
func (r *replayer) replayChurn(w *snapshotChurn) error {
	type side struct {
		g    *graph.Graph
		path string
	}
	var sides []side // pair-major: a0..a{V-1}, b0..b{V-1}
	for p := range w.graphs {
		for s := 0; s < 2; s++ {
			for v, g := range w.graphs[p][s] {
				sides = append(sides, side{g: g, path: filepath.Join(r.tmp, fmt.Sprintf("p%d-%d-%d.dcsg", p, s, v))})
			}
		}
	}
	edges := make([][]graph.Edge, len(sides))
	for i, s := range sides {
		edges[i] = s.g.Edges()
	}
	n := w.size.N
	r.set("graph.build_ms", "ms", r.timeItem("graph.build", "graph.Builder.Build", len(sides), func(i int) {
		b := graph.NewBuilder(n)
		for _, e := range edges[i] {
			b.AddEdge(e.U, e.V, e.W)
		}
		b.Build()
	}))
	var werr error
	r.set("dataio.write_v2_ms", "ms", r.timeItem("dataio.write_v2", "dataio.WriteBinaryV2File", len(sides), func(i int) {
		if err := dataio.WriteBinaryV2File(sides[i].path, sides[i].g, false); err != nil && werr == nil {
			werr = err
		}
	}))
	if werr != nil {
		return werr
	}
	r.set("dataio.open_mapped_ms", "ms", r.timeItem("dataio.open_mapped", "dataio.OpenMapped", len(sides), func(i int) {
		m, err := dataio.OpenMapped(sides[i].path)
		if err != nil {
			if werr == nil {
				werr = err
			}
			return
		}
		m.Close()
	}))
	if werr != nil {
		return werr
	}
	// The difference of two mapped snapshots, as dcsd builds it on a cache
	// miss: every (variant1, variant2) combination of each pair.
	var mapped []*dataio.Mapped
	defer func() {
		for _, m := range mapped {
			m.Close()
		}
	}()
	for _, s := range sides {
		m, err := dataio.OpenMapped(s.path)
		if err != nil {
			return err
		}
		mapped = append(mapped, m)
	}
	V := w.size.Variants
	var combos [][2]*graph.Graph
	for p := range w.graphs {
		for v1 := 0; v1 < V; v1++ {
			for v2 := 0; v2 < V; v2++ {
				a := mapped[(2*p)*V+v1].Graph()
				b := mapped[(2*p+1)*V+v2].Graph()
				combos = append(combos, [2]*graph.Graph{a, b})
			}
		}
	}
	diff := func(i int) { graph.DifferenceAlpha(combos[i][0], combos[i][1], 1) }
	r.set("graph.difference_ms", "ms", r.timeItem("graph.difference", "graph.DifferenceAlpha", len(combos), diff))
	r.set("graph.difference_allocs", "count", allocsPerCall(len(combos), diff))
	return nil
}

// replayPairs is how many query-mix pairs of each size the core replay
// uses: enough to average over graphs, few enough to keep the replay short.
const replayPairs = 4

// replayCore times the solvers single-threaded (and the par speedups at
// degree 2) on the first query-mix pairs.
func (r *replayer) replayCore(pairs []qmPair, small []qmPair) {
	pairs, small = pairs[:min(replayPairs, len(pairs))], small[:min(replayPairs, len(small))]
	gds := make([]*graph.Graph, len(pairs))
	for i, p := range pairs {
		gds[i] = graph.DifferenceAlpha(p.g1, p.g2, 1)
	}
	sgds := make([]*graph.Graph, len(small))
	for i, p := range small {
		sgds[i] = graph.DifferenceAlpha(p.g1, p.g2, 1)
	}
	k := len(gds)
	seq := core.GAOptions{}
	par2 := core.GAOptions{Parallelism: 2}

	ad := make([]core.ADResult, k)
	ga := make([]core.GAResult, k)
	r.set("core.avgdeg_ms", "ms", r.timeItem("core.avgdeg", "core.DCSGreedy", k, func(i int) { ad[i] = core.DCSGreedy(gds[i]) }))
	k5 := func(i int) { core.TopKAverageDegree(gds[i], 5) }
	k5ms := r.timeItem("core.avgdeg_k5", "core.TopKAverageDegree", k, k5)
	r.set("core.avgdeg_k5_ms", "ms", k5ms)
	r.set("core.avgdeg_k5_allocs", "count", allocsPerCall(k, k5))
	r.set("core.affinity_ms", "ms", r.timeItem("core.affinity", "core.NewSEA", k, func(i int) { ga[i] = core.NewSEA(gds[i], seq) }))
	var inits, shrink int
	for _, g := range ga {
		inits += g.Stats.Inits
		shrink += g.Stats.ShrinkIters
	}
	r.set("core.affinity_inits", "count", float64(inits)/float64(k))
	r.set("core.affinity_shrink_iters", "count", float64(shrink)/float64(k))
	r.set("core.validate_ms", "ms", r.timeItem("core.validate", "core.ValidateAD+ValidateGA", k, func(i int) {
		core.ValidateAD(gds[i], ad[i]) //nolint:errcheck // timed only; dcsd's answers are checked elsewhere
		core.ValidateGA(gds[i], ga[i]) //nolint:errcheck
	}))
	a3 := func(i int) { core.TopKGraphAffinity(gds[i], 3, seq) }
	r.set("core.affinity_k3_ms", "ms", r.timeItem("core.affinity_k3", "core.TopKGraphAffinity", k, a3))
	r.set("core.affinity_k3_allocs", "count", allocsPerCall(k, a3))
	topics := func(i int) { core.CollectCliques(gds[i], seq) }
	topicsMS := r.timeItem("core.topics", "core.CollectCliques", k, topics)
	r.set("core.topics_ms", "ms", topicsMS)
	r.set("core.topics_allocs", "count", allocsPerCall(k, topics))
	tw := func(i int) { egoscan.Scan(sgds[i], egoscan.Options{}) }
	r.set("egoscan.totalweight_ms", "ms", r.timeItem("egoscan.totalweight", "egoscan.Scan", len(sgds), tw))
	r.set("egoscan.totalweight_allocs", "count", allocsPerCall(len(sgds), tw))

	topics2 := r.timeItem("par.topics_deg2", "core.CollectCliques(par=2)", k, func(i int) { core.CollectCliques(gds[i], par2) })
	k52 := r.timeItem("par.avgdeg_k5_deg2", "core.TopKAverageDegreePar(par=2)", k, func(i int) { core.TopKAverageDegreePar(gds[i], 5, 2) })
	r.set("par.topics_speedup", "x", topicsMS/topics2)
	r.set("par.avgdeg_k5_speedup", "x", k5ms/k52)
}

// replayEvolve times each delta tick of one round through evolve.New /
// ObserveDelta, one span per tick, on the first lane of each watch kind;
// the metric is the median tick.
func (r *replayer) replayEvolve(w *watchStream) error {
	for _, lanes := range w.inputs {
		var ticks []float64
		for _, in := range lanes[:1] {
			tr, err := evolve.New(in.spec.N, w.twinConfig())
			if err != nil {
				return err
			}
			if _, err := tr.Observe(in.base); err != nil {
				return err
			}
			deltas := make([][]graph.Edge, len(in.deltas))
			for i, d := range in.deltas {
				deltas[i] = toEdges(d)
			}
			var tickErr error
			ticks = append(ticks, r.timeEach("evolve.tick_"+in.name, "evolve.Tracker.ObserveDelta", len(deltas), func(i int) {
				if _, err := tr.ObserveDelta(deltas[i]); err != nil && tickErr == nil {
					tickErr = err
				}
			})...)
			if tickErr != nil {
				return tickErr
			}
		}
		r.set("evolve.tick_"+lanes[0].spec.Name+"_ms", "ms", median(ticks))
	}
	return nil
}

// timeEach calls fn once per input, in order, under one item span with a
// span per call, and returns every call's time in ms.
func (r *replayer) timeEach(item, call string, inputs int, fn func(i int)) []float64 {
	r.trace--
	start := time.Now()
	parent := r.tr.add(span{Trace: r.trace, Name: "replay." + item, Start: r.tr.ns(start)})
	pidx := len(r.tr.spans) - 1
	ms := make([]float64, inputs)
	for i := 0; i < inputs; i++ {
		a := time.Now()
		fn(i)
		b := time.Now()
		ms[i] = float64(b.Sub(a)) / 1e6
		r.tr.add(span{Trace: r.trace, Parent: parent, Name: call, Start: r.tr.ns(a), End: r.tr.ns(b)})
	}
	r.tr.spans[pidx].End = r.tr.ns(time.Now())
	return ms
}

// runReplay replays every layer on this seed's inputs, reusing the
// workload's own generated inputs where it has them.
func runReplay(tr *tracer, seed int64, w workload, tmpRoot string) (map[string]metric, error) {
	dir, err := os.MkdirTemp(tmpRoot, fmt.Sprintf("dcsd-%d-replay-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &replayer{tr: tr, metrics: map[string]metric{}, tmp: dir}

	churn, ok := w.(*snapshotChurn)
	if !ok {
		if churn, err = newSnapshotChurn(seed, defaultChurnSize); err != nil {
			return nil, err
		}
	}
	if err := r.replayChurn(churn); err != nil {
		return nil, fmt.Errorf("replaying graph/dataio: %w", err)
	}

	qsize := defaultQueryMixSize
	qsize.Pairs, qsize.CheapPairs = replayPairs, replayPairs
	big, small := qmPairs(seed, qsize)
	if qm, ok := w.(*queryMix); ok {
		big, small = qm.big, qm.small
	}
	r.replayCore(big, small)

	ws, ok := w.(*watchStream)
	if !ok {
		// Only the first lane of each watch kind is replayed.
		wsize := defaultWatchSize
		wsize.Watches = slices.Clone(wsize.Watches)
		for i := range wsize.Watches {
			wsize.Watches[i].Lanes = 1
		}
		ws = newWatchInputs(seed, wsize)
	}
	if err := r.replayEvolve(ws); err != nil {
		return nil, fmt.Errorf("replaying evolve: %w", err)
	}
	return r.metrics, nil
}
