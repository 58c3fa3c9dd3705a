package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/serve"
)

// churnSize sizes the snapshot-churn inputs.
type churnSize struct {
	Pairs    int // snapshot pairs
	N        int // vertices per snapshot
	Variants int // seeded variants of each side (variant 0 is the base)
	Clients  int
	// MemShare is -memlimit as a share of the bytes of one variant of every
	// snapshot, below 1 so the working set does not fit.
	MemShare float64
	Decks    int // shuffled 4-op decks per client schedule (cycled)
}

var defaultChurnSize = churnSize{Pairs: 8, N: 1000, Variants: 4, Clients: 2, MemShare: 0.5, Decks: 4096}

// churnOp is one scheduled op: an upload replacing one side of a pair with
// a variant, or an avgdeg k=1 query on a pair.
type churnOp struct {
	Upload  bool `json:"upload"`
	Pair    int  `json:"pair"`
	Side    int  `json:"side"`
	Variant int  `json:"variant"`
}

// churnSchedule is client cl's seeded op order: decks of one upload and
// three queries, each deck shuffled, so uploads are 25% of ops by count.
func churnSchedule(seed int64, cl int, size churnSize) []churnOp {
	rng := rand.New(rand.NewSource(subSeed(seed, "churn-schedule", cl)))
	out := make([]churnOp, 0, 4*size.Decks)
	for d := 0; d < size.Decks; d++ {
		deck := []churnOp{{Upload: true}, {}, {}, {}}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, o := range deck {
			o.Pair = rng.Intn(size.Pairs)
			if o.Upload {
				o.Side = rng.Intn(2)
				o.Variant = rng.Intn(size.Variants)
			}
			out = append(out, o)
		}
	}
	return out
}

// perturb derives a variant of a snapshot: about a tenth of the edge
// weights move by up to ±50%, and a heavy 5-clique unique to the variant is
// planted, so the contrast answer depends on which variants meet.
func perturb(edges []serve.EdgeJSON, n int, rng *rand.Rand) []serve.EdgeJSON {
	out := slices.Clone(edges)
	for i := range out {
		if rng.Float64() < 0.1 {
			out[i].W *= 0.5 + rng.Float64()
		}
	}
	vs := rng.Perm(n)[:5]
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			out = append(out, serve.EdgeJSON{U: vs[i], V: vs[j], W: 8 + 4*rng.Float64()})
		}
	}
	return out
}

type churnCheck struct {
	pair   int
	r1, r2 serve.SnapshotRef
	got    answer
}

type snapVer struct {
	name    string
	version int
}

type snapshotChurn struct {
	size   churnSize
	names  [][2]string
	graphs [][2][]*dcs.Graph // [pair][side][variant]
	bodies [][2][][]byte     // upload bodies, same indexing
	want   [][][]answer      // [pair][variant1][variant2]
	query  [][]byte          // avgdeg k=1 query body per pair
	memLim int64
	sched  [][]churnOp

	mu      sync.Mutex
	version map[snapVer]int // every uploaded (name, version) -> variant
	checks  map[[2]int]churnCheck
}

func newSnapshotChurn(seed int64, size churnSize) (*snapshotChurn, error) {
	w := &snapshotChurn{size: size, version: map[snapVer]int{}, checks: map[[2]int]churnCheck{}}
	var baseBytes int64
	for p := 0; p < size.Pairs; p++ {
		c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: subSeed(seed, "churn-pair", p), N: size.N})
		names := [2]string{fmt.Sprintf("p%d.a", p), fmt.Sprintf("p%d.b", p)}
		var gs [2][]*dcs.Graph
		var bs [2][][]byte
		for side, base := range []*dcs.Graph{c.G1, c.G2} {
			rng := rand.New(rand.NewSource(subSeed(seed, "churn-variant", 2*p+side)))
			baseEdges := edgesOf(base)
			for v := 0; v < size.Variants; v++ {
				edges := baseEdges
				if v > 0 {
					edges = perturb(baseEdges, size.N, rng)
				}
				g, err := buildLikeServer(size.N, edges)
				if err != nil {
					return nil, err
				}
				gs[side] = append(gs[side], g)
				bs[side] = append(bs[side], mustJSON(serve.SnapshotRequest{
					Name: names[side], GraphJSON: serve.GraphJSON{N: size.N, Edges: edges}}))
				if v == 0 {
					var cw countWriter
					if err := dcs.WriteGraphBinaryV2(&cw, g, false); err != nil {
						return nil, err
					}
					baseBytes += cw.n
				}
			}
		}
		w.names = append(w.names, names)
		w.query = append(w.query, mustJSON(serve.DCSRequest{Measure: "avgdeg", G1: names[0], G2: names[1], K: 1}))
		w.graphs = append(w.graphs, gs)
		w.bodies = append(w.bodies, bs)
		want := make([][]answer, size.Variants)
		for v1 := range want {
			want[v1] = make([]answer, size.Variants)
			for v2 := range want[v1] {
				gd := dcs.DifferenceAlpha(gs[0][v1], gs[1][v2], 1)
				res, _ := dcs.TopKAverageDegreeDCSOnParCtx(context.Background(), gd, 1, 1)
				for _, x := range res {
					want[v1][v2].add(x.S, x.Density, x.TotalWeight)
				}
			}
		}
		w.want = append(w.want, want)
	}
	w.memLim = int64(float64(baseBytes) * size.MemShare)
	for cl := 0; cl < size.Clients; cl++ {
		w.sched = append(w.sched, churnSchedule(seed, cl, size))
	}
	return w, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *snapshotChurn) dcsdFlags() []string {
	return []string{"-parallelism", "1", "-memlimit", strconv.FormatInt(w.memLim, 10)}
}
func (w *snapshotChurn) needsData() bool { return true }
func (w *snapshotChurn) clients() int    { return w.size.Clients }

// recordUpload records which variant the version in an upload reply holds.
func (w *snapshotChurn) recordUpload(body []byte, variant int) error {
	var info serve.SnapshotInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	w.mu.Lock()
	w.version[snapVer{info.Name, info.Version}] = variant
	w.mu.Unlock()
	return nil
}

func (w *snapshotChurn) setup(ctx context.Context, c *client) error {
	w.mu.Lock()
	clear(w.version)
	clear(w.checks)
	w.mu.Unlock()
	for p := range w.names {
		for side := 0; side < 2; side++ {
			status, body, err := c.do(ctx, "POST", "/v1/snapshots", w.bodies[p][side][0])
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("uploading %s: status %d: %s", w.names[p][side], status, trim(body))
			}
			if err := w.recordUpload(body, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// precheck queries every pair once in its initial state.
func (w *snapshotChurn) precheck(ctx context.Context, c *client) error {
	for p := range w.names {
		var dr serve.DCSResponse
		if err := c.doJSON(ctx, "POST", "/v1/dcs", w.query[p], &dr); err != nil {
			return err
		}
		if d := w.want[p][0][0].diff(avgdegAnswer(dr)); d != "" {
			return fmt.Errorf("pair %d differs from the library: %s", p, d)
		}
	}
	return nil
}

func avgdegAnswer(dr serve.DCSResponse) answer {
	var a answer
	for _, r := range dr.Results {
		a.add(r.S, r.Density, r.TotalWeight)
	}
	return a
}

func (w *snapshotChurn) op(ctx context.Context, c *client, t0 time.Time, cl, seq int, rec *opRecord) {
	o := w.sched[cl][seq%len(w.sched[cl])]
	if o.Upload {
		rec.Kind = "upload"
		body := c.exchange(ctx, t0, "POST", "/v1/snapshots", w.bodies[o.Pair][o.Side][o.Variant], rec)
		if body == nil {
			return
		}
		if err := w.recordUpload(body, o.Variant); err != nil {
			rec.fail("upload reply: %v", err)
		}
		return
	}
	rec.Kind = "query"
	body := c.exchange(ctx, t0, "POST", "/v1/dcs", w.query[o.Pair], rec)
	if body == nil {
		return
	}
	var dr serve.DCSResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		rec.fail("query reply: %v", err)
		return
	}
	rec.SolveMS = dr.ElapsedMS
	if dr.Interrupted {
		rec.fail("interrupted")
		return
	}
	// The echoed versions name the variants the answer was computed on;
	// an upload racing this query may not have recorded its version yet,
	// so the comparison waits for verify.
	w.mu.Lock()
	w.checks[[2]int{cl, seq}] = churnCheck{pair: o.Pair, r1: dr.G1, r2: dr.G2, got: avgdegAnswer(dr)}
	w.mu.Unlock()
}

// verify looks up each query's variants through its echoed snapshot
// versions and compares the answer with the precomputed one.
func (w *snapshotChurn) verify(recs []opRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		if r.Kind != "query" || r.Failed {
			continue
		}
		ck, ok := w.checks[[2]int{r.Client, r.Seq}]
		if !ok {
			r.fail("no recorded reply")
			continue
		}
		v1, ok1 := w.version[snapVer{ck.r1.Name, ck.r1.Version}]
		v2, ok2 := w.version[snapVer{ck.r2.Name, ck.r2.Version}]
		if !ok1 || !ok2 || ck.r1.Name != w.names[ck.pair][0] || ck.r2.Name != w.names[ck.pair][1] {
			r.fail("reply echoes unknown snapshot versions %+v %+v", ck.r1, ck.r2)
			continue
		}
		if d := w.want[ck.pair][v1][v2].diff(ck.got); d != "" {
			r.fail("wrong answer for variants (%d,%d): %s", v1, v2, d)
		}
	}
}
