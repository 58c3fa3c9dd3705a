package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"runtime"
	"strconv"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/serve"
)

// qmSize sizes the query-mix inputs.
type qmSize struct {
	Pairs int // pairs of each size the heavy kinds run on
	// CheapPairs is how many big pairs the cheap kinds (avgdeg k=1 and
	// affinity k=1) cycle over, a multiple of Pairs. The p50 of the mix
	// falls among the cheap kinds, and affinity cost varies several-fold
	// from graph to graph, so the p50 settles only over many graphs.
	CheapPairs int
	BigN       int // vertices of the pairs every measure but totalweight runs on
	SmallN     int // vertices of the totalweight pairs
	Par        int // dcsd -parallelism
	Decks      int // shuffled decks in the op schedule (cycled)
}

var defaultQueryMixSize = qmSize{Pairs: 16, CheapPairs: 64, BigN: 2000, SmallN: 300, Par: 2, Decks: 4}

// qmKinds is the op mix: share ops of each kind out of every 20.
var qmKinds = []struct {
	name  string
	share int
	cheap bool // cycles over CheapPairs pairs rather than Pairs
}{
	{"avgdeg1", 7, true}, {"avgdeg5", 4, false}, {"affinity1", 5, true}, {"ratio", 1, false},
	{"affinity3", 1, false}, {"totalweight", 1, false}, {"topics3", 1, false},
}

// kindPairs is how many pairs kind k cycles over.
func kindPairs(k int, size qmSize) int {
	if qmKinds[k].cheap {
		return size.CheapPairs
	}
	return size.Pairs
}

// qmOp is one scheduled query: a kind (index into qmKinds) on a pair.
type qmOp struct {
	Kind int `json:"kind"`
	Pair int `json:"pair"`
}

// queryMixSchedule is the seeded op order: decks of the exact mix, each
// shuffled, so every deck carries the mix by count and every pair of a
// kind equally often.
func queryMixSchedule(seed int64, size qmSize) []qmOp {
	rng := rand.New(rand.NewSource(subSeed(seed, "qm-schedule", 0)))
	var deck []qmOp
	for k, kind := range qmKinds {
		pairs := kindPairs(k, size)
		for p := 0; p < pairs; p++ {
			for i := 0; i < kind.share*size.CheapPairs/pairs; i++ {
				deck = append(deck, qmOp{Kind: k, Pair: p})
			}
		}
	}
	out := make([]qmOp, 0, size.Decks*len(deck))
	for d := 0; d < size.Decks; d++ {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		out = append(out, deck...)
	}
	return out
}

// qmPair is one generated snapshot pair with the graphs dcsd will hold.
type qmPair struct {
	name1, name2 string
	g1, g2       *dcs.Graph
	up1, up2     []byte // POST /v1/snapshots bodies
}

// qmPairs generates the big pairs (CheapPairs of them) and the small ones.
func qmPairs(seed int64, size qmSize) (big, small []qmPair) {
	for i := 0; i < size.CheapPairs; i++ {
		b, err := newQMPair(seed, "big", i, size.BigN)
		if err != nil {
			panic(err) // generated graphs are always valid
		}
		big = append(big, b)
	}
	for i := 0; i < size.Pairs; i++ {
		s, err := newQMPair(seed, "small", i, size.SmallN)
		if err != nil {
			panic(err)
		}
		small = append(small, s)
	}
	return big, small
}

func newQMPair(seed int64, tag string, i, n int) (qmPair, error) {
	c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: subSeed(seed, tag, i), N: n})
	p := qmPair{name1: fmt.Sprintf("%s%d.g1", tag, i), name2: fmt.Sprintf("%s%d.g2", tag, i)}
	e1, e2 := edgesOf(c.G1), edgesOf(c.G2)
	var err error
	if p.g1, err = buildLikeServer(n, e1); err != nil {
		return p, err
	}
	if p.g2, err = buildLikeServer(n, e2); err != nil {
		return p, err
	}
	p.up1 = mustJSON(serve.SnapshotRequest{Name: p.name1, GraphJSON: serve.GraphJSON{N: n, Edges: e1}})
	p.up2 = mustJSON(serve.SnapshotRequest{Name: p.name2, GraphJSON: serve.GraphJSON{N: n, Edges: e2}})
	return p, nil
}

// qmRequest is one distinct request with its expected answer.
type qmRequest struct {
	kind   string
	method string
	path   string
	body   []byte
	want   answer
}

type queryMix struct {
	size  qmSize
	par   int // degree the server resolves -parallelism to
	big   []qmPair
	small []qmPair
	reqs  [][]qmRequest // [kind][pair]
	sched []qmOp
}

// newQueryMix generates the pairs and schedule and computes every distinct
// request's answer with direct library calls on the same graphs.
func newQueryMix(seed int64, size qmSize) *queryMix {
	w := &queryMix{size: size, par: min(size.Par, runtime.GOMAXPROCS(0))}
	w.big, w.small = qmPairs(seed, size)
	w.sched = queryMixSchedule(seed, size)
	ctx := context.Background()
	opt := &dcs.Options{Parallelism: w.par}
	w.reqs = make([][]qmRequest, len(qmKinds))
	for k, kind := range qmKinds {
		for i := 0; i < kindPairs(k, size); i++ {
			p := w.big[i]
			if kind.name == "totalweight" {
				p = w.small[i]
			}
			gd := dcs.DifferenceAlpha(p.g1, p.g2, 1)
			r := qmRequest{kind: kind.name, method: "POST", path: "/v1/dcs"}
			dreq := serve.DCSRequest{G1: p.name1, G2: p.name2}
			switch kind.name {
			case "avgdeg1", "avgdeg5":
				dreq.Measure, dreq.K = "avgdeg", 1
				if kind.name == "avgdeg5" {
					dreq.K = 5
				}
				res, _ := dcs.TopKAverageDegreeDCSOnParCtx(ctx, gd, dreq.K, w.par)
				for _, x := range res {
					r.want.add(x.S, x.Density, x.TotalWeight)
				}
			case "affinity1":
				dreq.Measure = "affinity"
				x := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, opt)
				r.want.add(x.S, x.Density, x.Affinity)
			case "affinity3":
				dreq.Measure, dreq.K = "affinity", 3
				cs, _ := dcs.TopKGraphAffinityDCSOnCtx(ctx, gd, 3, opt)
				for _, c := range cs {
					_, density, _ := gd.SubgraphMetrics(c.S)
					r.want.add(c.S, density, c.Affinity)
				}
			case "ratio":
				dreq.Measure = "ratio"
				x := dcs.FindMaxRatioContrastParCtx(ctx, p.g1, p.g2, w.par)
				r.want.add(x.S, x.Alpha, x.Density1, x.Density2)
			case "totalweight":
				dreq.Measure = "totalweight"
				x := dcs.FindMaxTotalWeightSubgraphOnCtx(ctx, gd)
				r.want.add(x.S, x.Density, x.TotalWeight)
			case "topics3":
				r.method, r.body = "GET", nil
				r.path = "/v1/topics?" + url.Values{"g1": {p.name1}, "g2": {p.name2}, "k": {"3"}}.Encode()
				cs, _ := dcs.TopContrastCliquesOnCtx(ctx, gd, opt)
				for j, c := range cs {
					if j == 3 {
						break
					}
					_, density, _ := gd.SubgraphMetrics(c.S)
					r.want.add(c.S, density, c.Affinity)
				}
			}
			if r.method == "POST" {
				r.body = mustJSON(dreq)
			}
			w.reqs[k] = append(w.reqs[k], r)
		}
	}
	return w
}

func (w *queryMix) dcsdFlags() []string {
	// The diff cache holds every pair's difference graph (topics caches a
	// second, reversed one per pair), so it stays warm.
	return []string{"-parallelism", strconv.Itoa(w.size.Par), "-cache", strconv.Itoa(2 * (w.size.CheapPairs + w.size.Pairs))}
}
func (w *queryMix) needsData() bool { return false }
func (w *queryMix) clients() int    { return 1 }

func (w *queryMix) setup(ctx context.Context, c *client) error {
	for _, ps := range [][]qmPair{w.big, w.small} {
		for _, p := range ps {
			for _, body := range [][]byte{p.up1, p.up2} {
				if err := c.doJSON(ctx, "POST", "/v1/snapshots", body, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// precheck sends every distinct request once and compares the reply with
// the library's answer; it also warms the server's difference-graph cache.
func (w *queryMix) precheck(ctx context.Context, c *client) error {
	for _, rs := range w.reqs {
		for i, r := range rs {
			status, body, err := c.do(ctx, r.method, r.path, r.body)
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("%s on pair %d: status %d: %s", r.kind, i, status, trim(body))
			}
			got, _, err := parseQMReply(r.kind, body)
			if err != nil {
				return fmt.Errorf("%s on pair %d: %w", r.kind, i, err)
			}
			if d := r.want.diff(got); d != "" {
				return fmt.Errorf("%s on pair %d differs from the library: %s", r.kind, i, d)
			}
		}
	}
	return nil
}

func (w *queryMix) op(ctx context.Context, c *client, t0 time.Time, _, seq int, rec *opRecord) {
	o := w.sched[seq%len(w.sched)]
	r := w.reqs[o.Kind][o.Pair]
	rec.Kind = r.kind
	body := c.exchange(ctx, t0, r.method, r.path, r.body, rec)
	if body == nil {
		return
	}
	got, ms, err := parseQMReply(r.kind, body)
	rec.SolveMS = ms
	if err != nil {
		rec.fail("%v", err)
		return
	}
	if d := r.want.diff(got); d != "" {
		rec.fail("wrong answer: %s", d)
	}
}

func (w *queryMix) verify([]opRecord) {}

// parseQMReply extracts the checked answer and the server's elapsed_ms.
func parseQMReply(kind string, body []byte) (answer, float64, error) {
	var a answer
	if kind == "topics3" {
		var tr serve.TopicsResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			return a, -1, err
		}
		if tr.Interrupted {
			return a, tr.ElapsedMS, fmt.Errorf("interrupted")
		}
		for _, t := range tr.Topics {
			a.add(t.S, t.Density, t.Affinity)
		}
		return a, tr.ElapsedMS, nil
	}
	var dr serve.DCSResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		return a, -1, err
	}
	if dr.Interrupted {
		return a, dr.ElapsedMS, fmt.Errorf("interrupted")
	}
	switch kind {
	case "ratio":
		if dr.Ratio == nil {
			return a, dr.ElapsedMS, fmt.Errorf("ratio reply without a ratio")
		}
		alpha := dr.Ratio.Alpha
		if dr.Ratio.Unbounded {
			alpha = math.Inf(1)
		}
		a.add(dr.Ratio.S, alpha, dr.Ratio.Density1, dr.Ratio.Density2)
	default:
		for _, r := range dr.Results {
			switch kind {
			case "affinity1", "affinity3":
				a.add(r.S, r.Density, r.Affinity)
			default:
				a.add(r.S, r.Density, r.TotalWeight)
			}
		}
	}
	return a, dr.ElapsedMS, nil
}
