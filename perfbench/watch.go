package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sync"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/serve"
)

// watchSpec is one kind of watch of the watch-stream workload, driven by
// its own client.
type watchSpec struct {
	Name   string
	N      int  // vertices of the watched network
	K      int  // base edges re-weighted per tick
	Bursts bool // plant a heavy 6-clique every 24th tick, remove it on the next
	Ticks  int  // delta ticks per round
	// Lanes is how many watches of this kind run, each on its own seeded
	// network and stream; the client feeds them in turn, tick by tick, so
	// one run averages over several networks rather than one.
	Lanes int
}

// watchSize sizes the watch-stream inputs: one client per watch.
type watchSize struct {
	Watches    []watchSpec
	Lambda     float64
	MinDensity float64
}

var defaultWatchSize = watchSize{
	Watches: []watchSpec{
		{Name: "local", N: 8000, K: 4, Bursts: true, Ticks: 720, Lanes: 8},
		{Name: "spread", N: 4000, K: 256, Ticks: 120, Lanes: 4},
	},
	Lambda:     0.3,
	MinDensity: 5,
}

// watchStream generates one watch's delta stream: per tick, k randomly
// chosen edges of the base network change intensity by up to ±40% (the
// topology stays put), plus, with bursts, a heavy 6-clique planted every
// 24th tick and removed on the next.
func watchStreamDeltas(seed int64, base *dcs.Graph, spec watchSpec) [][]serve.EdgeJSON {
	rng := rand.New(rand.NewSource(seed))
	edges := edgesOf(base)
	mob := rng.Perm(base.N())[:6]
	out := make([][]serve.EdgeJSON, spec.Ticks)
	for t := range out {
		tick := t + 1
		delta := make([]serve.EdgeJSON, 0, spec.K+15)
		for i := 0; i < spec.K; i++ {
			e := edges[rng.Intn(len(edges))]
			e.W *= 0.6 + 0.8*rng.Float64()
			delta = append(delta, e)
		}
		if spec.Bursts && tick%24 <= 1 && tick > 1 {
			var w float64 // remove the burst again by default
			if tick%24 == 0 {
				w = 40
			}
			for i := range mob {
				for j := i + 1; j < len(mob); j++ {
					delta = append(delta, serve.EdgeJSON{U: mob[i], V: mob[j], W: w})
				}
			}
		}
		out[t] = delta
	}
	return out
}

// watchInput is one watch's generated stream and its expected reports.
type watchInput struct {
	spec     watchSpec
	name     string
	base     *dcs.Graph
	deltas   [][]serve.EdgeJSON
	register []byte
	observe0 []byte   // the full base graph, the round's first observation
	ticks    [][]byte // observe bodies, one per delta tick
	want0    evolve.Report
	want     []evolve.Report // twin tracker's reports, one per delta tick
}

type watchStream struct {
	size   watchSize
	inputs [][]*watchInput // [client][lane]
}

func (w *watchStream) all() []*watchInput {
	var out []*watchInput
	for _, lanes := range w.inputs {
		out = append(out, lanes...)
	}
	return out
}

// newWatchStream generates the streams and computes the twin reports.
func newWatchStream(seed int64, size watchSize) (*watchStream, error) {
	w := newWatchInputs(seed, size)
	return w, w.computeTwins()
}

// newWatchInputs generates the streams without the twin reports.
func newWatchInputs(seed int64, size watchSize) *watchStream {
	w := &watchStream{size: size}
	for i, spec := range size.Watches {
		var lanes []*watchInput
		for l := 0; l < spec.Lanes; l++ {
			c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: subSeed(seed, "watch-base", 64*i+l), N: spec.N})
			baseEdges := edgesOf(c.G2)
			base, err := buildLikeServer(spec.N, baseEdges)
			if err != nil {
				panic(err) // generated graphs are always valid
			}
			in := &watchInput{spec: spec, name: fmt.Sprintf("%s-%d", spec.Name, l), base: base}
			in.deltas = watchStreamDeltas(subSeed(seed, "watch-stream", 64*i+l), base, spec)
			in.register = mustJSON(serve.WatchRequest{Name: in.name, N: spec.N, Lambda: size.Lambda, MinDensity: size.MinDensity})
			in.observe0 = mustJSON(serve.WatchObserveRequest{Graph: &serve.GraphJSON{N: spec.N, Edges: baseEdges}})
			for _, d := range in.deltas {
				in.ticks = append(in.ticks, mustJSON(serve.WatchObserveRequest{Delta: d}))
			}
			lanes = append(lanes, in)
		}
		w.inputs = append(w.inputs, lanes)
	}
	return w
}

// twinConfig is the tracker configuration dcsd gives a watch registered with
// this workload's request at -parallelism 1.
func (w *watchStream) twinConfig() evolve.Config {
	return evolve.Config{Lambda: w.size.Lambda, MinDensity: w.size.MinDensity, Opt: dcs.Options{Parallelism: 1}}
}

func toEdges(d []serve.EdgeJSON) []dcs.Edge {
	out := make([]dcs.Edge, len(d))
	for i, e := range d {
		out[i] = dcs.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// computeTwins feeds each watch's round to a local evolve.Tracker, the
// reference its replies are checked against. Watches run concurrently.
func (w *watchStream) computeTwins() error {
	all := w.all()
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, in := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := evolve.New(in.spec.N, w.twinConfig())
			if err != nil {
				errs[i] = err
				return
			}
			if in.want0, err = tr.Observe(in.base); err != nil {
				errs[i] = err
				return
			}
			want := make([]evolve.Report, len(in.deltas))
			for t, d := range in.deltas {
				if want[t], err = tr.ObserveDelta(toEdges(d)); err != nil {
					errs[i] = err
					return
				}
			}
			in.want = want
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *watchStream) dcsdFlags() []string { return []string{"-parallelism", "1"} }
func (w *watchStream) needsData() bool     { return false }
func (w *watchStream) clients() int        { return len(w.inputs) }

// startRound (re-)registers the watch and feeds it the base graph.
func (w *watchStream) startRound(ctx context.Context, c *client, in *watchInput) error {
	var rep serve.WatchReport
	if err := c.doJSON(ctx, "POST", "/v1/watches", in.register, nil); err != nil {
		return err
	}
	if err := c.doJSON(ctx, "POST", "/v1/watches/"+url.PathEscape(in.name)+"/observe", in.observe0, &rep); err != nil {
		return err
	}
	if d := reportDiff(in.want0, rep); d != "" {
		return fmt.Errorf("watch %s base observation: %s", in.name, d)
	}
	return nil
}

func (w *watchStream) setup(ctx context.Context, c *client) error {
	for _, in := range w.all() {
		if err := w.startRound(ctx, c, in); err != nil {
			return err
		}
	}
	return nil
}

// precheck has nothing to add: setup already checked each watch's base
// observation against its twin.
func (w *watchStream) precheck(context.Context, *client) error { return nil }

func (w *watchStream) op(ctx context.Context, c *client, t0 time.Time, cl, seq int, rec *opRecord) {
	lanes := w.inputs[cl]
	in := lanes[seq%len(lanes)]
	rec.Kind = "observe." + in.spec.Name
	t := (seq / len(lanes)) % in.spec.Ticks
	if t == 0 && seq >= len(lanes) {
		// A new round: the watch restarts from the base graph, so every
		// round replays the same stream against the same twin reports.
		// The restart is not a timed op.
		path := "/v1/watches/" + url.PathEscape(in.name)
		err := c.doJSON(ctx, "DELETE", path, nil, nil)
		if err == nil {
			err = w.startRound(ctx, c, in)
		}
		if err != nil {
			rec.Start = time.Since(t0)
			rec.End = rec.Start
			rec.fail("restarting the watch: %v", err)
			return
		}
	}
	body := c.exchange(ctx, t0, "POST", "/v1/watches/"+url.PathEscape(in.name)+"/observe", in.ticks[t], rec)
	if body == nil {
		return
	}
	var rep serve.WatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		rec.fail("observe reply: %v", err)
		return
	}
	rec.SolveMS = rep.ElapsedMS
	rec.Kind += "." + rep.Mode
	if d := reportDiff(in.want[t], rep); d != "" {
		rec.fail("%s tick %d: %s", in.name, t, d)
	}
}

func (w *watchStream) verify([]opRecord) {}

// reportDiff compares a watch reply with the twin tracker's report: step,
// verdict, vertex set, contrast (bitwise), solve mode and warm hit.
func reportDiff(want evolve.Report, got serve.WatchReport) string {
	switch {
	case got.Interrupted:
		return "interrupted"
	case got.Step != want.Step:
		return fmt.Sprintf("step %d, want %d", got.Step, want.Step)
	case got.Anomalous != want.Anomalous():
		return fmt.Sprintf("anomalous %v, want %v", got.Anomalous, want.Anomalous())
	case !slices.Equal(got.S, want.S):
		return fmt.Sprintf("S=%v, want %v", got.S, want.S)
	case math.Float64bits(got.Contrast) != math.Float64bits(want.Contrast) && got.Contrast != want.Contrast:
		// (0 and -0 compare equal: the reply omits a zero contrast.)
		return fmt.Sprintf("contrast %v, want %v", got.Contrast, want.Contrast)
	case got.Mode != want.Mode:
		return fmt.Sprintf("mode %s, want %s", got.Mode, want.Mode)
	case got.WarmHit != want.WarmHit:
		return fmt.Sprintf("warm hit %v, want %v", got.WarmHit, want.WarmHit)
	}
	return ""
}
