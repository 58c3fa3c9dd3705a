package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/serve"
)

// workload is one traffic mix driven against a dcsd child.
type workload interface {
	// dcsdFlags are the flags the child runs with (besides -addr and -data).
	dcsdFlags() []string
	// needsData reports whether the child runs with a -data directory.
	needsData() bool
	clients() int
	// setup puts the initial state in place on a fresh, healthy dcsd.
	setup(ctx context.Context, c *client) error
	// precheck runs untimed before the load phase: answer checks that need
	// no timing, and warm-up.
	precheck(ctx context.Context, c *client) error
	// op runs client cl's seq-th op of its schedule, timing it with
	// client.exchange and checking the reply where it can.
	op(ctx context.Context, c *client, t0 time.Time, cl, seq int, rec *opRecord)
	// verify runs after the load phase and marks ops whose answers could
	// only be checked once every op had completed.
	verify(recs []opRecord)
}

// workloadWhy records why each workload was chosen (as in BENCHMARK.json).
var workloadWhy = map[string]string{
	"query-mix":      "heavy analyst queries on a warm diff cache, 1 client, dcsd -parallelism 2: solvers and par do almost all the work, serve overhead is small",
	"snapshot-churn": "25% uploads beside avgdeg queries, 2 clients, -data with -memlimit below the working set: decode, build, persistence, mmap eviction and diff-cache misses dominate",
	"watch-stream":   "delta-fed watches, one client per kind: local k=4 churn stays on the incremental evolve path, spread k=256 churn falls back to scratch solves",
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "query-mix":
		return newQueryMix(seed, defaultQueryMixSize), nil
	case "snapshot-churn":
		return newSnapshotChurn(seed, defaultChurnSize)
	case "watch-stream":
		return newWatchStream(seed, defaultWatchSize)
	}
	return nil, fmt.Errorf("unknown workload %q (want query-mix, snapshot-churn or watch-stream)", name)
}

// subSeed derives an independent seed for one named input from the run
// seed, so every generated input depends on the run seed alone.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

// edgesOf lists g's edges in the canonical order the JSON upload carries.
func edgesOf(g *dcs.Graph) []serve.EdgeJSON {
	var out []serve.EdgeJSON
	g.VisitEdges(func(u, v int, w float64) {
		out = append(out, serve.EdgeJSON{U: u, V: v, W: w})
	})
	return out
}

// buildLikeServer builds a graph from an edge list through the same code
// path dcsd uses for uploads, so library answers see the server's graph.
func buildLikeServer(n int, edges []serve.EdgeJSON) (*dcs.Graph, error) {
	gj := serve.GraphJSON{N: n, Edges: edges}
	return gj.Build()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err)) // generated values always encode
	}
	return b
}

// answer is the checked content of one mining reply: the vertex sets and,
// per set, the floats that must match bitwise (density first).
type answer struct {
	S [][]int
	F [][]float64
}

func (a *answer) add(S []int, fs ...float64) {
	a.S = append(a.S, S)
	a.F = append(a.F, fs)
}

// diff describes the first difference between want and got, or "" when
// they agree exactly (floats compared bit for bit).
func (want answer) diff(got answer) string {
	if len(want.S) != len(got.S) {
		return fmt.Sprintf("%d results, want %d", len(got.S), len(want.S))
	}
	for i := range want.S {
		if !slices.Equal(want.S[i], got.S[i]) {
			return fmt.Sprintf("result %d: S=%v, want %v", i, got.S[i], want.S[i])
		}
		if len(want.F[i]) != len(got.F[i]) {
			return fmt.Sprintf("result %d: %d values, want %d", i, len(got.F[i]), len(want.F[i]))
		}
		for j := range want.F[i] {
			if math.Float64bits(want.F[i][j]) != math.Float64bits(got.F[i][j]) {
				return fmt.Sprintf("result %d value %d: %v, want %v", i, j, got.F[i][j], want.F[i][j])
			}
		}
	}
	return ""
}
