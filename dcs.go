// Package dcs mines Density Contrast Subgraphs: given two undirected weighted
// graphs G1 and G2 over the same vertex set, it finds the subgraph whose
// density differs the most between them, implementing the algorithms of
// Yang, Chu, Zhang, Wang, Pei & Chen, "Mining Density Contrast Subgraphs"
// (ICDE 2018, arXiv:1802.06775).
//
// Two density measures are supported:
//
//   - Average degree ρ(S) = W(S)/|S| — maximize ρ2(S) − ρ1(S) with
//     FindAverageDegreeDCSOnParCtx (the paper's DCSGreedy, an
//     O(n)-approximation with a data-dependent ratio; the exact problem is
//     NP-hard and O(n^(1−ε))-inapproximable).
//   - Graph affinity f(x) = xᵀAx over the simplex — maximize f2(x) − f1(x)
//     with FindGraphAffinityDCSOnCtx (the paper's NewSEA: coordinate-descent
//     shrink-and-expansion with smart initialization; the result is always a
//     positive clique of the difference graph).
//
// Both reduce to mining the difference graph GD = G2 − G1, whose edge weights
// may be negative. All of the paper's conventions are preserved; in
// particular W(S) counts every undirected edge once per direction, so a
// unit-weight k-clique has average degree k−1 and affinity 1−1/k.
//
// Typical use:
//
//	b1 := dcs.NewBuilder(n) // relations yesterday
//	b2 := dcs.NewBuilder(n) // relations today
//	... b1.AddEdge(u, v, w) ...
//	gd := dcs.Difference(b1.Build(), b2.Build())
//	res := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, nil)
//	fmt.Println(res.S, res.Affinity)
//
// Every solver takes the difference graph, so one GD can feed several
// solves, and a pre-built signed graph (e.g. expected-vs-observed weights)
// is mined the same way. To find subgraphs whose density *dropped*, swap
// the arguments of Difference. On a single positive-weight graph,
// FindGraphAffinityDCSOnCtx is the traditional graph-affinity densest
// subgraph of Liu et al. [18].
//
// # Cancellation
//
// Both DCS problems are NP-hard, so no caller can predict how long one solve
// will run. Every solver therefore takes a context.Context first: when the
// context is cancelled or its deadline expires, the solver unwinds within
// one checkpoint interval (~1024 inner-loop iterations, microseconds in
// practice) and returns its best-so-far partial result with the Interrupted
// field (or the interrupted return value) set — still a valid subgraph with
// exact metrics, just without the completed run's guarantees. Callers with
// no deadline pass context.Background(); the checkpoints then cost under 2%
// on the solver hot loops.
//
// # Parallelism
//
// A single solve can spread its work over a bounded worker pool. The
// average-degree and ratio solvers take an explicit workers argument
// (FindAverageDegreeDCSOnParCtx, TopKAverageDegreeDCSOnParCtx,
// FindMaxRatioContrastParCtx); the graph-affinity solvers read
// Options.Parallelism. Degrees ≤ 1 select the sequential path and degrees
// above GOMAXPROCS are capped. Parallel solves are bitwise-deterministic:
// for a fixed input the result is identical at every parallelism degree,
// including degree 1 — the engines only parallelize steps whose reduction
// order is fixed (per-component peels with a deterministic merge,
// speculative probes committed in sequential order). Cancellation composes:
// a cancelled parallel solve still returns its best-so-far partial.
package dcs

import (
	"context"
	"io"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/graph"
)

// Graph is an immutable undirected weighted graph over vertices [0, n). Edge
// weights may be negative (difference graphs). Construct with NewBuilder or
// FromEdges.
type Graph = graph.Graph

// Builder accumulates edges for a Graph; parallel edges merge by summing.
type Builder = graph.Builder

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Stats summarizes a graph in the paper's Table II format.
type Stats = graph.Stats

// MaxN is the largest vertex count a Graph can hold.
const MaxN = graph.MaxN

// NewBuilder returns a Builder for a graph with n vertices. It panics if n
// is negative or exceeds MaxN.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a Graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Difference returns the difference graph GD = G2 − G1: the graph whose
// affinity matrix is A2 − A1. Both graphs must share the vertex count.
func Difference(g1, g2 *Graph) *Graph { return graph.Difference(g1, g2) }

// DifferenceAlpha returns GD = G2 − αG1, the generalized difference graph of
// Section III-D; maximizing density on it finds S with ρ2(S) − αρ1(S)
// maximized (an α-quasi-contrast).
func DifferenceAlpha(g1, g2 *Graph, alpha float64) *Graph {
	return graph.DifferenceAlpha(g1, g2, alpha)
}

// ApplyDelta returns the graph obtained from base by applying an edge-delta
// list: each entry sets the weight of edge (U, V) to W, with W = 0 removing
// the edge; the last entry wins when a pair repeats. It is the incremental
// alternative to rebuilding a snapshot — one linear CSR merge of the sorted
// delta against base, O(m + d log d + n) for d delta entries — and is how
// streaming consumers (the dcsd watch API) fold per-tick observations.
// Invalid entries (self-loops, out-of-range endpoints, non-finite weights)
// panic, matching Builder.AddEdge.
func ApplyDelta(base *Graph, delta []Edge) *Graph {
	return graph.ApplyDelta(base, delta)
}

// ReadGraphBinary reads a binary-format graph (magic, format version,
// CRC32-C checksums), verifying the checksums and every structural CSR
// invariant; corrupt or truncated input yields an error, never a malformed
// graph. Both format versions are accepted: version 1, a single
// checksummed dump of the CSR arrays that older dcsd data directories
// still hold, and version 2 (see WriteGraphBinaryV2).
func ReadGraphBinary(r io.Reader) (*Graph, error) { return dataio.ReadBinary(r) }

// WriteGraphBinaryV2 writes g in version 2 of the binary format:
// page-aligned sections (offsets, neighbor ids, weights) with per-section
// CRC32-C checksums, designed to be memory-mapped and served in place by
// OpenGraphMapped. The CSR arrays round-trip byte-exactly, so large graphs
// load an order of magnitude faster than through the text formats. This is
// the on-disk format of the dcsd persistence layer and of .dcsg files.
// With compress set, sorted neighbor ids are varint-delta encoded and
// repetitive weights are palette-encoded, typically shrinking files 2–4× at
// the cost of decoding those sections to the heap on open.
func WriteGraphBinaryV2(w io.Writer, g *Graph, compress bool) error {
	return dataio.WriteBinaryV2(w, g, compress)
}

// MappedGraph is an open binary graph file serving its CSR arrays straight
// from a read-only file mapping (or from a heap buffer on platforms and
// formats that cannot map). See OpenGraphMapped.
type MappedGraph = dataio.Mapped

// OpenGraphMapped opens a binary graph file for out-of-core serving.
// Version-2 files are memory-mapped: after one CRC + invariant verification
// pass, the O(e) adjacency stays in the kernel page cache and is paged in
// on demand, so a snapshot set larger than RAM can be served within a fixed
// heap budget. The returned graph is valid until Close; v1 files are
// heap-loaded through the same handle.
func OpenGraphMapped(path string) (*MappedGraph, error) { return dataio.OpenMapped(path) }

// VerifyGraphFile checksums a binary graph file (either version) with one
// sequential read and O(1) memory, without building the graph. It is how
// the dcsd store validates snapshots at boot before lazily mapping them.
func VerifyGraphFile(path string) error { return dataio.VerifyGraphFile(path) }

// AverageDegreeResult is a DCS under the average-degree measure.
type AverageDegreeResult = core.ADResult

// GraphAffinityResult is a DCS under the graph-affinity measure.
type GraphAffinityResult = core.GAResult

// Options tunes the graph-affinity solvers; the zero value (or nil pointer)
// matches the paper's experimental settings.
type Options = core.GAOptions

// ContrastClique is one positive clique found by the multi-initialization
// affinity solver, used for top-k contrast mining.
type ContrastClique = core.Clique

// FindAverageDegreeDCSOnParCtx finds the subgraph maximizing ρ2(S) − ρ1(S)
// by running DCSGreedy on the (signed) difference graph gd = G2 − G1. The
// solve is spread over at most workers goroutines: the Greedy(GD) and
// Greedy(GD+) peels run concurrently and each peel fans runs of its
// connected components out on the pool. Each peel works on a pooled dense
// workspace that reads gd's rows in place, views included, so repeated
// solves allocate little beyond their answers. When ctx is done the solver
// returns its best-so-far subgraph tagged Interrupted (see the package
// documentation).
func FindAverageDegreeDCSOnParCtx(ctx context.Context, gd *Graph, workers int) AverageDegreeResult {
	return core.DCSGreedyCtx(ctx, gd, workers)
}

// FindGraphAffinityDCSOnCtx finds the embedding maximizing x'A2x − x'A1x by
// running NewSEA on the difference graph gd = G2 − G1. The result's support
// is always a positive clique of GD (every pair inside strengthened its
// connection from G1 to G2). Pass nil options for the paper's defaults.
// When ctx is done the solver returns the best embedding found so far
// tagged Interrupted. On a single positive-weight graph this maximizes xᵀAx
// over the simplex — the traditional graph-affinity densest-subgraph
// problem of Liu et al. [18], which Section V-C notes the coordinate-descent
// machinery solves competitively.
func FindGraphAffinityDCSOnCtx(ctx context.Context, gd *Graph, opt *Options) GraphAffinityResult {
	var o Options
	if opt != nil {
		o = *opt
	}
	return core.NewSEACtx(ctx, gd, o)
}

// TopContrastCliquesOnCtx mines many density-contrast cliques of the
// difference graph gd at once: it runs the coordinate-descent solver from
// every vertex of GD+, refines each result to a positive clique,
// de-duplicates, removes cliques subsumed by larger ones and returns them
// sorted by decreasing affinity difference. This is the procedure behind the
// paper's top-k emerging/disappearing topic lists. When ctx is done the
// remaining initializations are skipped and the cliques already found are
// returned, with interrupted reporting the early stop.
func TopContrastCliquesOnCtx(ctx context.Context, gd *Graph, opt *Options) (cliques []ContrastClique, interrupted bool) {
	var o Options
	if opt != nil {
		o = *opt
	}
	return core.CollectCliquesCtx(ctx, gd, o)
}

// ValidateAverageDegreeResult re-derives every field of an
// AverageDegreeResult from the difference graph and reports the first
// inconsistency. Use it to guard pipelines that persist or transport results.
func ValidateAverageDegreeResult(gd *Graph, res AverageDegreeResult) error {
	return core.ValidateAD(gd, res)
}

// ValidateGraphAffinityResult is the GraphAffinityResult counterpart of
// ValidateAverageDegreeResult.
func ValidateGraphAffinityResult(gd *Graph, res GraphAffinityResult) error {
	return core.ValidateGA(gd, res)
}

// RatioContrastResult is the outcome of the α-quasi-contrast search.
type RatioContrastResult = core.RatioResult

// FindMaxRatioContrastParCtx searches for the largest α such that some
// subgraph S satisfies ρ2(S) ≥ α·ρ1(S), via binary search over the
// generalized difference graphs GD = G2 − αG1 of Section III-D. The returned
// α is certified by the witness S; it is +Inf when an edge exists only in G2
// (the degeneracy that makes the raw density-ratio objective ill-posed,
// Section III-C). Up to workers binary-search probes are evaluated
// concurrently: probes are run speculatively down the search's decision
// tree and only the sequential search's path is committed, so the certified
// α and witness are bitwise identical at every degree. When ctx is done the
// search stops after the probes in flight and returns the best certified
// witness so far, tagged Interrupted.
func FindMaxRatioContrastParCtx(ctx context.Context, g1, g2 *Graph, workers int) RatioContrastResult {
	return core.MaxRatioContrastCtx(ctx, g1, g2, workers)
}

// TopKAverageDegreeDCSOnParCtx mines up to k vertex-disjoint density
// contrast subgraphs under the average-degree measure by iterating DCSGreedy
// on the difference graph gd with previously found vertices removed, each
// iteration run on at most workers goroutines. It extends the paper toward
// its stated future-work direction of mining multiple subgraphs with large
// density difference. When ctx is done the subgraphs already mined are
// returned and interrupted reports the early stop.
func TopKAverageDegreeDCSOnParCtx(ctx context.Context, gd *Graph, k, workers int) (results []AverageDegreeResult, interrupted bool) {
	return core.TopKAverageDegreeCtx(ctx, gd, k, workers)
}

// TopKGraphAffinityDCSOnCtx mines up to k vertex-disjoint positive cliques of
// the difference graph gd with the largest affinity differences (disjoint
// communities rather than the possibly-overlapping topics of
// TopContrastCliquesOnCtx). interrupted reports that the underlying clique
// collection stopped early, so the selection ran over a partial candidate
// pool.
func TopKGraphAffinityDCSOnCtx(ctx context.Context, gd *Graph, k int, opt *Options) (cliques []ContrastClique, interrupted bool) {
	var o Options
	if opt != nil {
		o = *opt
	}
	return core.TopKGraphAffinityCtx(ctx, gd, k, o)
}

// MaxTotalWeightResult is a subgraph maximizing total weight difference
// W_D(S) (the objective of the EgoScan baseline, Cadena et al. [6]).
type MaxTotalWeightResult = egoscan.Result

// FindMaxTotalWeightSubgraphOnCtx maximizes the total edge-weight difference
// W_D(S) = W2(S) − W1(S) on the difference graph gd rather than a density —
// the objective of the paper's closest related work. Use it when very large
// contrast subgraphs are wanted (Section VI-E's guidance: graph affinity for
// small interpretable DCS, average degree for medium, total weight for the
// largest). When ctx is done the scan stops and the best candidate found so
// far is returned, tagged Interrupted.
func FindMaxTotalWeightSubgraphOnCtx(ctx context.Context, gd *Graph) MaxTotalWeightResult {
	return egoscan.ScanCtx(ctx, gd, egoscan.Options{})
}
