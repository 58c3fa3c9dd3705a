// Benchmarks, one per table and figure of the paper's evaluation section.
// Each benchmark regenerates the corresponding experiment on the CI-scale
// synthetic datasets (run cmd/dcsbench for full scale and rendered output).
//
//	go test -bench=. -benchmem
package dcs_test

import (
	"io"
	"testing"

	"github.com/dcslib/dcs/internal/bench"
	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/graph"
)

// newSuite returns a warmed-up CI-scale suite (datasets pre-built so the
// benchmark timings measure the experiment, not generation).
func newSuite(b *testing.B) *bench.Suite {
	b.Helper()
	s := &bench.Suite{Quick: true}
	s.Datasets()
	b.ResetTimer()
	return s
}

// BenchmarkTableII — statistics of all 16 difference graphs.
func BenchmarkTableII(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableII(io.Discard)
	}
}

// BenchmarkTableIV — emerging/disappearing co-author groups under both
// density measures (Tables III+IV).
func BenchmarkTableIV(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableIV(io.Discard)
	}
}

// BenchmarkTableV — top-5 emerging/disappearing topics w.r.t. graph affinity.
func BenchmarkTableV(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableV(io.Discard, 5)
	}
}

// BenchmarkTableVI — top-5 single-era topics (the single-graph baseline).
func BenchmarkTableVI(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableVI(io.Discard, 5)
	}
}

// BenchmarkTableVII — running time of NewSEA vs SEACD+Refine vs SEA+Refine on
// every dataset, with SEA expansion-error counts.
func BenchmarkTableVII(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableVII(io.Discard)
	}
}

// BenchmarkFig2 — density sweep: SEACD-vs-SEA speed-up (2a) and SEA
// expansion-error rate (2b) against m⁺/n.
func BenchmarkFig2(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.Fig2(io.Discard)
	}
}

// BenchmarkTableVIII — EgoScan subgraphs on the DBLP difference graphs.
func BenchmarkTableVIII(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableVIII(io.Discard)
	}
}

// BenchmarkTableIX — total-edge-weight comparison: DCSGreedy vs NewSEA vs
// EgoScan.
func BenchmarkTableIX(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableIX(io.Discard)
	}
}

// BenchmarkTableX — DCSAD miners on the Wiki signed graphs.
func BenchmarkTableX(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableX(io.Discard)
	}
}

// BenchmarkTableXI — DCSGA on the Wiki signed graphs.
func BenchmarkTableXI(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableXI(io.Discard)
	}
}

// BenchmarkTableXII — DCSAD miners on the Douban graphs.
func BenchmarkTableXII(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableXII(io.Discard)
	}
}

// BenchmarkTableXIII — DCSGA on the Douban graphs.
func BenchmarkTableXIII(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableXIII(io.Discard)
	}
}

// BenchmarkFig3 — positive-clique count histograms on the Douban graphs.
func BenchmarkFig3(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.Fig3(io.Discard, 2, 2)
	}
}

// BenchmarkTableXIV — DCSGA on the DBLP-C and Actor graphs.
func BenchmarkTableXIV(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.TableXIV(io.Discard)
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks and ablations of the design choices the package
// docs describe (e.g. the substitution note in internal/egoscan).

// benchGD builds a mid-size signed difference graph once.
func benchGD(b *testing.B) *graph.Graph {
	b.Helper()
	ca := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 99, N: 3000})
	gd := ca.EmergingGD()
	b.ResetTimer()
	return gd
}

// BenchmarkDCSGreedy — Algorithm 2 end to end.
func BenchmarkDCSGreedy(b *testing.B) {
	gd := benchGD(b)
	for i := 0; i < b.N; i++ {
		core.DCSGreedy(gd)
	}
}

// BenchmarkNewSEA — Algorithm 5 end to end (smart initialization).
func BenchmarkNewSEA(b *testing.B) {
	gd := benchGD(b)
	for i := 0; i < b.N; i++ {
		core.NewSEA(gd, core.GAOptions{})
	}
}

// BenchmarkSEACDFullInit — ablation: NewSEA without the smart-initialization
// heuristic (the speed gap is the heuristic's contribution).
func BenchmarkSEACDFullInit(b *testing.B) {
	gd := benchGD(b)
	for i := 0; i < b.N; i++ {
		core.SEACDRefineFull(gd, core.GAOptions{})
	}
}

// BenchmarkSEAFullInit — ablation: replicator-dynamics shrink instead of
// coordinate descent (the gap is Section V-B's contribution).
func BenchmarkSEAFullInit(b *testing.B) {
	gd := benchGD(b)
	for i := 0; i < b.N; i++ {
		core.SEARefineFull(gd, core.GAOptions{})
	}
}

// BenchmarkEgoScan — the total-weight baseline on the same graph.
func BenchmarkEgoScan(b *testing.B) {
	gd := benchGD(b)
	for i := 0; i < b.N; i++ {
		egoscan.Scan(gd, egoscan.Options{})
	}
}

// BenchmarkDifferenceGraph — building GD = G2 − G1 via the sorted merge.
func BenchmarkDifferenceGraph(b *testing.B) {
	ca := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 99, N: 3000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Difference(ca.G1, ca.G2)
	}
}
