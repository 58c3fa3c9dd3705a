// Package datagen generates the synthetic datasets that stand in for the
// paper's real-world data (DBLP, DM paper titles, Wikipedia edit conflicts,
// Douban, DBLP-C, Actor), which are not available in this offline build.
//
// Each generator is deterministic given its seed and reproduces the
// *structural* properties the DCS algorithms are sensitive to — power-law
// degree backgrounds, planted dense groups whose connection strength rises or
// falls between the two snapshots, signed weights with the m+/m− imbalances
// of Table II, and the paper's Weighted/Discrete weight settings. The
// substitution note in the internal/egoscan package doc gives the rationale.
// Default scales are laptop sized (thousands of vertices); every config
// exposes size knobs.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/dcslib/dcs/internal/graph"
)

// powerLawWeights returns n expected degrees following a power law with the
// given exponent (≈2.1–2.5 for social networks), scaled so the average
// expected degree is avgDeg.
func powerLawWeights(rng *rand.Rand, n int, exponent, avgDeg float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		u := rng.Float64()
		w[i] = math.Pow(1-u, -1/(exponent-1))
		if w[i] > float64(n)/4 {
			w[i] = float64(n) / 4
		}
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}

// chungLu adds a Chung–Lu random graph to the builder: edge (u,v) appears
// with probability min(1, w_u·w_v/Σw) and weight drawn from weightFn. Uses
// the Miller–Hagberg skip-sampling over weight-sorted vertices, so expected
// cost is O(n + m) rather than O(n²).
func chungLu(rng *rand.Rand, b *graph.Builder, w []float64, weightFn func(*rand.Rand) float64) {
	n := len(w)
	if n < 2 {
		return
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool {
		if w[idx[a]] != w[idx[c]] {
			return w[idx[a]] > w[idx[c]]
		}
		return idx[a] < idx[c]
	})
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum <= 0 {
		return
	}
	prob := func(i, j int) float64 {
		p := w[idx[i]] * w[idx[j]] / sum
		if p > 1 {
			return 1
		}
		return p
	}
	for i := 0; i < n-1; i++ {
		j := i + 1
		p := prob(i, j)
		for j < n && p > 0 {
			if p < 1 {
				r := 1 - rng.Float64() // in (0, 1]
				j += int(math.Log(r) / math.Log(1-p))
			}
			if j >= n {
				break
			}
			q := prob(i, j)
			if rng.Float64() < q/p {
				b.AddEdge(idx[i], idx[j], weightFn(rng))
			}
			p = q
			j++
		}
	}
}

// collabWeight draws a collaboration count: 1 + geometric tail, giving many
// weight-1 edges and a few heavy ones, like co-authorship counts.
func collabWeight(rng *rand.Rand) float64 {
	w := 1
	for rng.Float64() < 0.35 && w < 40 {
		w++
	}
	return float64(w)
}

// unitWeight always returns 1 (for unweighted-style graphs).
func unitWeight(*rand.Rand) float64 { return 1 }

// plantClique adds a clique over members with edge weights drawn from wFn.
func plantClique(rng *rand.Rand, b *graph.Builder, members []int, wFn func(*rand.Rand) float64) {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			b.AddEdge(members[i], members[j], wFn(rng))
		}
	}
}

// constWeight returns a weight function that always yields w.
func constWeight(w float64) func(*rand.Rand) float64 {
	return func(*rand.Rand) float64 { return w }
}

// uniformWeight returns a weight function uniform on [lo, hi).
func uniformWeight(lo, hi float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 { return lo + rng.Float64()*(hi-lo) }
}

// pickDistinct draws k distinct vertices from [0, n) that are not already
// used, marking them used. Panics (by stalling forever) only if fewer than k
// free vertices remain; configs are sized so that cannot happen.
func pickDistinct(rng *rand.Rand, n, k int, used map[int]bool) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if used[v] {
			continue
		}
		used[v] = true
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// numberedLabels returns labels prefix-0 … prefix-(n-1).
func numberedLabels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}
