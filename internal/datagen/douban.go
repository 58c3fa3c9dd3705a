package datagen

import (
	"math/rand"
	"sort"

	"github.com/dcslib/dcs/internal/graph"
)

// DoubanConfig sizes the synthetic Douban dataset (appendix B-2): a social
// network G1 and an interest-similarity graph G2 derived from item ratings
// via Jaccard similarity between users within 2 hops of each other.
type DoubanConfig struct {
	Seed        int64
	N           int     // users; default 3000
	Communities int     // social communities; default 30
	AvgDeg      float64 // social background degree; default 6
	ItemsPer    int     // items per item-cluster; default 60
	RatingsPer  int     // ratings per user; default 40
	// Alignment in [0,1]: how strongly a user's ratings concentrate on the
	// item cluster matched to their community. High alignment (movies) means
	// interest similarity follows the social structure closely; low
	// (books) means it does not — reproducing the paper's movie-vs-book
	// asymmetry.
	Alignment float64
	// JaccardThreshold for creating an interest edge; the paper uses 0.2 for
	// movies and 0.1 for books.
	JaccardThreshold float64
}

func (c DoubanConfig) withDefaults() DoubanConfig {
	if c.N == 0 {
		c.N = 3000
	}
	if c.Communities == 0 {
		c.Communities = 30
	}
	if c.AvgDeg == 0 {
		c.AvgDeg = 6
	}
	if c.ItemsPer == 0 {
		c.ItemsPer = 60
	}
	if c.RatingsPer == 0 {
		c.RatingsPer = 40
	}
	if c.Alignment == 0 {
		c.Alignment = 0.8
	}
	if c.JaccardThreshold == 0 {
		c.JaccardThreshold = 0.2
	}
	return c
}

// MovieConfig returns the high-alignment preset: interest similarity tracks
// the social communities (the paper's finding that Douban's social network
// formation depends more on movie interest). The paper thresholds Jaccard at
// 0.2 on the real ratings; the synthetic ratings are denser, so the threshold
// is calibrated (0.27) to match Table II's m−/m+ ≈ 2.7 for the Movie
// Interest−Social difference graph.
func MovieConfig(seed int64) DoubanConfig {
	return DoubanConfig{Seed: seed, Alignment: 0.8, JaccardThreshold: 0.27}.withDefaults()
}

// BookConfig returns the low-alignment preset: book ratings track social
// communities weakly. The paper uses threshold 0.1 (book ratings are sparser
// than movie ratings); calibrated here to 0.085 to match Table II's
// m−/m+ ≈ 7.4 for the Book Interest−Social difference graph.
func BookConfig(seed int64) DoubanConfig {
	return DoubanConfig{Seed: seed, Alignment: 0.35, JaccardThreshold: 0.085}.withDefaults()
}

// Douban holds the social graph G1 and interest graph G2 (both unit-weight,
// as in the paper).
type Douban struct {
	G1, G2    *graph.Graph
	Labels    []string
	Community []int // community of each user
}

// DoubanGraphs generates the synthetic dataset: a community-structured social
// network, per-user rating sets biased toward the community's item cluster,
// and the interest graph from Jaccard similarity over rating sets for user
// pairs within 2 hops in the social graph — exactly the paper's pipeline.
func DoubanGraphs(cfg DoubanConfig) *Douban {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	comm := make([]int, n)
	for v := range comm {
		comm[v] = rng.Intn(cfg.Communities)
	}

	// Social graph: power-law background plus intra-community densification.
	b1 := graph.NewBuilder(n)
	deg := powerLawWeights(rng, n, 2.3, cfg.AvgDeg*0.4)
	chungLu(rng, b1, deg, unitWeight)
	byComm := make([][]int, cfg.Communities)
	for v, c := range comm {
		byComm[c] = append(byComm[c], v)
	}
	intraEdges := int(float64(n) * cfg.AvgDeg * 0.3)
	for e := 0; e < intraEdges; e++ {
		c := rng.Intn(cfg.Communities)
		m := byComm[c]
		if len(m) < 2 {
			continue
		}
		u, v := m[rng.Intn(len(m))], m[rng.Intn(len(m))]
		if u != v {
			b1.AddEdge(u, v, 1)
		}
	}
	g1 := b1.Build()

	// Ratings: each user rates RatingsPer items; with prob Alignment from the
	// community's item cluster, else from a random cluster.
	totalItems := cfg.Communities * cfg.ItemsPer
	ratings := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		r := make(map[int]bool, cfg.RatingsPer)
		for len(r) < cfg.RatingsPer {
			cluster := comm[v]
			if rng.Float64() >= cfg.Alignment {
				cluster = rng.Intn(cfg.Communities)
			}
			r[cluster*cfg.ItemsPer+rng.Intn(cfg.ItemsPer)] = true
		}
		ratings[v] = r
		_ = totalItems
	}

	// Interest graph: Jaccard over pairs within 2 hops of G1.
	b2 := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		cands := twoHop(g1, u)
		for _, v := range cands {
			if v <= u {
				continue
			}
			if jaccard(ratings[u], ratings[v]) > cfg.JaccardThreshold {
				b2.AddEdge(u, v, 1)
			}
		}
	}
	return &Douban{G1: g1, G2: b2.Build(), Labels: numberedLabels("user", n), Community: comm}
}

// twoHop returns the vertices within two hops of u (excluding u), sorted.
func twoHop(g *graph.Graph, u int) []int {
	seen := map[int]bool{u: true}
	var out []int
	visit := func(v int, _ float64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	g.VisitNeighbors(u, visit)
	g.VisitNeighbors(u, func(v int, _ float64) { g.VisitNeighbors(v, visit) })
	sort.Ints(out)
	return out
}

func jaccard(a, b map[int]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	small, big := a, b
	if len(small) > len(big) {
		small, big = big, small
	}
	for k := range small {
		if big[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// InterestMinusSocialGD returns G2 − G1 (interest − social).
func (d *Douban) InterestMinusSocialGD() *graph.Graph { return graph.Difference(d.G1, d.G2) }

// SocialMinusInterestGD returns G1 − G2 (social − interest).
func (d *Douban) SocialMinusInterestGD() *graph.Graph { return graph.Difference(d.G2, d.G1) }
