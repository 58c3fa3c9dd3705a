package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("p%g of 1..%d = %v, want %v", tc.q*100, tc.n, got, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples: want an error")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		// [10,30] and [20,40] overlap: their union covers 30, not 40.
		{"overlap", []span{{Start: 20, End: 40}, {Start: 10, End: 30}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		// Time outside the parent's interval does not count.
		{"clipped", []span{{Start: -50, End: 10}, {Start: 90, End: 150}}, 80},
		{"disjoint and touching", []span{{Start: 0, End: 10}, {Start: 10, End: 20}, {Start: 50, End: 60}}, 70},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 1, N: 300}).G2
	spec := watchSpec{Name: "w", N: 300, K: 4, Bursts: true, Ticks: 50}
	gens := map[string]func(seed int64) []byte{
		"query-mix": func(seed int64) []byte {
			return enc(queryMixSchedule(seed, qmSize{Pairs: 2, CheapPairs: 4, Decks: 8}))
		},
		"snapshot-churn": func(seed int64) []byte {
			return enc(churnSchedule(seed, 1, churnSize{Pairs: 8, Variants: 4, Decks: 64}))
		},
		"watch-stream": func(seed int64) []byte { return enc(watchStreamDeltas(seed, base, spec)) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules for seed 7 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", name)
		}
	}
}

// Every query-mix deck carries the mix by count, and each kind visits its
// pairs equally often.
func TestQueryMixScheduleMix(t *testing.T) {
	size := qmSize{Pairs: 2, CheapPairs: 4, Decks: 10}
	sched := queryMixSchedule(3, size)
	count := map[int]int{}
	perPair := map[qmOp]int{}
	for _, o := range sched {
		count[o.Kind]++
		perPair[o]++
	}
	for k, kind := range qmKinds {
		if want := kind.share * size.CheapPairs * size.Decks; count[k] != want {
			t.Errorf("%s: %d ops, want %d", kind.name, count[k], want)
		}
		pairs := kindPairs(k, size)
		for p := 0; p < pairs; p++ {
			if got, want := perPair[qmOp{Kind: k, Pair: p}], count[k]/pairs; got != want {
				t.Errorf("%s on pair %d: %d ops, want %d", kind.name, p, got, want)
			}
		}
	}
}
