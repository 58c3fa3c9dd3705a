package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of vals by nearest rank. It
// refuses, with an error, when fewer than minBeyond samples lie beyond it:
// p50 needs 20 samples, p90 100 and p99 1000.
func percentile(vals []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(vals)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d of %d",
			q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples. Unlike percentile it is used for small
// repeated-measurement sets, such as the setup repetitions of one run.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// span is one timed interval of the trace. Spans of one HTTP op share the
// op's index as Trace; a child names its parent's ID. Times are nanoseconds
// since the run's trace epoch.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once (their union is
// subtracted), and child time outside the parent's interval is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, x := range ivs {
		if curB < curA || x.a > curB {
			if curB >= curA {
				covered += curB - curA
			}
			curA, curB = x.a, x.b
			continue
		}
		curB = max(curB, x.b)
	}
	if curB >= curA {
		covered += curB - curA
	}
	return parent.End - parent.Start - covered
}
