package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing is reported: sample count, median and
// quartiles, plus the extremes so one hiccup is visible next to the median
// it did not move.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spread printed here is the spread the benchmark contract's checker sees.
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(q float64) float64 { // q in quarters: 1, 2, 3
		pos := q * float64(n+1) / 4 // 1-based rank, may be fractional
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return summary{N: n, Median: at(2), Q1: at(1), Q3: at(3), Min: s[0], Max: s[n-1]}
}

// percentile is the nearest-rank q-th percentile (0 < q <= 1); with fewer
// than 1/(1-q) samples it is the maximum.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vs []float64) float64 { return summarize(vs).Median }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
