package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Quantile is one percentile read from raw samples by nearest rank.
type Quantile struct {
	Label string  // "p99", "p50", or "max" when no ladder rung qualifies
	Value float64 // the sample at that rank
	N     int     // samples it was read from
}

func (q Quantile) String() string {
	return fmt.Sprintf("%s n=%d", q.Label, q.N)
}

// rankIndex is the 0-based nearest-rank index of percentile p among n
// sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps float error (0.999·20000 > 19980) off the next rank.
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// Median is the p50 of the samples by nearest rank, never interpolated.
func Median(xs []float64) Quantile {
	if len(xs) == 0 {
		return Quantile{Label: "p50"}
	}
	s := sorted(xs)
	return Quantile{Label: "p50", Value: s[rankIndex(50, len(s))], N: len(s)}
}

// Tail is the highest ladder percentile that still has at least minBeyond
// samples above it. With too few samples for even p50, it is the maximum.
func Tail(xs []float64) Quantile {
	if len(xs) == 0 {
		return Quantile{Label: "max"}
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		k := rankIndex(p, n)
		if n-1-k >= minBeyond {
			return Quantile{Label: fmt.Sprintf("p%g", p), Value: s[k], N: n}
		}
	}
	return Quantile{Label: "max", Value: s[n-1], N: n}
}

// TailAt is percentile p when at least minBeyond samples lie above it, and
// Tail otherwise. A gated metric reads its tail at a fixed p, so a faster
// machine that collects more samples does not move it to a higher rung.
func TailAt(xs []float64, p float64) Quantile {
	n := len(xs)
	if k := rankIndex(p, n); n > 0 && n-1-k >= minBeyond {
		return Quantile{Label: fmt.Sprintf("p%g", p), Value: sorted(xs)[k], N: n}
	}
	return Tail(xs)
}

// MedianValue is the nearest-rank median, for set-up repetitions and other
// short lists.
func MedianValue(xs []float64) float64 { return Median(xs).Value }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
