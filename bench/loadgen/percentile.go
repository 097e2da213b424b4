// Package loadgen holds the benchmark's load-shaping pieces: the seeded
// input generators, the closed-loop driver and the percentile picker.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Levels are the percentiles the harness may report, ascending.
var Levels = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// MinBeyond is how many samples must lie beyond a percentile before the
// harness prints it: a p99 over 200 samples is the second-worst sample,
// not a percentile.
const MinBeyond = 10

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	// Round before the ceiling so that 0.95×20 is 19, not 19.000000000000004.
	i := int(math.Ceil(math.Round(q*float64(n)*1e6)/1e6)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Beyond reports how many of n samples lie strictly beyond quantile q.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// Highest returns the highest of Levels that n samples support with at
// least minBeyond samples beyond it, or ok=false if not even the median
// qualifies.
func Highest(n, minBeyond int) (q float64, ok bool) {
	for _, l := range Levels {
		if Beyond(n, l) >= minBeyond {
			q, ok = l, true
		}
	}
	return q, ok
}

// Quantile picks the nearest-rank quantile q of the samples. It refuses
// (returns an error) when fewer than minBeyond samples lie beyond it.
// The input need not be sorted and is not modified.
func Quantile(samples []time.Duration, q float64, minBeyond int) (time.Duration, error) {
	n := len(samples)
	if b := Beyond(n, q); n == 0 || b < minBeyond {
		return 0, fmt.Errorf("loadgen: p%g over %d samples has %d beyond it, need %d", q*100, n, b, minBeyond)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(n, q)], nil
}

// Millis converts a duration to fractional milliseconds.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
