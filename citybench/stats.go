package main

import (
	"errors"
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile,
// so that the tail is measured rather than set by one or two outliers.
const minBeyond = 10

// Tail percentiles are written as 1 - 1/k, so "k" is the exact number of
// samples per sample beyond the percentile: p999 is k=1000, p99 is k=100.
// Integer k keeps the ">= 10 beyond" test exact (no float rounding at the
// 10 000-sample boundary of p999).
var tailKs = []int{1000, 100, 20, 10, 2}

// errTooFewSamples marks a tail percentile that the sample count cannot
// support.
var errTooFewSamples = errors.New("too few samples for percentile")

// tailName renders a tail level as the conventional percentile label.
func tailName(k int) string {
	switch k {
	case 1000:
		return "p999"
	case 100:
		return "p99"
	case 20:
		return "p95"
	case 10:
		return "p90"
	case 2:
		return "p50"
	}
	return fmt.Sprintf("p(1-1/%d)", k)
}

// highestTail returns the highest tail level (as k, see tailKs) that leaves
// at least minBeyond of n samples beyond it, and false when even the median
// cannot be supported.
func highestTail(n int) (int, bool) {
	for _, k := range tailKs {
		if n >= minBeyond*k {
			return k, true
		}
	}
	return 0, false
}

// tailPercentile returns the 1-1/k percentile of samples, refusing it when
// fewer than minBeyond samples would lie beyond it.
func tailPercentile(samples []float64, k int) (float64, error) {
	if len(samples) < minBeyond*k {
		return 0, fmt.Errorf("%w: %s needs %d samples, have %d", errTooFewSamples, tailName(k), minBeyond*k, len(samples))
	}
	return quantile(samples, k-1, k), nil
}

// quantile returns the nearest-rank num/den quantile of samples, which it
// does not modify: the smallest sample with at least num/den of all samples
// at or below it.
func quantile(samples []float64, num, den int) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := (n*num+den-1)/den - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// median is the nearest-rank 1/2 quantile.
func median(samples []float64) float64 { return quantile(samples, 1, 2) }
