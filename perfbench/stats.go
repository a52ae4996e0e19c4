package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that has at
// least ten of n samples beyond it, or 0 when even the median has fewer.
// A percentile with fewer samples beyond it rests on a handful of
// outliers and moves from run to run.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if beyond >= 10 {
			return p
		}
	}
	return 0
}

// timing renders a latency sample as its median, its reportable tail
// percentile and the sample count.
func timing(xs []float64, unit string) string {
	p := tailPercentile(len(xs))
	if p == 0 {
		return fmt.Sprintf("p50 %.3f %s (n=%d; too few samples for a tail)", median(xs), unit, len(xs))
	}
	return fmt.Sprintf("p50 %.3f %s, p%g %.3f %s (n=%d)", median(xs), unit, p, quantile(xs, p/100), unit, len(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// kindQuantile returns the q-quantile of latencies xs taken by
// operations of several kinds that differ in cost (kinds[i] is the kind
// of xs[i]), with the differences between kinds factored out. Pooled
// raw latencies form one cluster per kind, and a quantile of them sits
// on a cluster boundary, where a sample or two more of one kind moves it
// by the gap between clusters. Instead, each latency is divided by its
// kind's median, the q-quantile is taken over all these ratios, and it
// is scaled by the kinds' medians averaged with each kind's share of the
// operations as weight.
func kindQuantile(xs []float64, kinds []string, q float64) float64 {
	byKind := groupByKind(xs, kinds)
	med := make(map[string]float64, len(byKind))
	scale := 0.0
	for k, ys := range byKind {
		med[k] = median(ys)
		scale += med[k] * float64(len(ys)) / float64(len(xs))
	}
	ratios := make([]float64, len(xs))
	for i, x := range xs {
		ratios[i] = x / med[kinds[i]]
	}
	return scale * quantile(ratios, q)
}

// groupByKind splits xs by kind; kinds[i] is the kind of xs[i].
func groupByKind(xs []float64, kinds []string) map[string][]float64 {
	out := map[string][]float64{}
	for i, x := range xs {
		out[kinds[i]] = append(out[kinds[i]], x)
	}
	return out
}
