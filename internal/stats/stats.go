// Package stats provides the descriptive statistics, quantile machinery,
// and MCMC convergence diagnostics used across the OSPREY reproduction:
// posterior interval summaries for the R(t) estimator, variance
// decompositions for the GSA layer, and effective-sample-size / R-hat checks
// for the Goldstein-method chains.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN if len < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// PopVariance returns the population (n) variance, or NaN for empty input.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs; NaNs for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The input
// is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// Quantiles returns multiple quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		if q < 0 || q > 1 {
			panic("stats: quantile out of [0,1]")
		}
		out[i] = quantileSorted(s, q)
	}
	return out
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// WeightedMean returns sum(w_i x_i)/sum(w_i). Weights must be nonnegative
// with a positive sum; otherwise NaN is returned.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	num, den := 0.0, 0.0
	for i, x := range xs {
		if ws[i] < 0 {
			return math.NaN()
		}
		num += ws[i] * x
		den += ws[i]
	}
	if den <= 0 {
		return math.NaN()
	}
	return num / den
}

// WeightedVariance returns the weighted population variance around the
// weighted mean, with weights interpreted as frequencies.
func WeightedVariance(xs, ws []float64) float64 {
	m := WeightedMean(xs, ws)
	if math.IsNaN(m) {
		return math.NaN()
	}
	num, den := 0.0, 0.0
	for i, x := range xs {
		d := x - m
		num += ws[i] * d * d
		den += ws[i]
	}
	return num / den
}

// Correlation returns the Pearson correlation of paired samples.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation length mismatch")
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Summary bundles the five-number-plus summary used in experiment reports.
type Summary struct {
	N               int
	Mean, StdDev    float64
	Min, Max        float64
	Q025, Med, Q975 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	qs := Quantiles(xs, 0.025, 0.5, 0.975)
	return Summary{
		N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs),
		Min: min, Max: max, Q025: qs[0], Med: qs[1], Q975: qs[2],
	}
}

// ECDF returns the empirical CDF evaluated at x.
func ECDF(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := 0
	for _, v := range xs {
		if v <= x {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// Autocorrelation returns the lag-k autocorrelation of the series.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return math.NaN()
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// EffectiveSampleSize estimates ESS of an MCMC trace using Geyer's initial
// positive sequence estimator over paired autocorrelations.
func EffectiveSampleSize(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return float64(n)
	}
	sum := 0.0
	for lag := 1; lag+1 < n/2; lag += 2 {
		pair := Autocorrelation(xs, lag) + Autocorrelation(xs, lag+1)
		if pair <= 0 || math.IsNaN(pair) {
			break
		}
		sum += pair
	}
	ess := float64(n) / (1 + 2*sum)
	if ess > float64(n) {
		ess = float64(n)
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}

// GelmanRubin computes the potential scale reduction factor (R-hat) over
// multiple chains of equal length. Values near 1 indicate convergence.
func GelmanRubin(chains [][]float64) float64 {
	m := len(chains)
	if m < 2 {
		return math.NaN()
	}
	n := len(chains[0])
	for _, c := range chains {
		if len(c) != n {
			panic("stats: GelmanRubin requires equal-length chains")
		}
	}
	if n < 2 {
		return math.NaN()
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	for i, c := range chains {
		means[i] = Mean(c)
		vars[i] = Variance(c)
	}
	w := Mean(vars)
	b := float64(n) * Variance(means)
	if w <= 0 {
		return math.NaN()
	}
	vHat := (float64(n-1)/float64(n))*w + b/float64(n)
	return math.Sqrt(vHat / w)
}

// WeightedQuantile returns the q-quantile of the weighted empirical
// distribution defined by values xs and nonnegative weights ws, using the
// inverse of the weighted ECDF with midpoint convention. It is the
// aggregation primitive behind the population-weighted ensemble R(t).
func WeightedQuantile(xs, ws []float64, q float64) float64 {
	return WeightedQuantiles(xs, ws, q)[0]
}

// WeightedQuantiles returns WeightedQuantile(xs, ws, q) for each of qs,
// sorting xs once for all of them. Empty input, a negative weight or a
// nonpositive total gives NaN for every q; a q outside [0,1] panics.
func WeightedQuantiles(xs, ws []float64, qs ...float64) []float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedQuantile length mismatch")
	}
	out := make([]float64, len(qs))
	for k := range out {
		out[k] = math.NaN()
	}
	if len(xs) == 0 {
		return out
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			panic("stats: quantile out of [0,1]")
		}
	}
	total, negative := 0.0, false
	for _, w := range ws {
		if w < 0 {
			negative = true
			break
		}
		total += w
	}
	if negative || total <= 0 {
		return out
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	for k, q := range qs {
		out[k] = xs[idx[len(idx)-1]]
		target := q * total
		cum := 0.0
		for _, i := range idx {
			cum += ws[i]
			if cum >= target {
				out[k] = xs[i]
				break
			}
		}
	}
	return out
}

// MAD returns the median absolute deviation of xs (a robust scale
// estimate), optionally scaled by 1.4826 to be consistent with the normal
// standard deviation.
func MAD(xs []float64, normalConsistent bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	m := Median(dev)
	if normalConsistent {
		m *= 1.4826
	}
	return m
}
