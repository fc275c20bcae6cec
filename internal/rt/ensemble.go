package rt

import (
	"errors"
	"math"

	"osprey/internal/parallel"
	"osprey/internal/stats"
)

// EnsembleEstimate is the population-weighted aggregate R(t) across plants
// (the bottom panel of Figure 2).
type EnsembleEstimate struct {
	Days                 []int
	Median, Lower, Upper []float64
	// Weights records the normalized population weights used.
	Weights []float64
}

// EnsembleWeighted pools the posterior draws of several plant estimates
// into a single population-weighted mixture distribution per day and
// summarizes it with the median and 95% band. Weights default to each
// plant's population served; pass explicit weights to override (the
// unweighted ablation passes all-ones).
func EnsembleWeighted(estimates []*Estimate, weights []float64) (*EnsembleEstimate, error) {
	if len(estimates) == 0 {
		return nil, errors.New("rt: no estimates to aggregate")
	}
	days := len(estimates[0].Days)
	for _, e := range estimates {
		if len(e.Days) != days {
			return nil, errors.New("rt: estimates cover different windows")
		}
		if len(e.Draws) == 0 {
			return nil, errors.New("rt: estimate has no posterior draws")
		}
	}
	if weights == nil {
		weights = make([]float64, len(estimates))
		for i, e := range estimates {
			weights[i] = float64(e.Plant.Population)
		}
	}
	if len(weights) != len(estimates) {
		return nil, errors.New("rt: weights length mismatch")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, errors.New("rt: negative weight")
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("rt: weights sum to zero")
	}

	out := &EnsembleEstimate{
		Days:    append([]int(nil), estimates[0].Days...),
		Median:  make([]float64, days),
		Lower:   make([]float64, days),
		Upper:   make([]float64, days),
		Weights: make([]float64, len(weights)),
	}
	for i, w := range weights {
		out.Weights[i] = w / total
	}

	// Per-day weighted mixture of all plants' draws: each draw carries its
	// plant's weight divided by the plant's draw count, so plants with
	// more retained draws are not over-represented. Days are independent —
	// each worker chunk pools into its own buffers and writes only its own
	// day slots, so the summaries match the serial loop exactly.
	parallel.ForChunk(days, func(lo, hi int) {
		var pool []float64
		var poolW []float64
		for d := lo; d < hi; d++ {
			pool = pool[:0]
			poolW = poolW[:0]
			for pi, e := range estimates {
				w := out.Weights[pi] / float64(len(e.Draws))
				for _, draw := range e.Draws {
					pool = append(pool, draw[d])
					poolW = append(poolW, w)
				}
			}
			qs := stats.WeightedQuantiles(pool, poolW, 0.025, 0.5, 0.975)
			out.Lower[d], out.Median[d], out.Upper[d] = qs[0], qs[1], qs[2]
		}
	})
	return out, nil
}

// Coverage reports the fraction of days in [from, to) whose ensemble band
// contains the truth.
func (e *EnsembleEstimate) Coverage(truth []float64, from, to int) float64 {
	if to > len(truth) {
		to = len(truth)
	}
	if to > len(e.Lower) {
		to = len(e.Lower)
	}
	n, hit := 0, 0
	for d := from; d < to; d++ {
		n++
		if truth[d] >= e.Lower[d] && truth[d] <= e.Upper[d] {
			hit++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(n)
}

// MeanAbsError reports the mean absolute error of the ensemble median.
func (e *EnsembleEstimate) MeanAbsError(truth []float64, from, to int) float64 {
	if to > len(truth) {
		to = len(truth)
	}
	if to > len(e.Median) {
		to = len(e.Median)
	}
	n, s := 0, 0.0
	for d := from; d < to; d++ {
		n++
		s += math.Abs(e.Median[d] - truth[d])
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// BandWidth returns the mean width of the 95% band over [from, to), the
// smoothness/precision metric used to show the ensemble beats single plants.
func (e *EnsembleEstimate) BandWidth(from, to int) float64 {
	if to > len(e.Lower) {
		to = len(e.Lower)
	}
	n, s := 0, 0.0
	for d := from; d < to; d++ {
		n++
		s += e.Upper[d] - e.Lower[d]
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// BandWidth is the single-plant analogue of EnsembleEstimate.BandWidth.
func (e *Estimate) BandWidth(from, to int) float64 {
	if to > len(e.Lower) {
		to = len(e.Lower)
	}
	n, s := 0, 0.0
	for d := from; d < to; d++ {
		n++
		s += e.Upper[d] - e.Lower[d]
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}
