// Package epi provides the epidemic process primitives shared by the
// wastewater R(t) use case: discretized generation-interval distributions,
// renewal-equation epidemic simulation (the infection process underlying
// the Goldstein estimator), the Cori et al. (2013) sliding-window R(t)
// estimator that the paper cites as the "more standard" baseline, and a
// reference SEIR model.
package epi

import (
	"errors"
	"math"

	"osprey/internal/rng"
	"osprey/internal/stats"
)

// DiscretizedGamma returns a probability mass function w[1..maxLag] obtained
// by discretizing a Gamma(shape, rate) distribution onto integer days
// 1..maxLag and renormalizing. w[0] is zero by construction (no same-day
// transmission), matching standard serial-interval handling.
func DiscretizedGamma(meanDays, sdDays float64, maxLag int) []float64 {
	if meanDays <= 0 || sdDays <= 0 || maxLag < 1 {
		panic("epi: DiscretizedGamma requires positive mean, sd and maxLag >= 1")
	}
	shape := meanDays * meanDays / (sdDays * sdDays)
	rate := meanDays / (sdDays * sdDays)
	w := make([]float64, maxLag+1)
	total := 0.0
	for s := 1; s <= maxLag; s++ {
		p := stats.GammaCDF(float64(s), shape, rate) - stats.GammaCDF(float64(s-1), shape, rate)
		w[s] = p
		total += p
	}
	if total <= 0 {
		panic("epi: degenerate generation interval")
	}
	for s := range w {
		w[s] /= total
	}
	return w
}

// Infectiousness computes the total infectiousness Λ_t = Σ_s I_{t-s} w_s for
// each day t given incidence and generation-interval pmf w (with w[0]=0).
func Infectiousness(incidence []float64, w []float64) []float64 {
	out := make([]float64, len(incidence))
	for t := range incidence {
		s := 0.0
		for lag := 1; lag < len(w) && lag <= t; lag++ {
			s += incidence[t-lag] * w[lag]
		}
		out[t] = s
	}
	return out
}

// RenewalSimulate generates an incidence trajectory from a day-indexed R(t)
// series via the stochastic renewal equation I_t ~ Poisson(R_t Λ_t). The
// first len(seed) days are fixed to the seed values. A nil stream gives the
// deterministic mean trajectory.
func RenewalSimulate(rt []float64, seed []float64, w []float64, r *rng.Stream) []float64 {
	n := len(rt)
	inc := make([]float64, n)
	for t := 0; t < n; t++ {
		if t < len(seed) {
			inc[t] = seed[t]
			continue
		}
		lambda := 0.0
		for lag := 1; lag < len(w) && lag <= t; lag++ {
			lambda += inc[t-lag] * w[lag]
		}
		mean := rt[t] * lambda
		if r == nil {
			inc[t] = mean
		} else {
			inc[t] = float64(r.Poisson(mean))
		}
	}
	return inc
}

// CoriResult holds the sliding-window posterior summary of R(t).
type CoriResult struct {
	// Mean, Lower and Upper are day-indexed posterior mean and 95%
	// credible bounds; entries before the window fills are NaN.
	Mean, Lower, Upper []float64
	Window             int
}

// CoriEstimate implements the Cori et al. (2013) estimator: with a
// Gamma(a, b) prior on R and a window of tau days ending at t, the
// posterior is Gamma(a + Σ I, b + Σ Λ). This is the computationally cheap
// baseline the paper contrasts with the Goldstein method.
func CoriEstimate(incidence []float64, w []float64, window int, priorShape, priorRate float64) (*CoriResult, error) {
	if window < 1 {
		return nil, errors.New("epi: window must be >= 1")
	}
	if priorShape <= 0 || priorRate <= 0 {
		return nil, errors.New("epi: prior parameters must be positive")
	}
	n := len(incidence)
	lambda := Infectiousness(incidence, w)
	res := &CoriResult{
		Mean:   make([]float64, n),
		Lower:  make([]float64, n),
		Upper:  make([]float64, n),
		Window: window,
	}
	for t := 0; t < n; t++ {
		if t < window {
			res.Mean[t], res.Lower[t], res.Upper[t] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		var sumI, sumL float64
		for s := t - window + 1; s <= t; s++ {
			sumI += incidence[s]
			sumL += lambda[s]
		}
		shape := priorShape + sumI
		rate := priorRate + sumL
		if rate <= 0 {
			res.Mean[t], res.Lower[t], res.Upper[t] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		res.Mean[t] = shape / rate
		res.Lower[t] = stats.GammaQuantile(0.025, shape, rate)
		res.Upper[t] = stats.GammaQuantile(0.975, shape, rate)
	}
	return res, nil
}
