package gp

import (
	"math"

	"osprey/internal/linalg"
	"osprey/internal/parallel"
)

// pairBase returns the index of pair (i, i+1) in the packed upper-triangle
// pair ordering (0,1), (0,2), …, (0,n-1), (1,2), …
func pairBase(i, n int) int {
	return i*(n-1) - i*(i-1)/2
}

// packSquaredDiffs precomputes (x[i][t]-x[j][t])² for every pair i<j and
// dimension t, pair-major: sq[p*d+t] for pair p. The tensor depends only on
// the training inputs, so it is built once per optimize() and shared
// read-only by every restart's evaluator.
func packSquaredDiffs(x [][]float64, d int) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	sq := make([]float64, (n*(n-1)/2)*d)
	parallel.ForChunk(n-1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x[i]
			p := pairBase(i, n)
			for j := i + 1; j < n; j++ {
				row := sq[p*d : p*d+d]
				xj := x[j]
				for t := 0; t < d; t++ {
					df := xi[t] - xj[t]
					row[t] = df * df
				}
				p++
			}
		}
	})
	return sq
}

// lmlEvaluator computes the negative log marginal likelihood for one
// hyperparameter vector. Each multi-start restart owns one evaluator: the
// covariance buffer, the factor buffer and the solve scratch live here, so
// restarts can run concurrently without sharing mutable state and an
// evaluation allocates nothing. The training inputs are consumed through the packed
// squared-difference tensor, turning each kernel entry into a d-term
// multiply-add plus one transcendental instead of a coordinate-space
// distance rebuild.
type lmlEvaluator struct {
	kind        KernelKind
	n, d        int
	fixedNugget float64
	sq          []float64 // shared, read-only
	y           []float64 // shared, read-only

	invls2 []float64 // exp(-2θ_t) = 1/ls_t² per dimension
	k      *linalg.Dense
	ch     linalg.Cholesky // factor of k, refactored in place
	w      []float64       // forward-solve output
}

func newLMLEvaluator(g *GP, sq []float64) *lmlEvaluator {
	return newLMLEvaluatorRaw(g.kind, g.dim, g.opts.FixedNugget, sq, g.y)
}

// newLMLEvaluatorRaw builds an evaluator from raw pieces — kernel family,
// dimension, the packed squared-diff tensor, and standardized targets — so
// the sparse surrogate's inducing-subset fit can reuse the exact dense
// likelihood machinery without a fitted GP in hand.
func newLMLEvaluatorRaw(kind KernelKind, d int, fixedNugget float64, sq, y []float64) *lmlEvaluator {
	n := len(y)
	return &lmlEvaluator{
		kind:        kind,
		n:           n,
		d:           d,
		fixedNugget: fixedNugget,
		sq:          sq,
		y:           y,
		invls2:      make([]float64, d),
		k:           linalg.NewDense(n, n),
		ch:          linalg.Cholesky{L: linalg.NewDense(n, n)},
		w:           make([]float64, n),
	}
}

// hyperStarts builds the deterministic multi-start grid shared by the dense
// fit and the sparse subset fit: a moderate-lengthscale base point (unit
// signal variance on standardized targets) plus `restarts` progressively
// rougher, lower-noise perturbations. theta layout:
// [log ls_1..log ls_d, log sf2, (log nugget)].
func hyperStarts(dim, restarts int, fixedNugget float64) [][]float64 {
	nt := dim + 2
	if fixedNugget > 0 {
		nt = dim + 1
	}
	starts := make([][]float64, 0, restarts+1)
	base := make([]float64, nt)
	for i := 0; i < dim; i++ {
		base[i] = math.Log(0.3) // moderate lengthscale on unit-cube inputs
	}
	base[dim] = 0 // sf2 = 1 on standardized targets
	if fixedNugget <= 0 {
		base[dim+1] = math.Log(1e-4)
	}
	starts = append(starts, base)
	for r := 1; r <= restarts; r++ {
		s := append([]float64(nil), base...)
		for i := 0; i < dim; i++ {
			s[i] = math.Log(0.1 * math.Pow(3, float64(r)))
		}
		if fixedNugget <= 0 {
			s[dim+1] = math.Log(math.Pow(10, float64(-2-r)))
		}
		starts = append(starts, s)
	}
	return starts
}

// negLML evaluates -log p(y | θ). Only the Cholesky factor and a forward
// solve are needed: yᵀK⁻¹y = ‖L⁻¹y‖², so the back substitution the full
// solve would do is skipped.
func (e *lmlEvaluator) negLML(theta []float64) float64 {
	for _, v := range theta {
		// Guard against absurd scales that destabilize Cholesky.
		if v < -14 || v > 14 {
			return math.Inf(1)
		}
	}
	d := e.d
	for t := 0; t < d; t++ {
		e.invls2[t] = math.Exp(-2 * theta[t])
	}
	sf2 := math.Exp(theta[d])
	nugget := e.fixedNugget
	if nugget <= 0 {
		nugget = math.Exp(theta[d+1])
	}

	n := e.n
	kind, sq, invls2 := e.kind, e.sq, e.invls2
	parallel.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.k.Set(i, i, sf2+nugget)
			p := pairBase(i, n)
			for j := i + 1; j < n; j++ {
				s := 0.0
				row := sq[p*d : p*d+d]
				for t := 0; t < d; t++ {
					s += row[t] * invls2[t]
				}
				var c float64
				switch kind {
				case SquaredExponential:
					c = math.Exp(-0.5 * s)
				case Matern52:
					r := math.Sqrt(5 * s)
					c = (1 + r + 5*s/3) * math.Exp(-r)
				default:
					panic("gp: unknown kernel kind")
				}
				v := sf2 * c
				e.k.Set(i, j, v)
				e.k.Set(j, i, v)
				p++
			}
		}
	})

	if _, err := e.ch.FactorJittered(e.k, 1e-10, 12); err != nil {
		return math.Inf(1)
	}
	e.ch.ForwardSolveTo(e.w, e.y)
	fn := float64(n)
	lml := -0.5*linalg.Dot(e.w, e.w) - 0.5*e.ch.LogDet() - 0.5*fn*math.Log(2*math.Pi)
	return -lml
}
