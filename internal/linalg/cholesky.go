package linalg

import (
	"errors"
	"math"

	"osprey/internal/obs"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization fails.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// mCholJitterRetries counts NewCholeskyJittered retry attempts (one per
// jitter rung actually tried), surfacing surrogate-fit instability in
// /metrics.
var mCholJitterRetries = obs.GetCounter("linalg.chol.jitter_retries")

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ.
type Cholesky struct {
	L *Dense
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. It returns ErrNotPositiveDefinite when a
// pivot is non-positive (within a small tolerance for numerical noise).
//
// Matrices of cholBlockedMin rows or more go through the cache-tiled
// blocked factorization (see cholesky_blocked.go), which is bit-identical
// at any worker count; smaller matrices use the scalar loop directly. The
// two paths fix different (both deterministic) summation orders, so they
// agree to rounding error, not bitwise; the crossover depends only on n.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{L: NewDense(a.Rows, a.Rows)}
	if err := c.factor(a, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// factor overwrites c.L with the factor of a + shift·I. c.L must be n×n;
// its prior contents are irrelevant (the upper triangle is zeroed), so one
// buffer can be refactored any number of times. The shift is added to each
// diagonal entry as it is read, which gives exactly the bits of factoring a
// copy whose diagonal was set to a_ii+shift. A zero shift turns only a
// diagonal -0 into +0, which gives the same factor or the same failure.
func (c *Cholesky) factor(a *Dense, shift float64) error {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: Cholesky of non-square matrix")
	}
	if c.L.Rows != n || c.L.Cols != n {
		panic("linalg: Cholesky factor buffer dimension mismatch")
	}
	if n >= cholBlockedMin {
		return factorBlocked(c.L, a, shift)
	}
	return factorScalar(c.L, a, shift)
}

// NewCholeskyJittered retries the factorization with a deterministic
// exponential jitter ladder (jitter0, 10·jitter0, 100·jitter0, …) until it
// succeeds or maxTries is exhausted. Each rung factors a with its diagonal
// at exactly original+jitter, so the attempt sequence depends only on
// (a, jitter0, maxTries). Every retry increments the
// linalg.chol.jitter_retries counter, making surrogate-fit instability
// visible in /metrics. It returns the factor along with the jitter that was
// finally applied. This is the standard guard for Gaussian-process
// covariance matrices that are numerically semi-definite.
func NewCholeskyJittered(a *Dense, jitter0 float64, maxTries int) (*Cholesky, float64, error) {
	c := &Cholesky{L: NewDense(a.Rows, a.Rows)}
	j, err := c.FactorJittered(a, jitter0, maxTries)
	if err != nil {
		return nil, 0, err
	}
	return c, j, nil
}

// FactorJittered is NewCholeskyJittered into the caller-owned n×n buffer
// c.L: the same ladder, the same retries and the same bits, with no
// allocation, so a likelihood evaluated hundreds of times per fit reuses
// one factor. On error c.L holds a partial factor.
func (c *Cholesky) FactorJittered(a *Dense, jitter0 float64, maxTries int) (float64, error) {
	if jitter0 <= 0 {
		jitter0 = 1e-10
	}
	if err := c.factor(a, 0); err == nil {
		return 0, nil
	}
	j := jitter0
	for try := 0; try < maxTries; try++ {
		mCholJitterRetries.Inc()
		if err := c.factor(a, j); err == nil {
			return j, nil
		}
		j *= 10
	}
	return 0, ErrNotPositiveDefinite
}

// SolveVec solves A x = b given the factorization, overwriting nothing.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	y := c.ForwardSolve(b)
	return c.BackSolve(y)
}

// ForwardSolve solves L y = b.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	y := make([]float64, c.L.Rows)
	c.ForwardSolveTo(y, b)
	return y
}

// ForwardSolveTo solves L y = b into the caller-supplied slice dst, which
// may alias b. It allocates nothing, which is what makes batched GP
// prediction allocation-free in steady state.
//
// Large factors use a tiled traversal that keeps each cholTile-wide slice
// of the solution hot while every row of a block consumes it. The
// subtraction sequence per element is exactly the scalar one (ascending k),
// so the result is bit-identical to the scalar loop for every n.
func (c *Cholesky) ForwardSolveTo(dst, b []float64) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: ForwardSolveTo dimension mismatch")
	}
	if n < cholBlockedMin {
		for i := 0; i < n; i++ {
			s := b[i]
			li := c.L.Row(i)
			for k := 0; k < i; k++ {
				s -= li[k] * dst[k]
			}
			dst[i] = s / li[i]
		}
		return
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	for ib := 0; ib < n; ib += cholTile {
		ie := min(ib+cholTile, n)
		for kb := 0; kb < ib; kb += cholTile {
			ke := kb + cholTile // kb < ib implies a full tile
			for i := ib; i < ie; i++ {
				li := c.L.Row(i)
				s := dst[i]
				for k := kb; k < ke; k++ {
					s -= li[k] * dst[k]
				}
				dst[i] = s
			}
		}
		for i := ib; i < ie; i++ {
			li := c.L.Row(i)
			s := dst[i]
			for k := ib; k < i; k++ {
				s -= li[k] * dst[k]
			}
			dst[i] = s / li[i]
		}
	}
}

// BackSolve solves Lᵀ x = y.
func (c *Cholesky) BackSolve(y []float64) []float64 {
	x := make([]float64, c.L.Rows)
	c.BackSolveTo(x, y)
	return x
}

// BackSolveTo solves Lᵀ x = y into the caller-supplied slice dst, which may
// alias y. It allocates nothing.
//
// The scalar back substitution walks a column of the row-major factor — a
// stride-n access per element — so factors of cholBlockedMin rows or more
// use a blocked traversal instead: each cholTile-row block first absorbs
// the already-solved trailing blocks' contributions row-contiguously
// (ascending k), then back-substitutes its diagonal tile. Trailing
// contributions land before in-tile ones, so the blocked result can differ
// from the scalar path in the last ulp; both paths are serial and
// deterministic, and the crossover depends only on n.
func (c *Cholesky) BackSolveTo(dst, y []float64) {
	n := c.L.Rows
	if len(y) != n || len(dst) != n {
		panic("linalg: BackSolveTo dimension mismatch")
	}
	if n < cholBlockedMin {
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= c.L.At(k, i) * dst[k]
			}
			dst[i] = s / c.L.At(i, i)
		}
		return
	}
	copy(dst, y)
	first := ((n - 1) / cholTile) * cholTile
	for ib := first; ib >= 0; ib -= cholTile {
		ie := min(ib+cholTile, n)
		for k := ie; k < n; k++ {
			lk := c.L.Row(k)
			xk := dst[k]
			for i := ib; i < ie; i++ {
				dst[i] -= lk[i] * xk
			}
		}
		for i := ie - 1; i >= ib; i-- {
			s := dst[i]
			for k := i + 1; k < ie; k++ {
				s -= c.L.At(k, i) * dst[k]
			}
			dst[i] = s / c.L.At(i, i)
		}
	}
}

// SolveMat solves A X = B column by column.
func (c *Cholesky) SolveMat(b *Dense) *Dense {
	if b.Rows != c.L.Rows {
		panic("linalg: SolveMat dimension mismatch")
	}
	out := NewDense(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x := c.SolveVec(col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// LogDet returns log |A| = 2 * sum(log L_ii).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
