package linalg

import (
	"math"
	"testing"
)

// refCholeskyScalar is the textbook one-row-at-a-time factorization that
// factorScalar must reproduce bit for bit: every entry is one ascending-k
// subtraction chain.
func refCholeskyScalar(a *Dense) (*Cholesky, error) {
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / dj
		}
	}
	return &Cholesky{L: l}, nil
}

// refJittered is the jitter ladder over a working copy whose diagonal is
// rewritten per rung, factored with the reference kernel.
func refJittered(a *Dense, jitter0 float64, maxTries int) (*Cholesky, float64, error) {
	if ch, err := refCholeskyScalar(a); err == nil {
		return ch, 0, nil
	}
	n := a.Rows
	b := a.Clone()
	j := jitter0
	for try := 0; try < maxTries; try++ {
		for i := 0; i < n; i++ {
			b.Set(i, i, a.At(i, i)+j)
		}
		if ch, err := refCholeskyScalar(b); err == nil {
			return ch, j, nil
		}
		j *= 10
	}
	return nil, 0, ErrNotPositiveDefinite
}

// nearSingular is a nugget-free squared-exponential covariance over a 1-D
// design: positive definite in exact arithmetic, but its eigenvalues decay
// so fast that pivots reach rounding level as n grows, and larger sizes
// fail in floating point.
func nearSingular(n int) *Dense {
	a := NewDense(n, n)
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = math.Mod(float64(i)*0.6180339887498949, 1.0)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := (pts[i] - pts[j]) / 0.3
			v := math.Exp(-0.5 * d * d)
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// indefinite is spdMatrix(n) with its pivot at row p pushed negative.
func indefinite(n, p int) *Dense {
	a := spdMatrix(n)
	a.Set(p, p, -1)
	return a
}

func sameBits(a, b *Dense) int {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

// TestScalarKernelMatchesReference pins the four-row kernel to the
// one-row reference bit for bit at every size below the blocked crossover,
// on well-conditioned and near-singular matrices, including whether it
// fails.
func TestScalarKernelMatchesReference(t *testing.T) {
	if cholBlockedMin != 128 {
		t.Fatalf("crossover moved to %d; widen the size sweep", cholBlockedMin)
	}
	failures := 0
	for n := 1; n < cholBlockedMin; n++ {
		for _, m := range []struct {
			name string
			a    *Dense
		}{{"spd", spdMatrix(n)}, {"near-singular", nearSingular(n)}} {
			want, werr := refCholeskyScalar(m.a)
			got, gerr := NewCholesky(m.a)
			if werr != gerr {
				t.Fatalf("n=%d %s: error %v, reference %v", n, m.name, gerr, werr)
			}
			if werr != nil {
				failures++
			} else if i := sameBits(got.L, want.L); i >= 0 {
				t.Fatalf("n=%d %s: factor differs at flat index %d: %v vs %v",
					n, m.name, i, got.L.Data[i], want.L.Data[i])
			}
			// Failed sizes climb the jitter ladder, which refactors with a
			// shifted diagonal.
			wj, wjit, werr := refJittered(m.a, 1e-10, 12)
			gj, gjit, gerr := NewCholeskyJittered(m.a, 1e-10, 12)
			if werr != gerr || wjit != gjit {
				t.Fatalf("n=%d %s: jittered (%v, %v), reference (%v, %v)", n, m.name, gjit, gerr, wjit, werr)
			}
			if werr == nil {
				if i := sameBits(gj.L, wj.L); i >= 0 {
					t.Fatalf("n=%d %s: jittered factor differs at flat index %d", n, m.name, i)
				}
			}
		}
	}
	// The near-singular family must exercise the failure branch somewhere
	// in the sweep, or it only repeats the well-conditioned case.
	if failures == 0 || failures == cholBlockedMin-1 {
		t.Fatalf("%d of %d near-singular sizes failed; the family must exercise both branches",
			failures, cholBlockedMin-1)
	}
	t.Logf("%d near-singular sizes failed the unjittered factorization", failures)
}

// TestScalarKernelRejectsLikeReference checks that non-positive-definite
// input fails with ErrNotPositiveDefinite exactly where the reference does,
// with the bad pivot in every row position of the four-row groups.
func TestScalarKernelRejectsLikeReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 33, 127} {
		for p := 0; p < n; p += max(1, n/9) {
			a := indefinite(n, p)
			_, werr := refCholeskyScalar(a)
			_, gerr := NewCholesky(a)
			if werr != ErrNotPositiveDefinite || gerr != werr {
				t.Fatalf("n=%d pivot %d: error %v, reference %v", n, p, gerr, werr)
			}
		}
	}
	nan := spdMatrix(20)
	nan.Set(13, 2, math.NaN())
	nan.Set(2, 13, math.NaN())
	if _, err := NewCholesky(nan); err != ErrNotPositiveDefinite {
		t.Fatalf("NaN entry: error %v, want ErrNotPositiveDefinite", err)
	}
}

// TestFactorIntoDirtyBuffer checks that refactoring into a reused buffer
// gives the bits of a fresh one: every entry, the zero upper triangle
// included, on both sides of the blocked crossover and after a failed
// factorization left a partial factor behind.
func TestFactorIntoDirtyBuffer(t *testing.T) {
	for _, n := range []int{1, 4, 7, 64, 127, 128, 130, 200} {
		a := spdMatrix(n)
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		dirty := &Cholesky{L: NewDense(n, n)}
		for i := range dirty.L.Data {
			dirty.L.Data[i] = math.NaN()
		}
		if jit, err := dirty.FactorJittered(a, 1e-10, 12); err != nil || jit != 0 {
			t.Fatalf("n=%d: jitter %v, error %v", n, jit, err)
		}
		if i := sameBits(dirty.L, fresh.L); i >= 0 {
			t.Fatalf("n=%d: dirty-buffer factor differs at flat index %d", n, i)
		}
		if n > 1 {
			if _, err := dirty.FactorJittered(indefinite(n, n-1), 1e-10, 0); err != ErrNotPositiveDefinite {
				t.Fatalf("n=%d: indefinite input: error %v", n, err)
			}
			if _, err := dirty.FactorJittered(a, 1e-10, 12); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(dirty.L, fresh.L); i >= 0 {
				t.Fatalf("n=%d: factor after a failed one differs at flat index %d", n, i)
			}
		}
	}
}

// TestFactorJitteredAllocatesNothing pins the reason FactorJittered exists:
// refactoring into an owned buffer, jitter retries included, allocates
// nothing below the blocked crossover.
func TestFactorJitteredAllocatesNothing(t *testing.T) {
	n := 60
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1)*1e-4)
		}
	}
	c := &Cholesky{L: NewDense(n, n)}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.FactorJittered(a, 1e-10, 12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FactorJittered allocated %v times per call", allocs)
	}
}
