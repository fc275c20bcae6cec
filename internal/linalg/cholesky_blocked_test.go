package linalg

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"osprey/internal/obs"
	"osprey/internal/parallel"
)

// spdMatrix builds a deterministic symmetric positive-definite matrix with
// the structure of a GP covariance: a squared-exponential kernel over a
// scrambled 1-D design plus a small nugget.
func spdMatrix(n int) *Dense {
	a := NewDense(n, n)
	pts := make([]float64, n)
	for i := range pts {
		// Low-discrepancy-ish deterministic scatter in [0, 1).
		pts[i] = math.Mod(float64(i)*0.6180339887498949, 1.0)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := (pts[i] - pts[j]) / 0.3
			v := math.Exp(-0.5 * d * d)
			if i == j {
				v += 1e-6
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// factorWith runs one factorization kernel into a fresh buffer.
func factorWith(kernel func(l, a *Dense, shift float64) error, a *Dense) (*Dense, error) {
	l := NewDense(a.Rows, a.Rows)
	if err := kernel(l, a, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// TestBlockedMatchesScalar is the crossover-safety property: the blocked
// factorization agrees with the scalar oracle to rounding error at sizes
// on, under, and over tile boundaries. (The two paths fix different
// summation orders — the blocked one uses 4-lane dots — so exact equality
// is not expected; each path is individually deterministic.)
func TestBlockedMatchesScalar(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 127, 128, 129, 200, 257} {
		a := spdMatrix(n)
		sc, err := factorWith(factorScalar, a)
		if err != nil {
			t.Fatalf("n=%d scalar: %v", n, err)
		}
		bl, err := factorWith(factorBlocked, a)
		if err != nil {
			t.Fatalf("n=%d blocked: %v", n, err)
		}
		if d := sc.MaxAbsDiff(bl); d > 1e-11 {
			t.Fatalf("n=%d: blocked factor differs from scalar by %g", n, d)
		}
	}
}

// TestBlockedCholeskySerialParallelEquality pins the determinism contract:
// the blocked factor is bit-identical at workers ∈ {1, 4, GOMAXPROCS}.
func TestBlockedCholeskySerialParallelEquality(t *testing.T) {
	defer parallel.SetWorkers(0)
	a := spdMatrix(300)
	var ref *Dense
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		parallel.SetWorkers(w)
		l, err := factorWith(factorBlocked, a)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = l
			continue
		}
		for i := range ref.Data {
			if ref.Data[i] != l.Data[i] {
				t.Fatalf("workers=%d: factor differs at flat index %d", w, i)
			}
		}
	}
}

// TestBlockedCholeskyReconstruction checks L·Lᵀ ≈ A through the public
// dispatching API at a size above the crossover.
func TestBlockedCholeskyReconstruction(t *testing.T) {
	n := 200
	a := spdMatrix(n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := ch.L.Mul(ch.L.T())
	if d := recon.MaxAbsDiff(a); d > 1e-10 {
		t.Fatalf("reconstruction error %g", d)
	}
}

// TestBlockedCholeskyRejectsIndefinite checks the blocked path reports
// non-positive pivots like the scalar path does.
func TestBlockedCholeskyRejectsIndefinite(t *testing.T) {
	n := 192
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	a.Set(n-1, n-1, -1) // indefinite in the last tile
	if _, err := factorWith(factorBlocked, a); err != ErrNotPositiveDefinite {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
}

// TestBlockedSolvesMatchScalar checks both triangular solves above the
// crossover: the forward solve must match the scalar loop bit for bit (it
// preserves the scalar operation order), the back solve within last-ulp
// tolerance (trailing-block contributions are applied first), and both must
// invert the factor.
func TestBlockedSolvesMatchScalar(t *testing.T) {
	for _, n := range []int{129, 200, 256} {
		a := spdMatrix(n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i))
		}
		// Scalar references computed directly from the factor.
		fwdRef := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b[i]
			li := ch.L.Row(i)
			for k := 0; k < i; k++ {
				s -= li[k] * fwdRef[k]
			}
			fwdRef[i] = s / li[i]
		}
		backRef := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			s := fwdRef[i]
			for k := i + 1; k < n; k++ {
				s -= ch.L.At(k, i) * backRef[k]
			}
			backRef[i] = s / ch.L.At(i, i)
		}
		fwd := ch.ForwardSolve(b)
		for i := range fwd {
			if fwd[i] != fwdRef[i] {
				t.Fatalf("n=%d: forward solve differs at %d: %v vs %v", n, i, fwd[i], fwdRef[i])
			}
		}
		back := ch.BackSolve(fwd)
		for i := range back {
			if math.Abs(back[i]-backRef[i]) > 1e-9*(1+math.Abs(backRef[i])) {
				t.Fatalf("n=%d: back solve differs at %d: %v vs %v", n, i, back[i], backRef[i])
			}
		}
		// x = A⁻¹ b must satisfy A x ≈ b.
		ax := a.MulVec(back)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-7 {
				t.Fatalf("n=%d: residual %g at %d", n, math.Abs(ax[i]-b[i]), i)
			}
		}
		// BackSolveTo must support aliasing dst with y.
		alias := append([]float64(nil), fwd...)
		ch.BackSolveTo(alias, alias)
		for i := range alias {
			if alias[i] != back[i] {
				t.Fatalf("n=%d: aliased back solve differs at %d", n, i)
			}
		}
	}
}

// TestJitterRetriesCounted checks the deterministic jitter ladder and its
// obs counter: an indefinite-but-fixable matrix increments
// linalg.chol.jitter_retries once per rung tried, and equal inputs take the
// same ladder.
func TestJitterRetriesCounted(t *testing.T) {
	n := 50
	a := NewDense(n, n)
	// Rank-1 Gram matrix: PSD but singular, so the first unjittered attempt
	// fails and the ladder must climb.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1)*1e-4)
		}
	}
	before := obs.GetCounter("linalg.chol.jitter_retries").Value()
	ch, jit, err := NewCholeskyJittered(a, 1e-10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jit <= 0 {
		t.Fatalf("expected nonzero jitter, got %v", jit)
	}
	retries := obs.GetCounter("linalg.chol.jitter_retries").Value() - before
	if retries <= 0 {
		t.Fatalf("expected jitter retries to be counted, got %d", retries)
	}
	// Determinism: the same input climbs the same ladder to the same rung.
	ch2, jit2, err := NewCholeskyJittered(a, 1e-10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jit2 != jit {
		t.Fatalf("ladder not deterministic: %v vs %v", jit2, jit)
	}
	retries2 := obs.GetCounter("linalg.chol.jitter_retries").Value() - before - retries
	if retries2 != retries {
		t.Fatalf("retry count not deterministic: %d vs %d", retries2, retries)
	}
	if d := ch.L.MaxAbsDiff(ch2.L); d != 0 {
		t.Fatalf("jittered factors differ by %g", d)
	}
}

func BenchmarkCholeskyBlockedInternal(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := spdMatrix(n)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := factorWith(factorBlocked, a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := factorWith(factorScalar, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
