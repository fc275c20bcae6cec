// Package sobolidx implements variance-based global sensitivity analysis:
// pick–freeze (Saltelli/Jansen) Monte Carlo estimators of first- and
// total-order Sobol' indices. The paper's GSA (§3.1) decomposes the variance
// of MetaRVM's end-of-simulation hospitalization count into per-parameter
// contributions; MUSIC estimates these indices on a Gaussian-process
// surrogate, which this package evaluates exactly the same way it would a
// raw simulator.
package sobolidx

import (
	"errors"
	"fmt"

	"osprey/internal/design"
	"osprey/internal/parallel"
	"osprey/internal/rng"
)

// Func is a deterministic model (or surrogate posterior mean) on the unit
// cube.
type Func func(x []float64) float64

// Result holds estimated Sobol indices.
type Result struct {
	First    []float64 // first-order indices S_i
	Total    []float64 // total-order indices ST_i
	Mean     float64   // sample mean of the output
	Variance float64   // sample variance of the output
	N        int       // base sample size (model evaluated N*(d+2) times)
}

// Options configures Estimate.
type Options struct {
	// N is the base sample size (default 1024). The model is evaluated
	// N*(d+2) times.
	N int
	// Rand, when non-nil, switches from the default Sobol' quasi-random
	// design to pseudo-random sampling with the given stream.
	Rand *rng.Stream
	// Clamp01, when true, clips estimated indices into [0,1]; raw
	// estimators can stray slightly outside under sampling noise.
	Clamp01 bool
	// Concurrent evaluates the model over the pick–freeze design across the
	// worker pool. It defaults to false because Func closures are often not
	// safe for concurrent calls (e.g. they count invocations); enable it
	// only when f is. The estimates are bit-identical either way: every
	// evaluation lands in its own slot and the estimator reductions run
	// serially in row order.
	Concurrent bool
}

// Design is the Saltelli pick–freeze point set: base matrices A and B plus
// the d hybrid blocks ABi (A with column i replaced from B). Building it
// once and re-estimating over fresh model values is the fast path for
// workloads that evaluate the same design repeatedly — MUSIC re-scores one
// QMC design against its surrogate after every refit.
type Design struct {
	D, N int
	a, b [][]float64
	pts  [][]float64 // lazily materialized full point set
}

// NewDesign builds the pick–freeze design exactly as Estimate would:
// quasi-random (Sobol' sequence) when stream is nil, pseudo-random from the
// stream otherwise.
func NewDesign(d, n int, stream *rng.Stream) (*Design, error) {
	if d <= 0 {
		return nil, errors.New("sobolidx: dimension must be positive")
	}
	if n <= 0 {
		n = 1024
	}
	a := make([][]float64, n)
	b := make([][]float64, n)
	if stream != nil {
		copy(a, design.Uniform(stream, n, d))
		copy(b, design.Uniform(stream, n, d))
	} else {
		if 2*d > 16 {
			return nil, fmt.Errorf("sobolidx: %d dimensions exceed the QMC limit; provide Options.Rand", d)
		}
		seq := design.NewSobolSeq(2 * d)
		for i := 0; i < n; i++ {
			p := seq.Next()
			a[i] = p[:d:d]
			b[i] = p[d:]
		}
	}
	return &Design{D: d, N: n, a: a, b: b}, nil
}

// block materializes hybrid block ABi: A with column i taken from B.
func (dg *Design) block(i int) [][]float64 {
	out := make([][]float64, dg.N)
	for j := 0; j < dg.N; j++ {
		p := append([]float64(nil), dg.a[j]...)
		p[i] = dg.b[j][i]
		out[j] = p
	}
	return out
}

// Points returns the full design as a flat point list in the order
// [A rows, B rows, AB_0 rows, …, AB_{d-1} rows] — N*(D+2) points total,
// matching the values layout Design.Estimate expects. The slice is built
// once and cached; callers must not mutate it.
func (dg *Design) Points() [][]float64 {
	if dg.pts != nil {
		return dg.pts
	}
	pts := make([][]float64, 0, dg.N*(dg.D+2))
	pts = append(pts, dg.a...)
	pts = append(pts, dg.b...)
	for i := 0; i < dg.D; i++ {
		pts = append(pts, dg.block(i)...)
	}
	dg.pts = pts
	return pts
}

// Estimate computes the Saltelli-2010 first-order and Jansen total-order
// indices from model values evaluated at Points() (same layout). The
// arithmetic — loop structure and reduction order included — is identical to
// the function-driven Estimate, so a surrogate scored through a kernel cache
// reproduces it bit-for-bit.
func (dg *Design) Estimate(values []float64, clamp bool) Result {
	n, d := dg.N, dg.D
	if len(values) != n*(d+2) {
		panic("sobolidx: Design.Estimate values length mismatch")
	}
	fa := values[:n]
	fb := values[n : 2*n]

	mean := 0.0
	for i := 0; i < n; i++ {
		mean += fa[i] + fb[i]
	}
	mean /= float64(2 * n)
	variance := 0.0
	for i := 0; i < n; i++ {
		da := fa[i] - mean
		db := fb[i] - mean
		variance += da*da + db*db
	}
	variance /= float64(2*n - 1)

	res := Result{
		First:    make([]float64, d),
		Total:    make([]float64, d),
		Mean:     mean,
		Variance: variance,
		N:        n,
	}
	if variance <= 0 {
		return res
	}
	for i := 0; i < d; i++ {
		fabi := values[(2+i)*n : (3+i)*n]
		vi := 0.0
		vti := 0.0
		for j := 0; j < n; j++ {
			vi += fb[j] * (fabi[j] - fa[j])
			dt := fa[j] - fabi[j]
			vti += dt * dt
		}
		res.First[i] = vi / float64(n) / variance
		res.Total[i] = vti / float64(2*n) / variance
		if clamp {
			res.First[i] = clamp01(res.First[i])
			res.Total[i] = clamp01(res.Total[i])
		}
	}
	return res
}

// evalInto evaluates f at every point, serially or across the worker pool.
// Each value lands in its own slot, so the output is independent of the
// evaluation schedule.
func evalInto(f Func, pts [][]float64, out []float64, concurrent bool) {
	if !concurrent {
		for i, p := range pts {
			out[i] = f(p)
		}
		return
	}
	parallel.ForChunk(len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(pts[i])
		}
	})
}

// Estimate computes first- and total-order Sobol indices of f over the unit
// cube in d dimensions using the Saltelli pick–freeze design with the
// Saltelli-2010 first-order estimator and the Jansen total-order estimator.
func Estimate(f Func, d int, opts Options) (Result, error) {
	dg, err := NewDesign(d, opts.N, opts.Rand)
	if err != nil {
		return Result{}, err
	}
	n := dg.N

	fa := make([]float64, n)
	fb := make([]float64, n)
	evalInto(f, dg.a, fa, opts.Concurrent)
	evalInto(f, dg.b, fb, opts.Concurrent)

	// Mean and variance from the pooled A and B evaluations.
	mean := 0.0
	for i := 0; i < n; i++ {
		mean += fa[i] + fb[i]
	}
	mean /= float64(2 * n)
	variance := 0.0
	for i := 0; i < n; i++ {
		da := fa[i] - mean
		db := fb[i] - mean
		variance += da*da + db*db
	}
	variance /= float64(2*n - 1)

	res := Result{
		First:    make([]float64, d),
		Total:    make([]float64, d),
		Mean:     mean,
		Variance: variance,
		N:        n,
	}
	if variance <= 0 {
		// Degenerate output: skip the d*n hybrid-block evaluations, as the
		// serial estimator always has.
		return res, nil
	}

	fabi := make([]float64, n)
	for i := 0; i < d; i++ {
		evalInto(f, dg.block(i), fabi, opts.Concurrent)
		// Saltelli 2010 first-order: V_i = mean(fB * (fABi - fA)).
		vi := 0.0
		// Jansen total-order: VT_i = mean((fA - fABi)^2) / 2.
		vti := 0.0
		for j := 0; j < n; j++ {
			vi += fb[j] * (fabi[j] - fa[j])
			dt := fa[j] - fabi[j]
			vti += dt * dt
		}
		res.First[i] = vi / float64(n) / variance
		res.Total[i] = vti / float64(2*n) / variance
		if opts.Clamp01 {
			res.First[i] = clamp01(res.First[i])
			res.Total[i] = clamp01(res.Total[i])
		}
	}
	return res, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
