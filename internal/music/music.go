// Package music implements the MUSIC (Minimize Uncertainty in Sobol Index
// Convergence) active-learning GSA algorithm of §3.1.2 (Chauhan et al.
// 2024): a Gaussian-process surrogate trained on a limited number of
// simulations, refined by the EIGF (Expected Improvement in Global Fit)
// acquisition function, from which first-order Sobol indices are estimated
// after every new sample.
//
// The algorithm is deliberately structured as a resumable state machine —
// InitialDesign / Observe / NextPoint — rather than a closed loop, because
// the paper's workflow interleaves 10 instances over one EMEWS worker pool:
// "each algorithm performs a submission of tasks, and gets the Futures for
// those task evaluations back ... ceding control to the next instance"
// (§3.2). Any driver (sequential, interleaved, EMEWS-backed) can pump it.
package music

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"osprey/internal/design"
	"osprey/internal/gp"
	"osprey/internal/parallel"
	"osprey/internal/rng"
	"osprey/internal/sobolidx"
)

// AcqKind selects the acquisition function.
type AcqKind int

const (
	// EIGF is the paper's choice: (mu(x)-y(nearest))^2 + s^2(x), using the
	// D1 distance formulation (nearest training point by Euclidean
	// distance in the unit cube).
	EIGF AcqKind = iota
	// Variance is the ALM ablation: pick the candidate with the largest
	// posterior variance.
	Variance
	// Random refills with uniform random points (the no-surrogate-guidance
	// ablation).
	Random
)

func (a AcqKind) String() string {
	switch a {
	case EIGF:
		return "eigf"
	case Variance:
		return "variance"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("AcqKind(%d)", int(a))
	}
}

// Options configures an Algorithm instance.
type Options struct {
	// Space defines the native parameter ranges (Table 1 for MetaRVM).
	Space *design.Space
	// InitialDesign is the LHS seed size (default 30).
	InitialDesign int
	// Budget is the total number of model evaluations, including the
	// initial design (default 300 — Figure 4's x-axis range).
	Budget int
	// CandidatePool is the size of the fresh LHS candidate set scored by
	// the acquisition function each iteration (default 200).
	CandidatePool int
	// RefitEvery re-optimizes GP hyperparameters every k observations
	// (default 20); between refits the factorization is updated with
	// hyperparameters held fixed.
	RefitEvery int
	// IndexSamples is the base sample size of the surrogate Sobol
	// estimator (default 512; the surrogate is cheap, the QMC design
	// makes this plenty).
	IndexSamples int
	// Acquisition selects the refinement criterion (default EIGF).
	Acquisition AcqKind
	// BatchSize is how many points NextBatch proposes per iteration
	// (default 1, the paper's setting). Larger batches trade a little
	// acquisition optimality for better worker-pool packing.
	BatchSize int
	// TrackTotal additionally estimates total-order indices at each
	// snapshot (the paper reports first-order; totals come nearly free
	// from the same pick–freeze design).
	TrackTotal bool
	// Seed drives all of the instance's randomness.
	Seed uint64
	// GP carries surrogate fitting options.
	GP gp.Options
	// Surrogate selects the surrogate implementation (default the exact
	// dense GP). SparseSurrogate switches to the inducing-point
	// approximation, which is what makes 10k-point budgets tractable.
	Surrogate gp.SurrogateKind
	// Inducing caps the sparse surrogate's inducing-point count (defaulted
	// to gp.DefaultInducing when sparse; ignored for dense).
	Inducing int
}

func (o *Options) defaults() error {
	if o.Space == nil || o.Space.Dim() == 0 {
		return errors.New("music: Options.Space is required")
	}
	if o.InitialDesign <= 0 {
		o.InitialDesign = 30
	}
	if o.Budget <= 0 {
		o.Budget = 300
	}
	if o.Budget <= o.InitialDesign {
		return errors.New("music: Budget must exceed InitialDesign")
	}
	if o.CandidatePool <= 0 {
		o.CandidatePool = 200
	}
	if o.RefitEvery <= 0 {
		o.RefitEvery = 20
	}
	if o.IndexSamples <= 0 {
		o.IndexSamples = 512
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.GP.MaxIter == 0 {
		o.GP.MaxIter = 80
	}
	if o.GP.Restarts == 0 {
		o.GP.Restarts = 1
	}
	if o.Surrogate == gp.SparseSurrogate && o.Inducing <= 0 {
		// Normalize here so checkpoints record the effective count and Load
		// can verify compatibility against defaulted options.
		o.Inducing = gp.DefaultInducing
	}
	return nil
}

// Snapshot records the Sobol index estimates after the N-th evaluation —
// one point of a Figure 4/5 convergence curve.
type Snapshot struct {
	N       int
	Indices []float64
	// Total holds total-order estimates when Options.TrackTotal is set.
	Total []float64
}

// Algorithm is one MUSIC instance. It is not safe for concurrent use; the
// interleaved study drives each instance from its own goroutine.
type Algorithm struct {
	opts Options
	r    *rng.Stream

	// Training data in unit-cube coordinates and raw response values.
	x [][]float64
	y []float64

	surrogate   gp.Surrogate
	sinceRefit  int
	issuedInit  bool
	history     []Snapshot
	lastIndices []float64

	// Index-estimation fast path: the QMC pick–freeze design is identical
	// for every snapshot, so it is built once and its kernel columns against
	// the growing training set are cached across snapshots (see
	// gp.MeanCache). idxVals is the reused surrogate-mean buffer.
	idxDesign *sobolidx.Design
	idxCache  *gp.MeanCache
	idxVals   []float64
}

// New validates options and creates an instance.
func New(opts Options) (*Algorithm, error) {
	if err := (&opts).defaults(); err != nil {
		return nil, err
	}
	return &Algorithm{opts: opts, r: rng.New(opts.Seed).Split("music")}, nil
}

// Dim returns the parameter dimension.
func (a *Algorithm) Dim() int { return a.opts.Space.Dim() }

// N returns the number of observations so far.
func (a *Algorithm) N() int { return len(a.y) }

// Done reports whether the evaluation budget is exhausted.
func (a *Algorithm) Done() bool { return len(a.y) >= a.opts.Budget }

// InitialDesign returns the LHS seed points (native scale). It can be
// called once; subsequent points come from NextPoint.
func (a *Algorithm) InitialDesign() ([][]float64, error) {
	if a.issuedInit {
		return nil, errors.New("music: initial design already issued")
	}
	a.issuedInit = true
	return design.LatinHypercubeIn(a.r.Split("lhs"), a.opts.InitialDesign, a.opts.Space), nil
}

// Observe records evaluated points (native scale) and their responses,
// refits the surrogate, and appends an index snapshot. Points may arrive in
// any batch size, supporting both the initial design and one-at-a-time
// refinement.
func (a *Algorithm) Observe(points [][]float64, values []float64) error {
	if len(points) != len(values) {
		return errors.New("music: points/values length mismatch")
	}
	if len(points) == 0 {
		return nil
	}
	for i, p := range points {
		if len(p) != a.Dim() {
			return fmt.Errorf("music: point %d has dimension %d, want %d", i, len(p), a.Dim())
		}
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return fmt.Errorf("music: non-finite response at point %d", i)
		}
		a.x = append(a.x, a.opts.Space.Unscale(p))
		a.y = append(a.y, values[i])
	}
	if len(a.y) < a.opts.InitialDesign {
		return nil // wait for the full seed before fitting
	}
	if err := a.refit(len(points)); err != nil {
		return err
	}
	return a.snapshot()
}

func (a *Algorithm) refit(added int) error {
	a.sinceRefit += added
	if a.surrogate == nil || a.sinceRefit >= a.opts.RefitEvery {
		g, err := gp.FitSurrogate(a.x, a.y, a.opts.Surrogate, a.opts.Inducing, a.opts.GP)
		if err != nil {
			return fmt.Errorf("music: surrogate fit: %w", err)
		}
		a.surrogate = g
		a.sinceRefit = 0
		return nil
	}
	// Cheap path: append the new tail points with hyperparameters fixed.
	start := len(a.x) - added
	for i := start; i < len(a.x); i++ {
		if err := a.surrogate.Add(a.x[i], a.y[i], false); err != nil {
			return fmt.Errorf("music: surrogate update: %w", err)
		}
	}
	return nil
}

// snapshot estimates current first-order (and optionally total-order)
// indices from the surrogate mean. The pick–freeze design is cached across
// snapshots and the surrogate is scored through a kernel-column cache, so
// each snapshot after the first only computes kernel entries for training
// points added since — while producing the exact values a fresh
// sobolidx.Estimate over PredictMean would.
func (a *Algorithm) snapshot() error {
	if a.idxDesign == nil {
		dg, err := sobolidx.NewDesign(a.Dim(), a.opts.IndexSamples, nil)
		if err != nil {
			return err
		}
		a.idxDesign = dg
		a.idxCache = gp.NewMeanCache(dg.Points())
		a.idxVals = make([]float64, len(dg.Points()))
	}
	a.idxCache.Means(a.surrogate, a.idxVals)
	res := a.idxDesign.Estimate(a.idxVals, true)
	snap := Snapshot{N: len(a.y), Indices: res.First}
	if a.opts.TrackTotal {
		snap.Total = res.Total
	}
	a.lastIndices = append([]float64(nil), snap.Indices...)
	a.history = append(a.history, snap)
	return nil
}

// NextPoint selects the next evaluation location (native scale) by scoring
// a fresh candidate pool with the acquisition function.
func (a *Algorithm) NextPoint() ([]float64, error) {
	pts, err := a.nextBatch(1)
	if err != nil {
		return nil, err
	}
	return pts[0], nil
}

// NextBatch proposes Options.BatchSize points at once: the top-scoring
// candidates of the pool, capped to the remaining budget.
func (a *Algorithm) NextBatch() ([][]float64, error) {
	q := a.opts.BatchSize
	if rem := a.opts.Budget - len(a.y); q > rem {
		q = rem
	}
	return a.nextBatch(q)
}

func (a *Algorithm) nextBatch(q int) ([][]float64, error) {
	if a.Done() || q <= 0 {
		return nil, errors.New("music: budget exhausted")
	}
	if a.surrogate == nil {
		return nil, errors.New("music: observe the initial design first")
	}
	cands := design.LatinHypercube(a.r.Split(fmt.Sprintf("cand/%d", len(a.y))), a.opts.CandidatePool, a.Dim())
	if q > len(cands) {
		q = len(cands)
	}
	if a.opts.Acquisition == Random {
		out := make([][]float64, q)
		for i := range out {
			out[i] = a.opts.Space.Scale(cands[a.r.Intn(len(cands))])
		}
		return out, nil
	}
	type scored struct {
		score float64
		pt    []float64
	}
	// One parallel pass scores the whole pool: each worker chunk carries
	// its own prediction scratch and fuses the posterior query with the
	// nearest-observation scan. Scores land in per-candidate slots, so the
	// ranking below sees exactly what the serial loop produced.
	all := make([]scored, len(cands))
	parallel.ForChunk(len(cands), func(lo, hi int) {
		pred := a.surrogate.NewPredictor()
		for i := lo; i < hi; i++ {
			c := cands[i]
			var score float64
			switch a.opts.Acquisition {
			case Variance:
				_, v := pred.Predict(c)
				score = v
			default: // EIGF with the D1 nearest-observation formulation
				mu, v := pred.Predict(c)
				yNear := a.nearestY(c)
				d := mu - yNear
				score = d*d + v
			}
			all[i] = scored{score: score, pt: c}
		}
	})
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	out := make([][]float64, q)
	for i := 0; i < q; i++ {
		out[i] = a.opts.Space.Scale(all[i].pt)
	}
	return out, nil
}

// nearestY returns the response at the training point closest to u
// (Euclidean distance in the unit cube) — the D1 distance term of EIGF.
func (a *Algorithm) nearestY(u []float64) float64 {
	bestD := math.MaxFloat64
	bestY := 0.0
	for i, xi := range a.x {
		d := 0.0
		for j := range u {
			diff := u[j] - xi[j]
			d += diff * diff
		}
		if d < bestD {
			bestD = d
			bestY = a.y[i]
		}
	}
	return bestY
}

// Indices returns the most recent first-order Sobol index estimates.
func (a *Algorithm) Indices() ([]float64, error) {
	if a.lastIndices == nil {
		return nil, errors.New("music: no surrogate fitted yet")
	}
	return append([]float64(nil), a.lastIndices...), nil
}

// History returns the convergence trajectory (index estimates vs sample
// size), the series plotted in Figures 4 and 5.
func (a *Algorithm) History() []Snapshot {
	out := make([]Snapshot, len(a.history))
	copy(out, a.history)
	return out
}

// Surrogate exposes the fitted surrogate (nil before the initial design is
// observed), for diagnostics and ablations.
func (a *Algorithm) Surrogate() gp.Surrogate { return a.surrogate }

// RunSequential drives one instance to completion against a synchronous
// evaluator — the single-instance reference driver used by tests and the
// PCE comparison. evaluate receives native-scale points.
func RunSequential(a *Algorithm, evaluate func([]float64) (float64, error)) error {
	pts, err := a.InitialDesign()
	if err != nil {
		return err
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		if vals[i], err = evaluate(p); err != nil {
			return err
		}
	}
	if err := a.Observe(pts, vals); err != nil {
		return err
	}
	for !a.Done() {
		p, err := a.NextPoint()
		if err != nil {
			return err
		}
		v, err := evaluate(p)
		if err != nil {
			return err
		}
		if err := a.Observe([][]float64{p}, []float64{v}); err != nil {
			return err
		}
	}
	return nil
}

// Stabilized reports whether every index estimate has stayed within tol of
// its current value over the last `window` snapshots — the convergence
// criterion behind Figure 4's "stabilizes by N samples" reading, usable as
// an early-stopping rule for expensive models.
func (a *Algorithm) Stabilized(tol float64, window int) bool {
	if tol <= 0 || window <= 1 || len(a.history) < window {
		return false
	}
	last := a.history[len(a.history)-1].Indices
	for _, snap := range a.history[len(a.history)-window:] {
		for j, v := range snap.Indices {
			if math.Abs(v-last[j]) > tol {
				return false
			}
		}
	}
	return true
}
