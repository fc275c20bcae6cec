package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/abm"
	"osprey/internal/design"
	"osprey/internal/emews"
	"osprey/internal/gp"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/parallel"
	"osprey/internal/pce"
	"osprey/internal/rng"
)

// GSAConfig parameterizes the use case 2 study: N replicate MUSIC
// instances over one EMEWS worker pool, evaluating the MetaRVM model at
// Table 1 points.
type GSAConfig struct {
	// Replicates is the number of MUSIC instances, one per MetaRVM random
	// seed (the paper runs 10; "the workflow itself has separately been
	// scaled to 100").
	Replicates int
	// Music configures each instance. Music.Space defaults to the Table 1
	// space; Music.Seed is overridden per replicate.
	Music music.Options
	// Nodes / WorkersPerNode size the scheduler-launched worker pool
	// (defaults 4 / 2).
	Nodes, WorkersPerNode int
	// TaskType names the EMEWS queue (default "metarvm").
	TaskType string
	// ModelDelay adds artificial per-evaluation cost, standing in for the
	// expensive agent-based models the paper says would benefit most.
	ModelDelay time.Duration
	// Model selects the simulator: "metarvm" (default, ~2 ms/run) or
	// "abm", the agent-based model whose higher cost (~40 ms/run) is the
	// regime where the paper says MUSIC's sample efficiency pays off most.
	Model string
	// Surrogate selects the GP implementation backing each MUSIC instance:
	// "dense" (default, exact) or "sparse" (inducing-point approximation,
	// the sub-cubic path that makes 10k-point budgets tractable).
	Surrogate string
	// Inducing caps the sparse surrogate's inducing-point count (default
	// gp.DefaultInducing; ignored for dense).
	Inducing int
	// MeanReplicates, when > 0, switches to the conventional design the
	// paper contrasts with its per-replicate approach: each task returns
	// the QoI averaged over this many stochastic model runs, and every
	// MUSIC instance sees the mean response instead of one fixed seed
	// ("GSA is often performed on the mean response, calculated across
	// multiple replicates", §3.1.2).
	MeanReplicates int
	// Seed derives the replicate seeds.
	Seed uint64
}

func (c *GSAConfig) defaults() error {
	if c.Replicates <= 0 {
		c.Replicates = 10
	}
	if c.Music.Space == nil {
		c.Music.Space = metarvm.GSAParameterSpace()
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 2
	}
	if c.Model == "" {
		c.Model = "metarvm"
	}
	if c.TaskType == "" {
		c.TaskType = c.Model
	}
	switch c.Surrogate {
	case "", "dense":
		c.Music.Surrogate = gp.DenseSurrogate
	case "sparse":
		c.Music.Surrogate = gp.SparseSurrogate
		if c.Inducing > 0 {
			c.Music.Inducing = c.Inducing
		}
	default:
		return fmt.Errorf("core: unknown surrogate kind %q (want dense or sparse)", c.Surrogate)
	}
	return nil
}

// gsaTask is the EMEWS task payload: a Table 1 point plus the replicate's
// model seed (or, in mean-response mode, the number of seeds to average).
type gsaTask struct {
	X    []float64 `json:"x"`
	Seed uint64    `json:"seed"`
	// MeanOver > 0 averages the QoI over seeds Seed..Seed+MeanOver-1.
	MeanOver int `json:"mean_over,omitempty"`
}

type gsaResult struct {
	Y float64 `json:"y"`
}

// GSAResult is the outcome of a replicated GSA study.
type GSAResult struct {
	// Histories[r] is replicate r's index-convergence trajectory
	// (the lines of Figure 5; replicate 0 with a fixed seed is the MUSIC
	// curve of Figure 4).
	Histories [][]music.Snapshot
	// FinalIndices[r] is replicate r's final first-order estimate.
	FinalIndices [][]float64
	// Pool reports worker utilization (the §3.2 claim).
	Pool emews.PoolStats
	// Elapsed is the wall-clock makespan of the study.
	Elapsed time.Duration
	// Evaluations is the total number of model runs.
	Evaluations int
}

// instanceState tracks one MUSIC instance. Only the goroutine driving the
// instance touches it.
type instanceState struct {
	alg     *music.Algorithm
	pending []*emews.Future
	points  [][]float64 // points matching pending futures
	seed    uint64      // MetaRVM replicate seed
	evals   int         // tasks submitted
}

// modelEvaluator selects the simulator behind the worker pool.
func modelEvaluator(model string) (func([]float64, uint64) (float64, error), error) {
	switch model {
	case "", "metarvm":
		return metarvm.EvaluateGSA, nil
	case "abm":
		return abm.EvaluateGSA, nil
	default:
		return nil, fmt.Errorf("core: unknown GSA model %q", model)
	}
}

// modelHandler evaluates simulator tasks on the worker pool.
func modelHandler(evaluate func([]float64, uint64) (float64, error), delay time.Duration) emews.Handler {
	return func(ctx context.Context, payload string) (string, error) {
		var task gsaTask
		if err := json.Unmarshal([]byte(payload), &task); err != nil {
			return "", err
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		var y float64
		if task.MeanOver > 0 {
			total := 0.0
			for k := 0; k < task.MeanOver; k++ {
				v, err := evaluate(task.X, task.Seed+uint64(k))
				if err != nil {
					return "", err
				}
				total += v
			}
			y = total / float64(task.MeanOver)
		} else {
			v, err := evaluate(task.X, task.Seed)
			if err != nil {
				return "", err
			}
			y = v
		}
		out, err := json.Marshal(gsaResult{Y: y})
		return string(out), err
	}
}

// RunGSA executes the replicated MUSIC study. When interleaved is true the
// instances run concurrently, one goroutine each, over the shared pool (the
// paper's design); when false each instance runs to completion before the
// next starts (the ablation whose poor utilization motivates interleaving).
// Both modes choose the same points and return the same indices.
func RunGSA(p *Platform, cfg GSAConfig, interleaved bool) (*GSAResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, errors.New("core: nil platform")
	}

	evaluate, err := modelEvaluator(cfg.Model)
	if err != nil {
		return nil, err
	}
	// Initialization: set up the task queue, then start a worker pool by
	// submitting a job to the scheduler (§3.2).
	pool, err := emews.StartScheduledPool(
		p.Cluster, cfg.Nodes, cfg.WorkersPerNode,
		p.TaskDB, cfg.TaskType, modelHandler(evaluate, cfg.ModelDelay), 0)
	if err != nil {
		return nil, err
	}
	defer pool.Stop()

	root := rng.New(cfg.Seed)
	instances := make([]*instanceState, cfg.Replicates)
	for i := range instances {
		opts := cfg.Music
		opts.Seed = cfg.Seed + uint64(i)*7919
		alg, err := music.New(opts)
		if err != nil {
			return nil, err
		}
		instances[i] = &instanceState{
			alg:  alg,
			seed: uint64(root.Split(fmt.Sprintf("replicate/%d", i)).Uint64()%100000 + 1),
		}
	}

	start := time.Now()
	submit := func(inst *instanceState, pts [][]float64) error {
		for _, pt := range pts {
			payload, err := json.Marshal(gsaTask{X: pt, Seed: inst.seed, MeanOver: cfg.MeanReplicates})
			if err != nil {
				return err
			}
			f, err := p.TaskDB.Submit(cfg.TaskType, 0, string(payload))
			if err != nil {
				return err
			}
			inst.pending = append(inst.pending, f)
			inst.points = append(inst.points, pt)
			inst.evals++
		}
		return nil
	}
	// Seed every instance's initial design (or, sequentially, one at a
	// time, each drained before the next is seeded).
	for _, inst := range instances {
		pts, err := inst.alg.InitialDesign()
		if err != nil {
			return nil, err
		}
		if err := submit(inst, pts); err != nil {
			return nil, err
		}
		if !interleaved {
			if err := drainInstance(context.Background(), inst, submit); err != nil {
				return nil, err
			}
		}
	}
	if interleaved {
		if err := interleave(instances, submit); err != nil {
			return nil, err
		}
	}

	res := &GSAResult{Elapsed: time.Since(start)}
	for _, inst := range instances {
		res.Evaluations += inst.evals
		res.Histories = append(res.Histories, inst.alg.History())
		idx, err := inst.alg.Indices()
		if err != nil {
			return nil, err
		}
		res.FinalIndices = append(res.FinalIndices, idx)
	}
	pool.Stop()
	res.Pool = pool.Stats()
	return res, nil
}

// harvest blocks the instance's goroutine until every pending future of
// the instance completes, then observes them together: all-or-nothing
// batches keep the surrogate seeing the full initial design at once, and
// the observation order is the submission order whatever order the tasks
// finish in.
func harvest(ctx context.Context, inst *instanceState) error {
	if len(inst.pending) == 0 {
		return nil
	}
	vals := make([]float64, len(inst.pending))
	for i, f := range inst.pending {
		s, err := f.Result(ctx)
		if err != nil {
			return err
		}
		var r gsaResult
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			return err
		}
		vals[i] = r.Y
	}
	if err := inst.alg.Observe(inst.points, vals); err != nil {
		return err
	}
	inst.pending = nil
	inst.points = nil
	return nil
}

type submitFn func(*instanceState, [][]float64) error

// drainInstance runs one instance to completion: block on its batch,
// observe it, propose the next point, submit it.
func drainInstance(ctx context.Context, inst *instanceState, submit submitFn) error {
	for {
		if err := harvest(ctx, inst); err != nil {
			return err
		}
		if inst.alg.Done() {
			return nil
		}
		pt, err := inst.alg.NextPoint()
		if err != nil {
			return err
		}
		if err := submit(inst, [][]float64{pt}); err != nil {
			return err
		}
	}
}

// interleave drives every instance on its own goroutine, each running
// drainInstance, so that while one instance refits its surrogate the
// others keep the pool fed: the instances meet only through the task
// database, as model-exploration algorithms and worker pools do in EMEWS.
// Each instance owns its algorithm, RNG and futures, so the points it
// chooses do not depend on how the goroutines are scheduled. The first
// error cancels the other instances and is returned once all have stopped.
func interleave(instances []*instanceState, submit submitFn) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for _, inst := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := drainInstance(ctx, inst, submit); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// PCEComparison fits one-shot PCE surrogates on LHS designs of increasing
// size against a fixed-seed MetaRVM response, returning first-order index
// estimates per design size — the magenta curves of Figure 4.
type PCEComparison struct {
	Sizes   []int
	Indices [][]float64 // Indices[k] corresponds to Sizes[k]
}

// RunPCEComparison evaluates the model once on the largest design and fits
// nested subsets, mirroring "curves showing how the estimated indices
// evolve as additional samples are added one at a time" (§3.3).
func RunPCEComparison(space *design.Space, seed uint64, modelSeed uint64, sizes []int, degree int) (*PCEComparison, error) {
	if space == nil {
		space = metarvm.GSAParameterSpace()
	}
	if len(sizes) == 0 {
		return nil, errors.New("core: no design sizes given")
	}
	if degree <= 0 {
		degree = 3 // the paper's best-performing PCE degree
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	// Model evaluations are independent (each run owns its config and RNG),
	// as are the per-size fits over the shared read-only design — so both
	// fan out over the worker pool into per-index slots, with errors and
	// results reduced in design/size order.
	pts := design.LatinHypercubeIn(rng.New(seed).Split("pce"), max, space)
	ys := make([]float64, max)
	evalErrs := make([]error, max)
	parallel.ForChunk(max, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ys[i], evalErrs[i] = metarvm.EvaluateGSA(pts[i], modelSeed)
		}
	})
	for _, err := range evalErrs {
		if err != nil {
			return nil, err
		}
	}
	unit := make([][]float64, max)
	for i, pt := range pts {
		unit[i] = space.Unscale(pt)
	}
	kept := make([]int, 0, len(sizes))
	for _, n := range sizes {
		if n <= max {
			kept = append(kept, n)
		}
	}
	indices := make([][]float64, len(kept))
	fitErrs := make([]error, len(kept))
	parallel.For(len(kept), func(k int) {
		m, err := pce.Fit(unit[:kept[k]], ys[:kept[k]], pce.Options{Degree: degree, Ridge: 1e-8})
		if err != nil {
			fitErrs[k] = err
			return
		}
		indices[k] = m.FirstOrderIndices()
	})
	out := &PCEComparison{}
	for k, n := range kept {
		if fitErrs[k] != nil {
			return nil, fitErrs[k]
		}
		out.Sizes = append(out.Sizes, n)
		out.Indices = append(out.Indices, indices[k])
	}
	return out, nil
}
