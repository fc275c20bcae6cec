package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"osprey"
	"osprey/internal/obs"
)

// gsaStudy sizes one interleaved MUSIC study of the gsa-interleaved
// workload. Studies run in pairs with the same seed, so every run checks
// that the interleaved pool reproduces its indices bit for bit.
type gsaStudy struct {
	label                    string
	replicates               int
	initial, budget, pool    int
	refitEvery, indexSamples int
	gpMaxIter                int
	nodes, workersPerNode    int
	modelDelay               time.Duration
}

var (
	gsaFull = gsaStudy{
		label: "full", replicates: 10, initial: 20, budget: 100, pool: 80,
		refitEvery: 10, indexSamples: 256, gpMaxIter: 60,
		nodes: 2, workersPerNode: 1, modelDelay: 2 * time.Millisecond,
	}
	gsaQuick = gsaStudy{
		label: "quick", replicates: 2, initial: 8, budget: 12, pool: 20,
		refitEvery: 4, indexSamples: 64, gpMaxIter: 20,
		nodes: 2, workersPerNode: 1, modelDelay: time.Millisecond,
	}
)

func gsaSize(quick bool) gsaStudy {
	if quick {
		return gsaQuick
	}
	return gsaFull
}

func gsaParams(quick bool) map[string]any {
	s := gsaSize(quick)
	return map[string]any{
		"replicates": s.replicates, "initial_design": s.initial, "budget": s.budget,
		"candidate_pool": s.pool, "refit_every": s.refitEvery, "index_samples": s.indexSamples,
		"gp_max_iter": s.gpMaxIter, "nodes": s.nodes, "workers_per_node": s.workersPerNode,
		"model_delay_ms": s.modelDelay.Seconds() * 1e3, "interleaved": true, "studies": "pairs with one seed",
	}
}

func (s gsaStudy) config(seed uint64) osprey.GSAConfig {
	cfg := osprey.GSAConfig{
		Replicates: s.replicates,
		Nodes:      s.nodes, WorkersPerNode: s.workersPerNode,
		ModelDelay: s.modelDelay,
		Seed:       seed,
	}
	cfg.Music.InitialDesign = s.initial
	cfg.Music.Budget = s.budget
	cfg.Music.CandidatePool = s.pool
	cfg.Music.RefitEvery = s.refitEvery
	cfg.Music.IndexSamples = s.indexSamples
	cfg.Music.GP.MaxIter = s.gpMaxIter
	return cfg
}

// runGSA runs pairs of studies until the measured time is used up. An op
// is one model evaluation, timed from its submission to the task database
// to its completion (the task's own timestamps).
func runGSA(rc *runConfig) (*phase, error) {
	size := gsaSize(rc.quick)
	ref, err := loadGSARef(rc.gsaRef)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	budget := time.Duration(rc.seconds * float64(time.Second))
	win := openObsWindow()
	var depthMax int64
	var depthMu sync.Mutex
	smp := startSampler(func() {
		d := obs.Default().Snapshot().Gauges["emews.queue.depth"]
		depthMu.Lock()
		depthMax = max(depthMax, d)
		depthMu.Unlock()
	})
	var poolBusy, poolCapacity float64
	// Whole pairs run until the next would end more than half a pair past
	// the budget.
	var lastPair time.Duration
	for pair := 0; pair == 0 || ph.busy()+lastPair/2 < budget; pair++ {
		pairStart := ph.busy()
		seed := derive(rc.seed, 0x677361, uint64(pair))
		var first [][]float64
		for rep := 0; rep < 2; rep++ {
			res, err := runStudy(rc, ph, size, seed)
			if err != nil {
				smp.finish(ph)
				return nil, err
			}
			poolBusy += res.Pool.BusySeconds
			poolCapacity += res.Pool.ElapsedSeconds * float64(res.Pool.Workers)
			checkGSA(ph, size, res, seed, ref)
			if rep == 0 {
				first = res.FinalIndices
			} else if d := maxAbsDiff(first, res.FinalIndices); d != 0 {
				ph.fail("study seed %d: repeated study differs from the first by %g", seed, d)
			}
			fmt.Fprintf(os.Stderr, "bench: gsa study seed %d: %d evals in %.2fs, utilisation %.1f%%\n",
				seed, res.Evaluations, res.Elapsed.Seconds(), res.Pool.UtilizationPct)
		}
		// The pair's indices as a reference entry, to copy into
		// bench/gsa_reference.json when the reference must change.
		if b, err := json.Marshal(map[string][][]float64{gsaRefKey(size, seed): first}); err == nil {
			fmt.Fprintf(os.Stderr, "bench: gsa reference entry %s\n", b)
		}
		lastPair = ph.busy() - pairStart
	}
	delta := win.close()
	smp.finish(ph)

	m := map[string]float64{}
	ph.layers = m
	m["emews.pool.util_pct"] = pct(poolBusy, poolCapacity)
	service := delta.hist("emews.task.service_seconds")
	popWait := delta.hist("emews.pop.wait_seconds")
	handler := delta.hist("emews.pool.handler_seconds")
	m["emews.pool.handler_pct"] = pct(handler.sum, service.sum)
	m["emews.taskdb.pop_wait_pct"] = pct(popWait.sum, popWait.sum+service.sum)
	m["emews.taskdb.queue_depth_max"] = float64(depthMax)
	schedulerLayers(m, delta, ph.busy())
	ph.table = append(ph.table,
		fmt.Sprintf("emews.pool.handler     n %9d  p50 %8.3f ms", handler.count, 1e3*handler.quantile(0.5)),
		fmt.Sprintf("emews.taskdb.service   n %9d  p50 %8.3f ms", service.count, 1e3*service.quantile(0.5)),
		fmt.Sprintf("emews.taskdb.pop_wait  n %9d  p50 %8.3f ms", popWait.count, 1e3*popWait.quantile(0.5)))
	return ph, nil
}

// runStudy builds a platform, runs one interleaved study on it and adds
// the study as a segment of per-evaluation latencies. The study's set-up
// is the platform plus RunGSA's own start-up — the scheduled worker pool,
// the MUSIC instances, the first initial design — up to its first model
// result: the time a user waits before the study produces anything.
func runStudy(rc *runConfig, ph *phase, size gsaStudy, seed uint64) (*osprey.GSAResult, error) {
	start := time.Now()
	p, err := osprey.New(osprey.Config{Identity: "bench", Nodes: size.nodes})
	if err != nil {
		return nil, err
	}
	defer p.Shutdown()
	platform := time.Since(start)

	rc.tr.skipObs()
	start = time.Now()
	res, err := osprey.RunGSA(p, size.config(seed), true)
	seg := segment{busy: time.Since(start)}
	rc.tr.record("gsa.study", start)
	rc.tr.drainObs()
	ph.attempted += size.replicates * size.budget
	if err != nil {
		ph.failed += size.replicates * size.budget
		ph.fail("study seed %d: %v", seed, err)
		return nil, err
	}
	st := p.TaskDB.Stats()
	ph.failed += st.Failed + st.Canceled
	var first time.Time
	for id := int64(1); id <= int64(st.Submitted); id++ {
		t, err := p.TaskDB.Get(id)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", id, err)
		}
		seg.lat = append(seg.lat, t.Finished.Sub(t.Submitted))
		if id == 1 || t.Finished.Before(first) {
			first = t.Finished
		}
	}
	ph.setups = append(ph.setups, platform+first.Sub(start))
	ph.segs = append(ph.segs, seg)
	return res, nil
}

// checkGSA asserts a study's shape, the range of its indices and, when
// the reference has an entry for this study, agreement with it.
func checkGSA(ph *phase, size gsaStudy, res *osprey.GSAResult, seed uint64, ref map[string][][]float64) {
	if want := size.replicates * size.budget; res.Evaluations != want {
		ph.fail("study seed %d: %d evaluations, want %d", seed, res.Evaluations, want)
	}
	if res.Pool.Failed != 0 || res.Pool.Stale != 0 {
		ph.fail("study seed %d: pool failed %d stale %d", seed, res.Pool.Failed, res.Pool.Stale)
	}
	if len(res.FinalIndices) != size.replicates {
		ph.fail("study seed %d: %d replicate results, want %d", seed, len(res.FinalIndices), size.replicates)
	}
	for r, idx := range res.FinalIndices {
		for i, v := range idx {
			if math.IsNaN(v) || v < -0.25 || v > 1.25 {
				ph.fail("study seed %d replicate %d: first-order index %d = %g outside [-0.25, 1.25]", seed, r, i, v)
			}
		}
	}
	if want, ok := ref[gsaRefKey(size, seed)]; ok {
		if d := maxAbsDiff(want, res.FinalIndices); d > 1e-9 || math.IsNaN(d) {
			ph.fail("study seed %d: indices differ from the reference by %g", seed, d)
		}
	}
}

func maxAbsDiff(a, b [][]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return math.Inf(1)
		}
		for j := range a[i] {
			diff := math.Abs(a[i][j] - b[i][j])
			if math.IsNaN(diff) {
				return math.NaN()
			}
			d = math.Max(d, diff)
		}
	}
	return d
}

func gsaRefKey(size gsaStudy, seed uint64) string { return fmt.Sprintf("%s/%d", size.label, seed) }

// defaultGSARef finds the reference shipped with the benchmark, from the
// root of the checkout or from the benchmark's own directory (go test).
func defaultGSARef() string {
	for _, p := range []string{filepath.Join("bench", "gsa_reference.json"), "gsa_reference.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// loadGSARef reads study key → per-replicate first-order indices.
func loadGSARef(path string) (map[string][][]float64, error) {
	if path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gsa reference: %w", err)
	}
	var ref map[string][][]float64
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("gsa reference %s: %w", path, err)
	}
	if len(ref) == 0 {
		return nil, errors.New("gsa reference is empty")
	}
	return ref, nil
}

// schedulerLayers reports the scheduler's queueing share and the parallel
// numerics' busy and imbalance shares of the measured wall time.
func schedulerLayers(m map[string]float64, d obsDelta, wall time.Duration) {
	wait := d.hist("sched.job.wait_seconds")
	run := d.hist("sched.job.run_seconds")
	m["scheduler.wait_pct"] = pct(wait.sum, wait.sum+run.sum)
	pdur := d.hist("parallel.for.duration")
	imb := d.hist("parallel.for.imbalance")
	m["parallel.busy_pct"] = pct(pdur.sum, wall.Seconds())
	m["parallel.imbalance_pct"] = pct(imb.sum, pdur.sum)
}
