package emews

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/scheduler"
)

// Handler evaluates one task payload (typically: decode parameters, run the
// model, encode the quantity of interest).
type Handler func(ctx context.Context, payload string) (string, error)

// PoolStats reports worker-pool throughput and busy time, the measurements
// behind the paper's resource-utilization argument (§3.2).
type PoolStats struct {
	Workers   int
	Processed int
	Failed    int
	// Stale counts resolutions rejected because the claim's lease had
	// expired and the task was reclaimed (the work was re-done elsewhere).
	Stale int
	// BusySeconds is summed across workers; divide by (Workers × elapsed)
	// for utilization.
	BusySeconds    float64
	ElapsedSeconds float64
	UtilizationPct float64
}

// Pool consumes tasks of one type from a DB with a fixed set of workers.
type Pool struct {
	db       *DB
	taskType string
	handler  Handler

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started time.Time

	mu               sync.Mutex
	processedWorkers int
	processed        int
	failed           int
	stale            int
	busy             time.Duration
	stopped          time.Time

	job *scheduler.Job // non-nil for scheduler-launched pools
}

// StartLocalPool launches workers in-process (the "running locally when
// testing" mode of §3.2).
func StartLocalPool(db *DB, taskType string, workers int, handler Handler) (*Pool, error) {
	if db == nil || handler == nil {
		return nil, errors.New("emews: pool needs a DB and a handler")
	}
	if workers <= 0 {
		return nil, errors.New("emews: pool needs at least one worker")
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{db: db, taskType: taskType, handler: handler, cancel: cancel, started: time.Now()}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.workerLoop(ctx, i)
	}
	p.mu.Lock()
	p.processedWorkers = workers
	p.mu.Unlock()
	return p, nil
}

// StartScheduledPool starts the pool "in production on a compute node": it
// submits a job to the batch scheduler, and the workers run inside the
// job's allocation for its lifetime (§3.2). workersPerNode goroutines run
// per allocated node.
func StartScheduledPool(cluster *scheduler.Cluster, nodes, workersPerNode int, db *DB, taskType string, handler Handler, walltime time.Duration) (*Pool, error) {
	if cluster == nil {
		return nil, errors.New("emews: scheduled pool needs a cluster")
	}
	if db == nil || handler == nil {
		return nil, errors.New("emews: pool needs a DB and a handler")
	}
	if nodes <= 0 || workersPerNode <= 0 {
		return nil, errors.New("emews: scheduled pool needs positive nodes and workersPerNode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{db: db, taskType: taskType, handler: handler, cancel: cancel, started: time.Now()}
	ready := make(chan struct{})
	job, err := cluster.Submit(scheduler.JobSpec{
		Name:     fmt.Sprintf("emews-pool-%s", taskType),
		Nodes:    nodes,
		Walltime: walltime,
		Run: func(jobCtx context.Context, alloc scheduler.Allocation) error {
			workers := len(alloc.Nodes) * workersPerNode
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p.workerBody(jobCtx, ctx, id)
				}(i)
			}
			p.mu.Lock()
			p.processedWorkers = workers
			p.mu.Unlock()
			close(ready)
			wg.Wait()
			return nil
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	p.job = job
	select {
	case <-ready:
	case <-job.Done():
		cancel()
		return nil, fmt.Errorf("emews: pool job ended before starting: %w", job.Err())
	}
	return p, nil
}

// workerLoop is the in-process worker entry.
func (p *Pool) workerLoop(ctx context.Context, id int) {
	defer p.wg.Done()
	p.workerBody(ctx, ctx, id)
}

// workerBody pops and evaluates tasks until either context cancels or the
// DB closes.
func (p *Pool) workerBody(jobCtx, poolCtx context.Context, id int) {
	// One context for the worker's life, canceled by either input: a
	// merged context per Pop would leave a watcher behind each task.
	ctx, cancel := context.WithCancel(jobCtx)
	defer cancel()
	defer context.AfterFunc(poolCtx, cancel)()
	for {
		claim, err := p.db.Pop(ctx, p.taskType)
		if err != nil {
			return
		}
		start := time.Now()
		result, err := p.handler(jobCtx, claim.Task.Payload)
		elapsed := time.Since(start)
		mPoolHandler.Observe(elapsed)
		// Resolve under p.mu, so that Stats counts every task whose result
		// a caller can already see. The DB commits one at a time anyway,
		// so only Stats waits, behind the commit in progress.
		p.mu.Lock()
		var resolveErr error
		if err != nil {
			resolveErr = claim.Fail(err.Error())
		} else {
			resolveErr = claim.Complete(result)
		}
		p.busy += elapsed
		switch {
		case errors.Is(resolveErr, ErrStaleClaim):
			// The lease expired mid-evaluation and another attempt owns
			// the task now; this worker's result was discarded.
			p.stale++
			mPoolStale.Inc()
		case err != nil:
			p.failed++
			mPoolFailed.Inc()
		default:
			p.processed++
			mPoolProcessed.Inc()
		}
		p.mu.Unlock()
	}
}

// Stop cancels the workers (and the backing scheduler job, if any) and
// waits for them to exit.
func (p *Pool) Stop() {
	p.cancel()
	p.wg.Wait()
	if p.job != nil {
		<-p.job.Done()
	}
	p.mu.Lock()
	if p.stopped.IsZero() {
		p.stopped = time.Now()
	}
	p.mu.Unlock()
}

// Stats snapshots pool throughput and utilization.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.stopped
	if end.IsZero() {
		end = time.Now()
	}
	elapsed := end.Sub(p.started).Seconds()
	st := PoolStats{
		Workers:        p.processedWorkers,
		Processed:      p.processed,
		Failed:         p.failed,
		Stale:          p.stale,
		BusySeconds:    p.busy.Seconds(),
		ElapsedSeconds: elapsed,
	}
	if elapsed > 0 && st.Workers > 0 {
		st.UtilizationPct = 100 * st.BusySeconds / (elapsed * float64(st.Workers))
	}
	return st
}
