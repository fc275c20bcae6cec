// Package emews implements the EMEWS model-exploration substrate of §3: a
// decoupled architecture built from a task database and a task API. Model
// exploration (ME) algorithms submit parameter-set tasks to the database
// and receive Futures; worker pools running on compute resources pop tasks,
// evaluate the model, and push results back. Submission "returns a Future,
// which encapsulates the asynchronous execution of the task" (§3.2), and it
// is exactly this decoupling that lets multiple algorithm instances be
// interleaved to keep a worker pool fully utilized.
//
// The database can be used in-process or served over TCP (see server.go),
// mirroring EMEWS's separation between ME processes and worker pools on
// different resources.
package emews

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/wal"
)

// TaskStatus enumerates the task lifecycle.
type TaskStatus int

const (
	StatusQueued TaskStatus = iota
	StatusRunning
	StatusComplete
	StatusFailed
	StatusCanceled
)

func (s TaskStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusComplete:
		return "complete"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Task is one unit of work: an opaque payload (model input parameters,
// conventionally JSON) tagged with a type that selects the worker pool.
type Task struct {
	ID       int64
	Type     string
	Priority int // higher runs first; FIFO within a priority level
	Payload  string

	Status TaskStatus
	Result string
	ErrMsg string

	// Attempts counts pops; MaxAttempts > 1 enables automatic requeue on
	// failure (worker crashes, transient model errors).
	Attempts    int
	MaxAttempts int

	// Epoch is the attempt fencing token: it is incremented on every pop,
	// recorded in the Claim handed to the worker, and checked again when
	// the claim resolves. A claim whose lease expired — whose task was
	// requeued and possibly re-popped by another worker — carries a stale
	// epoch and can no longer overwrite the newer attempt's result.
	Epoch int64

	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Future is the submitter's handle to an asynchronous task evaluation.
type Future struct {
	TaskID int64
	db     *DB
	done   chan struct{}
}

// Done returns a channel closed when the task reaches a terminal state.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the task terminates (or ctx is canceled) and returns
// the result payload.
func (f *Future) Result(ctx context.Context) (string, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	t, err := f.db.Get(f.TaskID)
	if err != nil {
		return "", err
	}
	switch t.Status {
	case StatusComplete:
		return t.Result, nil
	case StatusFailed:
		return "", fmt.Errorf("emews: task %d failed: %s", t.ID, t.ErrMsg)
	case StatusCanceled:
		return "", fmt.Errorf("emews: task %d canceled", t.ID)
	default:
		return "", fmt.Errorf("emews: task %d in unexpected state %v", t.ID, t.Status)
	}
}

// TryResult returns (result, err, true) if the task has terminated, or
// (_, _, false) if it is still pending — the non-blocking check each
// interleaved MUSIC instance performs before ceding control (§3.2).
func (f *Future) TryResult() (string, error, bool) {
	select {
	case <-f.done:
		res, err := f.Result(context.Background())
		return res, err, true
	default:
		return "", nil, false
	}
}

// Stats summarizes database occupancy.
type Stats struct {
	Queued, Running, Complete, Failed, Canceled int
	Submitted                                   int
}

// DB is the EMEWS task database. All methods are safe for concurrent use.
// Every mutation flows through a typed taskMutation record (see
// durable.go); when a WAL is attached the record is persisted
// before it is applied, and crash recovery replays the same records
// through the same transition function.
type DB struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	nextID int64
	tasks  map[int64]*Task
	// queues[type] is a priority heap of queued task IDs.
	queues  map[string]*taskHeap
	futures map[int64]*Future
	stats   Stats
	// leaseTimeout, when positive, bounds how long a popped task may run
	// before ReapExpired reclaims it (see lease.go).
	leaseTimeout time.Duration
	wal          *wal.Log // set by OpenDB; nil = in-memory only (the default)
	// pending is the reused scratch a batch op stages its mutations in
	// between deciding and committing them, so batching allocates nothing
	// per op. Guarded by mu; empty between ops.
	pending []taskMutation
	// shardIndex/shardCount stride the ID sequence so a shard group's
	// databases allocate disjoint IDs (see ring.go). 0/1 (or 0/0) is the
	// unsharded default: IDs 1, 2, 3, …
	shardIndex int
	shardCount int
}

// NewDB creates an empty task database.
func NewDB() *DB {
	db := &DB{
		tasks:   map[int64]*Task{},
		queues:  map[string]*taskHeap{},
		futures: map[int64]*Future{},
	}
	db.cond = sync.NewCond(&db.mu)
	return db
}

// NewDBShard creates an empty task database that is shard index of a
// count-wide shard group: it assigns the strided ID sequence index+1,
// index+1+count, index+1+2·count, … so every ID maps back to its owner
// via ShardOfTask. NewDBShard(0, 1) is NewDB.
func NewDBShard(index, count int) (*DB, error) {
	if count < 1 {
		count = 1
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("emews: shard index %d out of range for %d shards", index, count)
	}
	db := NewDB()
	db.shardIndex, db.shardCount = index, count
	// First assigned ID is nextID + stride = index + 1.
	db.nextID = int64(index+1) - db.stride()
	return db, nil
}

// ShardIdentity reports which shard of how many this database is
// (0 of 1 when unsharded).
func (db *DB) ShardIdentity() (index, count int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.shardCount < 1 {
		return 0, 1
	}
	return db.shardIndex, db.shardCount
}

// stride is the ID-allocation step. The caller holds db.mu (or the DB is
// not yet shared).
func (db *DB) stride() int64 {
	if db.shardCount > 1 {
		return int64(db.shardCount)
	}
	return 1
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("emews: task database closed")

// ErrStaleClaim is returned (wrapped) when a claim resolves after its
// attempt has been superseded: the lease expired (or the worker's
// connection dropped), the task was requeued, and the resolution would
// otherwise overwrite a newer attempt. Check with errors.Is.
var ErrStaleClaim = errors.New("stale claim")

// Submit inserts a task and returns its Future.
func (db *DB) Submit(taskType string, priority int, payload string) (*Future, error) {
	return db.SubmitRetry(taskType, priority, payload, 1)
}

// SubmitRetry inserts a task that is automatically requeued on failure
// until maxAttempts pops have been consumed.
func (db *DB) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (*Future, error) {
	fs, err := db.SubmitBatchRetry(taskType, priority, []string{payload}, maxAttempts)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// SubmitBatch submits several payloads of one type at a single priority.
// The batch is atomic: it takes the lock once and is one commit, so no
// observer (Pop, Stats) can see it half-submitted, a WAL-backed database
// writes and fsyncs it once, and waiting workers are woken with a single
// broadcast instead of one per task.
func (db *DB) SubmitBatch(taskType string, priority int, payloads []string) ([]*Future, error) {
	return db.SubmitBatchRetry(taskType, priority, payloads, 1)
}

// SubmitBatchRetry is SubmitBatch with a per-task retry budget: every
// task in the batch is requeued on failure until maxAttempts pops have
// been consumed (DB.SubmitRetry semantics). A persistence fault submits
// none of the batch.
func (db *DB) SubmitBatchRetry(taskType string, priority int, payloads []string, maxAttempts int) ([]*Future, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if taskType == "" {
		return nil, errors.New("emews: task type required")
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	now := time.Now()
	ms := db.pending[:0]
	for i, p := range payloads {
		ms = append(ms, taskMutation{Op: opSubmit, Task: &Task{
			ID: db.nextID + db.stride()*int64(i+1), Type: taskType, Priority: priority, Payload: p,
			MaxAttempts: maxAttempts,
			Status:      StatusQueued, Submitted: now,
		}})
	}
	defer db.releasePending(ms)
	if err := db.persistLocked(ms); err != nil {
		return nil, err
	}
	out := make([]*Future, len(ms))
	for i := range ms {
		_, _ = db.applyLocked(&ms[i]) // a submit always applies
		out[i] = db.futures[ms[i].Task.ID]
	}
	if len(out) > 0 {
		mTaskSubmitted.Add(int64(len(out)))
		mQueueDepth.Add(int64(len(out)))
		db.cond.Broadcast()
	}
	return out, nil
}

// maxPendingKeep bounds the scratch kept between batch ops, so one huge
// batch does not pin its staging memory for the life of the database.
const maxPendingKeep = 1024

// releasePending clears the staged mutations (dropping their task
// pointers) and keeps the scratch for the next batch op. The caller
// holds db.mu.
func (db *DB) releasePending(ms []taskMutation) {
	if cap(ms) > maxPendingKeep {
		db.pending = nil
		return
	}
	clear(ms)
	db.pending = ms[:0]
}

// Claim is a worker's lease on a running task.
type Claim struct {
	Task Task
	db   *DB
	used bool
}

// Pop blocks until a task of taskType is available (or ctx cancels /
// the DB closes) and claims it.
func (db *DB) Pop(ctx context.Context, taskType string) (*Claim, error) {
	cs, err := db.PopBatch(ctx, taskType, 1)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// PopBatch blocks until at least one task of taskType is available (or
// ctx cancels / the DB closes), then claims up to max tasks in one lock
// hold — the server-side half of the batched pop_batch wire op, which
// amortizes wakeup, locking, and (with a WAL attached) the commit over
// the whole batch: the claims are one write and at most one fsync. The
// batch is all-or-none: if the commit fails, no task is claimed and the
// error is returned.
func (db *DB) PopBatch(ctx context.Context, taskType string, max int) ([]*Claim, error) {
	// Wake the cond wait when ctx is canceled. The broadcast MUST happen
	// under db.mu: the waiter re-checks ctx.Err() while holding the lock
	// and only then calls cond.Wait(), so a locked broadcast cannot land
	// in the window between the check and the wait. An unlocked broadcast
	// could, losing the wakeup and hanging the pop until an unrelated
	// Submit/Close broadcasts.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			db.mu.Lock()
			db.cond.Broadcast()
			db.mu.Unlock()
		case <-stop:
		}
	}()

	waitStart := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if db.closed {
			return nil, ErrClosed
		}
		cs, err := db.popLocked(taskType, max)
		if err != nil {
			return nil, err
		}
		if len(cs) > 0 {
			mPopWait.ObserveSince(waitStart)
			return cs, nil
		}
		db.cond.Wait()
	}
}

// TryPop claims a task if one is immediately available.
func (db *DB) TryPop(taskType string) (*Claim, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	cs, err := db.popLocked(taskType, 1)
	if err != nil || len(cs) == 0 {
		return nil, false, err
	}
	return cs[0], true, nil
}

// popLocked claims up to max of the highest-priority queued tasks of
// taskType as one commit, returning none if none is queued. It stops
// early rather than lease more than one pop_batch response can carry
// (popFrameBudget), but always claims at least one task. The caller
// holds db.mu.
func (db *DB) popLocked(taskType string, max int) ([]*Claim, error) {
	q, ok := db.queues[taskType]
	if !ok {
		return nil, nil
	}
	if max < 1 {
		max = 1
	}
	now := time.Now()
	ms := db.pending[:0]
	defer func() { db.releasePending(ms) }()
	budget := popFrameBudget
	for len(ms) < max && q.Len() > 0 {
		item := heap.Pop(q).(heapItem)
		t := db.tasks[item.id]
		// Defensive lazy deletion: skip heap entries whose task is no
		// longer queued (e.g. resolved out of band, or a stale entry a
		// replayed pop left behind) rather than corrupting its state.
		if t == nil || t.Status != StatusQueued {
			continue
		}
		// The claims apply only after the commit, so a task whose heap
		// holds a second entry still reads as queued here. Every entry of
		// a task carries the same (priority, ID) key, so its duplicates
		// pop back to back: comparing with the last claim is enough to
		// claim each task at most once per batch.
		if n := len(ms); n > 0 && ms[n-1].ID == t.ID {
			continue
		}
		if budget -= len(t.Payload) + wireTaskOverhead; budget < 0 && len(ms) > 0 {
			heap.Push(q, item) // stays queued for the next pop
			break
		}
		ms = append(ms, taskMutation{Op: opPop, ID: t.ID, At: now})
	}
	if len(ms) == 0 {
		return nil, nil
	}
	if err := db.persistLocked(ms); err != nil {
		// Fail-stop: no pop was committed, so every task stays queued —
		// put its heap entry back.
		for _, m := range ms {
			heap.Push(q, heapItem{id: m.ID, priority: db.tasks[m.ID].Priority, seq: m.ID})
		}
		return nil, err
	}
	out := make([]*Claim, len(ms))
	for i := range ms {
		_, _ = db.applyLocked(&ms[i]) // the task was found queued above
		out[i] = &Claim{Task: *db.tasks[ms[i].ID], db: db}
	}
	mTaskPopped.Add(int64(len(out)))
	mQueueDepth.Add(-int64(len(out)))
	mRunningNow.Add(int64(len(out)))
	return out, nil
}

// resolution is one op of finishBatch: the resolution of a claimed
// attempt, and its outcome. An op whose Err the caller already set (e.g. a
// wrong-shard redirect) is skipped.
type resolution struct {
	ID, Epoch      int64
	Status         TaskStatus
	Result, ErrMsg string

	// Requeued reports that the resolution put the task back on the
	// queue (a failed attempt with retry budget left) rather than
	// terminating it; Err is the rejection, if any.
	Requeued bool
	Err      error

	// Set under db.mu for the side effects owed after unlock.
	staged  bool          // a mutation for this op is in the pending group
	applied bool          // that mutation was committed and applied
	service time.Duration // started → finished of a terminal resolution
	done    *Future       // future to close for a terminal resolution
}

// maxFinishGroup bounds the pending group finishBatch scans for repeats
// of a task, so a huge finish_batch costs linear, not quadratic, time.
const maxFinishGroup = 256

// finish resolves one attempt of task id: finishBatch with a one-op batch.
// epoch > 0 fences the resolution (see finishBatch); requeued reports
// whether the resolution put the task back on the queue (a failed attempt
// with retry budget left) rather than terminating it.
func (db *DB) finish(id, epoch int64, status TaskStatus, result, errMsg string) (requeued bool, err error) {
	ops := [1]resolution{{ID: id, Epoch: epoch, Status: status, Result: result, ErrMsg: errMsg}}
	db.finishBatch(ops[:])
	return ops[0].Requeued, ops[0].Err
}

// finishBatch resolves several attempts, recording each outcome in its
// op, and commits every accepted resolution as one commit: one write and
// at most one fsync with a WAL attached. Metrics and future closes fire
// after the lock is released.
//
// epoch > 0 fences a resolution: it must match the task's current attempt
// epoch (the one recorded at pop time), otherwise the claim is stale —
// its task was reclaimed, requeued, and possibly re-popped — and the
// resolution is rejected with ErrStaleClaim instead of silently
// corrupting the newer attempt. epoch == 0 is the unfenced path and
// only checks that the task is running. A
// duplicate delivery of the same attempt's resolution (same epoch,
// already recorded) is acknowledged, which makes fenced Complete/Fail
// safe to retry over a flaky transport.
//
// Resolutions apply only after the commit, so an op naming a task that
// an earlier op of the batch already resolved first commits the pending
// group: the repeat then sees the first resolution, and is acknowledged
// as a duplicate or rejected as stale exactly as a later request would
// be.
func (db *DB) finishBatch(ops []resolution) {
	db.mu.Lock()
	ms := db.pending[:0]
	first := 0 // first op of the pending group
	for i := range ops {
		op := &ops[i]
		if op.Err != nil {
			continue
		}
		if len(ms) == maxFinishGroup || stagedTask(ms, op.ID) {
			db.commitFinishesLocked(ops[first:i], ms)
			clear(ms)
			ms, first = ms[:0], i
		}
		if m, ok := db.decideFinishLocked(op); ok {
			ms = append(ms, m)
			op.staged = true
		}
	}
	db.commitFinishesLocked(ops[first:], ms)
	db.releasePending(ms)
	db.mu.Unlock()

	for i := range ops {
		op := &ops[i]
		if !op.applied {
			continue
		}
		mRunningNow.Dec()
		if op.Requeued {
			mTaskRequeued.Inc()
			mQueueDepth.Inc()
			continue
		}
		mTaskService.Observe(op.service)
		switch op.Status {
		case StatusComplete:
			mTaskCompleted.Inc()
		case StatusFailed:
			mTaskFailed.Inc()
		case StatusCanceled:
			mTaskCanceled.Inc()
		}
		if op.done != nil {
			close(op.done.done)
		}
	}
}

// stagedTask reports whether the pending group already resolves task id.
func stagedTask(ms []taskMutation, id int64) bool {
	for i := range ms {
		if ms[i].ID == id {
			return true
		}
	}
	return false
}

// decideFinishLocked runs the fence checks for op against the current
// state. It either settles op without a mutation (a rejection in op.Err,
// or an acknowledged duplicate) or returns the mutation that resolves it.
// The caller holds db.mu.
func (db *DB) decideFinishLocked(op *resolution) (taskMutation, bool) {
	t, ok := db.tasks[op.ID]
	if !ok {
		op.Err = fmt.Errorf("emews: unknown task %d", op.ID)
		return taskMutation{}, false
	}
	if op.Epoch > 0 {
		if t.Epoch != op.Epoch {
			mStaleRejected.Inc()
			op.Err = fmt.Errorf("emews: task %d attempt %d superseded by attempt %d: %w", op.ID, op.Epoch, t.Epoch, ErrStaleClaim)
			return taskMutation{}, false
		}
		switch t.Status {
		case StatusRunning:
			// The claim is current; resolve it below.
		case StatusComplete, StatusFailed:
			if t.Status == op.Status {
				// Duplicate delivery of this attempt's resolution (e.g.
				// a wire retry after a lost response): first writer
				// wins, the retry is acknowledged as success.
				return taskMutation{}, false
			}
			mStaleRejected.Inc()
			op.Err = fmt.Errorf("emews: task %d already %v: %w", op.ID, t.Status, ErrStaleClaim)
			return taskMutation{}, false
		case StatusQueued:
			if op.Status == StatusFailed {
				// The attempt's failure was already recorded by a
				// requeue (lease reap or connection loss).
				op.Requeued = true
				return taskMutation{}, false
			}
			mStaleRejected.Inc()
			op.Err = fmt.Errorf("emews: task %d attempt %d was reclaimed and requeued: %w", op.ID, op.Epoch, ErrStaleClaim)
			return taskMutation{}, false
		default:
			mStaleRejected.Inc()
			op.Err = fmt.Errorf("emews: task %d canceled: %w", op.ID, ErrStaleClaim)
			return taskMutation{}, false
		}
	} else if t.Status != StatusRunning {
		op.Err = fmt.Errorf("emews: task %d not running (state %v)", op.ID, t.Status)
		return taskMutation{}, false
	}
	// A failed attempt with budget left goes back to the queue (automatic
	// retry) instead of terminating the future. The decision is recorded
	// in the mutation so replay does not have to re-derive it.
	op.Requeued = op.Status == StatusFailed && t.Attempts < t.MaxAttempts && !db.closed
	return taskMutation{
		Op: opFinish, ID: op.ID, Status: op.Status, Result: op.Result, ErrMsg: op.ErrMsg,
		Requeued: op.Requeued, At: time.Now(),
	}, true
}

// commitFinishesLocked commits ms, the mutations staged by the ops of
// ops that have staged set, in order, and applies them; on a persistence
// fault every staged op fails with it. The caller holds db.mu.
func (db *DB) commitFinishesLocked(ops []resolution, ms []taskMutation) {
	if len(ms) == 0 {
		return
	}
	err := db.persistLocked(ms)
	requeued := false
	j := 0
	for i := range ops {
		op := &ops[i]
		if !op.staged {
			continue
		}
		op.staged = false
		if err != nil {
			op.Requeued, op.Err = false, err
			continue
		}
		res, _ := db.applyLocked(&ms[j]) // the task was found running above
		j++
		op.applied = true
		if op.Requeued {
			requeued = true
			continue
		}
		t := db.tasks[op.ID]
		op.service = t.Finished.Sub(t.Started)
		op.done = res.terminal
	}
	if requeued {
		db.cond.Broadcast()
	}
}

// Complete marks the claimed task successful with the given result. It
// returns an ErrStaleClaim-wrapped error if this claim's attempt was
// superseded (lease expired and the task was requeued/re-popped).
func (c *Claim) Complete(result string) error {
	if c.used {
		return errors.New("emews: claim already resolved")
	}
	c.used = true
	_, err := c.db.finish(c.Task.ID, c.Task.Epoch, StatusComplete, result, "")
	return err
}

// Fail marks the claimed task failed. Like Complete, a stale claim is
// rejected with ErrStaleClaim.
func (c *Claim) Fail(errMsg string) error {
	if c.used {
		return errors.New("emews: claim already resolved")
	}
	c.used = true
	_, err := c.db.finish(c.Task.ID, c.Task.Epoch, StatusFailed, "", errMsg)
	return err
}

// Get returns a snapshot of the task.
func (db *DB) Get(id int64) (Task, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tasks[id]
	if !ok {
		return Task{}, fmt.Errorf("emews: unknown task %d", id)
	}
	return *t, nil
}

// Stats snapshots occupancy counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// Close cancels all queued tasks and unblocks every waiting Pop with
// ErrClosed. Running tasks may still Complete/Fail. The close is logged
// best-effort: a WAL write failure cannot prevent shutdown, so on that
// path the cancellations are applied in memory only (a subsequent crash
// replays them as still queued, which is the safer direction).
func (db *DB) Close() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	m := &taskMutation{Op: opDBClose, At: time.Now()}
	if db.wal != nil {
		if rec, err := json.Marshal(m); err == nil {
			_ = db.wal.Append(rec)
		}
	}
	res, _ := db.applyLocked(m)
	db.cond.Broadcast()
	db.mu.Unlock()
	for _, f := range res.canceled {
		mQueueDepth.Dec()
		mTaskCanceled.Inc()
		close(f.done)
	}
}

// AsCompleted returns a channel that yields futures in completion order,
// closing after all have terminated or ctx is canceled. This is the batch
// analogue of the per-future polling the interleaved MUSIC driver uses.
func AsCompleted(ctx context.Context, futures []*Future) <-chan *Future {
	out := make(chan *Future)
	var wg sync.WaitGroup
	for _, f := range futures {
		wg.Add(1)
		go func(f *Future) {
			defer wg.Done()
			select {
			case <-f.Done():
				select {
				case out <- f:
				case <-ctx.Done():
				}
			case <-ctx.Done():
			}
		}(f)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// heapItem orders queued tasks by priority (desc) then submission (asc).
type heapItem struct {
	id       int64
	priority int
	seq      int64
}

type taskHeap []heapItem

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
