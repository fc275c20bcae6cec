package emews

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"osprey/internal/wal"
)

// Event-sourced core of the task database. Every state transition — on the
// live API path and during crash recovery alike — is a typed, serializable
// taskMutation routed through applyLocked, the single transition function.
// The live path first decides the transition (fence checks, retry budget,
// assigned IDs and timestamps, so the record is fully deterministic),
// persists it through the optional wal.Backend, then applies it. A batch
// op (SubmitBatch, PopBatch, finishBatch) decides all of its mutations,
// persists them as one commit, then applies them in order: in memory the
// batch is all-or-none. Side effects — obs metrics, sync.Cond broadcasts,
// closing future done channels — live in the API wrappers, never in
// applyLocked, so replay rebuilds state without re-firing them.
//
// Deliberately not durable: leases and claim epochs held by workers (the
// processes die with the daemon), Pop waiters, and watch/notification
// state. Recovery therefore requeues every Running task — the requeue is
// itself logged as an opRequeue mutation so later pops replay against the
// same pre-states they saw live.

// Mutation ops of the EMEWS task database.
const (
	opSubmit  = "submit"
	opPop     = "pop"
	opFinish  = "finish"
	opDBClose = "close"
	opPrune   = "prune"
	opRequeue = "requeue"
)

// taskMutation is one serialized state transition.
type taskMutation struct {
	Op       string     `json:"op"`
	Task     *Task      `json:"task,omitempty"`     // submit: the full task, ID assigned
	ID       int64      `json:"id,omitempty"`       // pop/finish: target task
	Status   TaskStatus `json:"status,omitempty"`   // finish: terminal status
	Result   string     `json:"result,omitempty"`   // finish
	ErrMsg   string     `json:"err,omitempty"`      // finish
	Requeued bool       `json:"requeued,omitempty"` // finish: retry instead of terminate
	At       time.Time  `json:"at,omitempty"`       // pop: Started; finish/close: Finished
	IDs      []int64    `json:"ids,omitempty"`      // prune/requeue: affected tasks
}

// applyResult reports which side effects the live wrapper owes after a
// transition. Replay ignores it (OpenDB settles futures in one final pass).
type applyResult struct {
	terminal *Future   // finish: future to close
	canceled []*Future // close: futures of canceled queued tasks
}

// applyLocked is the pure state transition: it mutates only the in-memory
// structures and fires no metrics, broadcasts, or channel closes. The
// caller holds db.mu.
func (db *DB) applyLocked(m *taskMutation) (applyResult, error) {
	var res applyResult
	switch m.Op {
	case opSubmit:
		t := *m.Task
		if t.ID > db.nextID {
			db.nextID = t.ID
		}
		db.tasks[t.ID] = &t
		heap.Push(db.queueFor(t.Type), heapItem{id: t.ID, priority: t.Priority, seq: t.ID})
		db.futures[t.ID] = &Future{TaskID: t.ID, db: db, done: make(chan struct{})}
		db.stats.Submitted++
		db.stats.Queued++
	case opPop:
		t, ok := db.tasks[m.ID]
		if !ok {
			return res, fmt.Errorf("emews: apply pop: unknown task %d", m.ID)
		}
		// The live path popped the heap entry before committing; replay
		// leaves it in place and relies on popLocked's lazy deletion.
		t.Status = StatusRunning
		t.Attempts++
		t.Epoch++
		t.Started = m.At
		db.stats.Queued--
		db.stats.Running++
	case opFinish:
		t, ok := db.tasks[m.ID]
		if !ok {
			return res, fmt.Errorf("emews: apply finish: unknown task %d", m.ID)
		}
		if m.Requeued {
			t.Status = StatusQueued
			t.ErrMsg = m.ErrMsg
			db.stats.Running--
			db.stats.Queued++
			heap.Push(db.queueFor(t.Type), heapItem{id: t.ID, priority: t.Priority, seq: t.ID})
			break
		}
		t.Status = m.Status
		t.Result = m.Result
		t.ErrMsg = m.ErrMsg
		t.Finished = m.At
		db.stats.Running--
		switch m.Status {
		case StatusComplete:
			db.stats.Complete++
		case StatusFailed:
			db.stats.Failed++
		case StatusCanceled:
			db.stats.Canceled++
		}
		res.terminal = db.futures[m.ID]
	case opDBClose:
		db.closed = true
		for _, q := range db.queues {
			for q.Len() > 0 {
				item := heap.Pop(q).(heapItem)
				t := db.tasks[item.id]
				// Skip lazily-deleted entries: only genuinely queued tasks
				// are canceled by close.
				if t == nil || t.Status != StatusQueued {
					continue
				}
				t.Status = StatusCanceled
				t.Finished = m.At
				db.stats.Queued--
				db.stats.Canceled++
				if f := db.futures[t.ID]; f != nil {
					res.canceled = append(res.canceled, f)
				}
			}
		}
	case opPrune:
		for _, id := range m.IDs {
			delete(db.tasks, id)
			delete(db.futures, id)
		}
	case opRequeue:
		for _, id := range m.IDs {
			t, ok := db.tasks[id]
			if !ok || t.Status != StatusRunning {
				continue
			}
			// Fence off any claim the dead process handed out.
			t.Status = StatusQueued
			t.Epoch++
			db.stats.Running--
			db.stats.Queued++
			heap.Push(db.queueFor(t.Type), heapItem{id: t.ID, priority: t.Priority, seq: t.ID})
		}
	default:
		return res, fmt.Errorf("emews: unknown wal op %q", m.Op)
	}
	return res, nil
}

// queueFor returns (creating if needed) the priority heap for taskType.
// The caller holds db.mu.
func (db *DB) queueFor(taskType string) *taskHeap {
	q, ok := db.queues[taskType]
	if !ok {
		q = &taskHeap{}
		db.queues[taskType] = q
	}
	return q
}

// persistLocked writes ms through the backend (if any) as one commit: a
// single Append, so one write and at most one fsync for the whole group.
// It applies nothing; the caller applies each mutation with applyLocked
// only after persistLocked succeeded, so memory never runs ahead of the
// log (fail-stop). A crash can still leave any prefix of the group on
// disk, which recovery replays like any other history. The caller holds
// db.mu.
func (db *DB) persistLocked(ms []taskMutation) error {
	if db.backend == nil || len(ms) == 0 {
		return nil
	}
	recs := make([][]byte, len(ms))
	for i := range ms {
		rec, err := json.Marshal(&ms[i])
		if err != nil {
			return fmt.Errorf("emews: encode mutation: %w", err)
		}
		recs[i] = rec
	}
	if err := db.backend.Append(recs...); err != nil {
		return fmt.Errorf("emews: wal append: %w", err)
	}
	return nil
}

// commitLocked persists the single mutation m and applies it. The caller
// holds db.mu.
func (db *DB) commitLocked(m taskMutation) (applyResult, error) {
	ms := [1]taskMutation{m}
	if err := db.persistLocked(ms[:]); err != nil {
		return applyResult{}, err
	}
	return db.applyLocked(&ms[0])
}

// dbSnapshot is the full-state snapshot written at compaction.
type dbSnapshot struct {
	NextID int64   `json:"next_id"`
	Closed bool    `json:"closed"`
	Stats  Stats   `json:"stats"`
	Tasks  []*Task `json:"tasks"`
}

// snapshotLocked captures the full database state, tasks sorted by ID.
// The caller holds db.mu.
func (db *DB) snapshotLocked() dbSnapshot {
	snap := dbSnapshot{NextID: db.nextID, Closed: db.closed, Stats: db.stats}
	for _, t := range db.tasks {
		cp := *t
		snap.Tasks = append(snap.Tasks, &cp)
	}
	sort.Slice(snap.Tasks, func(i, j int) bool { return snap.Tasks[i].ID < snap.Tasks[j].ID })
	return snap
}

// loadSnapshot replaces the database contents from snapshot bytes,
// rebuilding the priority heaps from queued tasks and re-arming a future
// per task (terminal futures are settled by OpenDB's final pass).
func (db *DB) loadSnapshot(b []byte) error {
	var snap dbSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("emews: load snapshot: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextID = snap.NextID
	db.closed = snap.Closed
	db.stats = snap.Stats
	db.tasks = map[int64]*Task{}
	db.queues = map[string]*taskHeap{}
	db.futures = map[int64]*Future{}
	for _, t := range snap.Tasks {
		cp := *t
		db.tasks[cp.ID] = &cp
		db.futures[cp.ID] = &Future{TaskID: cp.ID, db: db, done: make(chan struct{})}
		if cp.Status == StatusQueued {
			heap.Push(db.queueFor(cp.Type), heapItem{id: cp.ID, priority: cp.Priority, seq: cp.ID})
		}
	}
	return nil
}

// OpenDB recovers a task database from a WAL: the newest snapshot is
// loaded, the remaining mutations are replayed through the same
// applyLocked the live path uses, and the log becomes the database's
// persistence backend. Because leases do not survive a restart, every
// task left Running by the dead process is requeued (epoch bumped so any
// straggler claim is fenced off) — and that requeue is itself committed
// to the log. The log must come straight from wal.Open (not yet
// replayed).
func OpenDB(l *wal.Log) (*DB, error) {
	return OpenDBShard(l, 0, 1)
}

// OpenDBShard is OpenDB for one member of a shard group: the recovered
// database allocates the strided ID sequence of shard index of count
// (see NewDBShard). The WAL must of course belong to that same shard.
func OpenDBShard(l *wal.Log, index, count int) (*DB, error) {
	db, err := NewDBShard(index, count)
	if err != nil {
		return nil, err
	}
	if snap, ok := l.Snapshot(); ok {
		if err := db.loadSnapshot(snap); err != nil {
			return nil, err
		}
	}
	if _, err := l.Replay(func(rec []byte) error {
		var m taskMutation
		if err := json.Unmarshal(rec, &m); err != nil {
			return fmt.Errorf("emews: decode mutation: %w", err)
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		_, err := db.applyLocked(&m)
		return err
	}); err != nil {
		return nil, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	// A logged clean close canceled the queued tasks it saw; the reopened
	// database accepts work again.
	db.closed = false
	db.backend = l
	db.wal = l

	// Requeue orphaned Running tasks, committing the transition.
	var running []int64
	for id, t := range db.tasks {
		if t.Status == StatusRunning {
			running = append(running, id)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i] < running[j] })
	if len(running) > 0 {
		if _, err := db.commitLocked(taskMutation{Op: opRequeue, IDs: running}); err != nil {
			return nil, err
		}
		mTaskRecovered.Add(int64(len(running)))
	}

	// Settle futures of terminal tasks so Result/Done work immediately.
	for id, t := range db.tasks {
		switch t.Status {
		case StatusComplete, StatusFailed, StatusCanceled:
			if f := db.futures[id]; f != nil {
				select {
				case <-f.done:
				default:
					close(f.done)
				}
			}
		}
	}

	// Re-arm additive occupancy gauges for the recovered population.
	// (Counters are per-process and deliberately not restored.)
	mQueueDepth.Add(int64(db.stats.Queued))
	mRunningNow.Add(int64(db.stats.Running))
	return db, nil
}

// Compact writes a full-state snapshot and truncates the log behind it,
// bounding the next boot's replay. The database lock is held across
// serialization and the snapshot write so no mutation can slip into a
// segment the compaction deletes.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return errors.New("emews: task database has no WAL (not opened with OpenDB)")
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(db.snapshotLocked()); err != nil {
		return fmt.Errorf("emews: encode snapshot: %w", err)
	}
	return db.wal.WriteSnapshot(buf.Bytes())
}

// Prune drops terminal tasks (and their futures) whose Finished time is at
// least olderThan in the past, returning how many were removed. Queued and
// Running tasks are never touched. Occupancy stats keep counting pruned
// tasks: Complete/Failed/Canceled are cumulative ledger totals, not live
// record counts.
func (db *DB) Prune(olderThan time.Duration) (int, error) {
	cutoff := time.Now().Add(-olderThan)
	db.mu.Lock()
	defer db.mu.Unlock()
	var ids []int64
	for id, t := range db.tasks {
		switch t.Status {
		case StatusComplete, StatusFailed, StatusCanceled:
			if !t.Finished.After(cutoff) {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return 0, nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if _, err := db.commitLocked(taskMutation{Op: opPrune, IDs: ids}); err != nil {
		return 0, err
	}
	mTaskPruned.Add(int64(len(ids)))
	return len(ids), nil
}
