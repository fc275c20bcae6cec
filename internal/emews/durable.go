package emews

import (
	"container/heap"
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
// persists it through the optional WAL, then applies it. A batch
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

// taskMutation is one serialized state transition; record.go holds its
// log format and the op codes.
type taskMutation struct {
	Op       mutationOp
	Task     *Task      // submit: the full task, ID assigned
	ID       int64      // pop/finish: target task
	Status   TaskStatus // finish: terminal status
	Result   string     // finish
	ErrMsg   string     // finish
	Requeued bool       // finish: retry instead of terminate
	At       time.Time  // pop: Started; finish/close: Finished
	IDs      []int64    // prune/requeue: affected tasks
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
		return res, fmt.Errorf("emews: unknown wal op %d", m.Op)
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

// persistLocked writes ms through the WAL (if any) as one commit: a
// single Append, so one write and at most one fsync for the whole group.
// It applies nothing; the caller applies each mutation with applyLocked
// only after persistLocked succeeded, so memory never runs ahead of the
// log (fail-stop). A crash can still leave any prefix of the group on
// disk, which recovery replays like any other history. The caller holds
// db.mu.
func (db *DB) persistLocked(ms []taskMutation) error {
	if db.wal == nil || len(ms) == 0 {
		return nil
	}
	// Every record is encoded into the one reused buffer. A record sliced
	// out before the buffer grew still points at its own unchanged bytes,
	// and Append copies them all before it returns.
	buf, recs := db.recBuf[:0], db.recs[:0]
	for i := range ms {
		start := len(buf)
		buf = appendMutation(buf, &ms[i])
		recs = append(recs, buf[start:])
	}
	err := db.wal.Append(recs...)
	clear(recs)
	db.recs = recs[:0]
	if cap(buf) <= maxRecBufKeep {
		db.recBuf = buf[:0]
	}
	if err != nil {
		return fmt.Errorf("emews: wal append: %w", err)
	}
	return nil
}

// maxRecBufKeep bounds the encode buffer kept between commits, so one
// huge commit does not pin its bytes for the life of the database.
const maxRecBufKeep = 1 << 20

// commitLocked persists the single mutation m and applies it. The caller
// holds db.mu.
func (db *DB) commitLocked(m taskMutation) (applyResult, error) {
	ms := [1]taskMutation{m}
	if err := db.persistLocked(ms[:]); err != nil {
		return applyResult{}, err
	}
	return db.applyLocked(&ms[0])
}

// dbSnapshot is the full-state snapshot written at compaction (format in
// record.go).
type dbSnapshot struct {
	NextID int64
	Closed bool
	Stats  Stats
	Tasks  []*Task
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
	snap, err := decodeSnapshot(b)
	if err != nil {
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
		db.tasks[t.ID] = t
		db.futures[t.ID] = &Future{TaskID: t.ID, db: db, done: make(chan struct{})}
		if t.Status == StatusQueued {
			heap.Push(db.queueFor(t.Type), heapItem{id: t.ID, priority: t.Priority, seq: t.ID})
		}
	}
	return nil
}

// OpenDB recovers a task database from a WAL: the newest snapshot is
// loaded, the remaining mutations are replayed through the same
// applyLocked the live path uses, and the database becomes the primary
// behind the log (see becomePrimary: orphaned Running tasks are requeued
// through the log). The log must come straight from wal.Open (not yet
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
		m, err := decodeMutation(rec)
		if err != nil {
			return fmt.Errorf("emews: decode mutation: %w", err)
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		_, err = db.applyLocked(&m)
		return err
	}); err != nil {
		return nil, err
	}

	if err := db.becomePrimary(l); err != nil {
		return nil, err
	}
	return db, nil
}

// becomePrimary makes a database rebuilt from a log, by replay (OpenDB)
// or by replication (Follower.Promote), the live primary behind that log.
// Leases do not survive the old primary, so every task it left Running is
// requeued with its epoch bumped, and the requeue is committed through the
// log so claims the old primary handed out are fenced off (ErrStaleClaim).
// Replay and replication apply without side effects, so the futures of
// terminal tasks are settled here and the additive occupancy gauges are
// re-armed for the population. (Counters are per-process and deliberately
// not restored.)
func (db *DB) becomePrimary(l *wal.Log) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// A logged or replicated clean close canceled the queued tasks it saw;
	// the new primary accepts work again.
	db.closed = false
	db.wal = l

	var running []int64
	for id, t := range db.tasks {
		if t.Status == StatusRunning {
			running = append(running, id)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i] < running[j] })
	if len(running) > 0 {
		if _, err := db.commitLocked(taskMutation{Op: opRequeue, IDs: running}); err != nil {
			return err
		}
		mTaskRecovered.Add(int64(len(running)))
	}

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

	mQueueDepth.Add(int64(db.stats.Queued))
	mRunningNow.Add(int64(db.stats.Running))
	return nil
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
	snap := db.snapshotLocked()
	return db.wal.WriteSnapshot(appendSnapshot(nil, &snap))
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
