package emews

import (
	"fmt"
	"sort"

	"osprey/internal/wal"
)

// Post-run audit of a task database's write-ahead log. Where applyLocked
// (durable.go) is deliberately lenient — recovery must boot whatever the
// log says — AuditWAL is deliberately strict: it replays the mutation
// stream through a checking state machine and reports every transition
// that violates the task lifecycle contract. The loadgen harness runs it
// after a chaos run to prove that no sequence of crashes, connection
// losses, and lease reaps produced a lost task, a double finish, or a
// non-monotone attempt epoch anywhere in the durable history.

// Dump returns a copy of every task, sorted by ID — the test/audit hook
// the load harness uses for end-of-run reconciliation and invariant
// checks.
func (db *DB) Dump() []Task {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Task, 0, len(db.tasks))
	for _, t := range db.tasks {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WALAudit is the result of replaying a task-database WAL through the
// strict checker.
type WALAudit struct {
	Records  int `json:"records"`
	Submits  int `json:"submits"`
	Pops     int `json:"pops"`
	Finishes int `json:"finishes"` // terminal finishes (complete/failed/canceled)
	Requeues int `json:"requeues"` // retry requeues + crash-recovery requeues
	Prunes   int `json:"prunes"`
	Closes   int `json:"closes"`

	// Violations lists every lifecycle-contract breach found in the log:
	// duplicate submits, pops of non-queued tasks, double finishes,
	// finishes of unknown tasks, epoch regressions. Empty means the
	// durable history is clean.
	Violations []string `json:"violations,omitempty"`
}

// Ok reports whether the audited history is free of violations.
func (a *WALAudit) Ok() bool { return len(a.Violations) == 0 }

// auditTask is the checker's view of one task.
type auditTask struct {
	status TaskStatus
	epoch  int64
}

// AuditWAL opens the task-database log directory at dir read-only-ish
// (the log is opened and closed, never appended to) and strictly replays
// its history. Call it only after the live Log on dir has been closed.
func AuditWAL(dir string) (*WALAudit, error) {
	audit, _, err := auditWALTasks(dir)
	return audit, err
}

// auditWALTasks is AuditWAL plus the checker's final per-task state,
// which the multi-shard audit needs for cross-shard ownership checks.
func auditWALTasks(dir string) (*WALAudit, map[int64]*auditTask, error) {
	l, err := wal.Open(dir, wal.Options{Name: "wal.audit", Logf: func(string, ...any) {}})
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()

	audit := &WALAudit{}
	tasks := map[int64]*auditTask{}
	violate := func(format string, args ...any) {
		audit.Violations = append(audit.Violations, fmt.Sprintf(format, args...))
	}

	// A compaction snapshot, if present, seeds the checker state: the
	// pre-snapshot history is gone, so only post-snapshot transitions can
	// be audited.
	if b, ok := l.Snapshot(); ok {
		snap, err := decodeSnapshot(b)
		if err != nil {
			return nil, nil, fmt.Errorf("emews: audit snapshot: %w", err)
		}
		for _, t := range snap.Tasks {
			tasks[t.ID] = &auditTask{status: t.Status, epoch: t.Epoch}
		}
	}

	if _, err := l.Replay(func(rec []byte) error {
		m, err := decodeMutation(rec)
		if err != nil {
			return fmt.Errorf("emews: audit decode: %w", err)
		}
		audit.Records++
		switch m.Op {
		case opSubmit:
			audit.Submits++
			if m.Task == nil {
				violate("submit record %d has no task", audit.Records)
				return nil
			}
			if _, dup := tasks[m.Task.ID]; dup {
				violate("task %d submitted twice", m.Task.ID)
				return nil
			}
			tasks[m.Task.ID] = &auditTask{status: StatusQueued}
		case opPop:
			audit.Pops++
			t, ok := tasks[m.ID]
			if !ok {
				violate("pop of unknown task %d", m.ID)
				return nil
			}
			if t.status != StatusQueued {
				violate("pop of task %d in state %v", m.ID, t.status)
			}
			t.status = StatusRunning
			t.epoch++ // pops bump the attempt epoch; monotone by construction
		case opFinish:
			t, ok := tasks[m.ID]
			if !ok {
				violate("finish of unknown task %d", m.ID)
				return nil
			}
			if m.Requeued {
				audit.Requeues++
				if t.status != StatusRunning {
					violate("requeue-finish of task %d in state %v", m.ID, t.status)
				}
				t.status = StatusQueued
				return nil
			}
			audit.Finishes++
			switch t.status {
			case StatusRunning:
				// The one legal source of a terminal transition.
			case StatusComplete, StatusFailed, StatusCanceled:
				violate("double finish of task %d (already %v, finishing %v)", m.ID, t.status, m.Status)
			default:
				violate("finish of task %d in state %v", m.ID, t.status)
			}
			t.status = m.Status
		case opRequeue:
			for _, id := range m.IDs {
				t, ok := tasks[id]
				if !ok {
					violate("recovery requeue of unknown task %d", id)
					continue
				}
				// OpenDB only requeues tasks it recovered as Running; the
				// live applyLocked skips others, so a non-Running target
				// here means the recovery scan and the log disagree.
				if t.status != StatusRunning {
					violate("recovery requeue of task %d in state %v", id, t.status)
					continue
				}
				audit.Requeues++
				t.status = StatusQueued
				t.epoch++
			}
		case opPrune:
			audit.Prunes++
			for _, id := range m.IDs {
				t, ok := tasks[id]
				if !ok {
					violate("prune of unknown task %d", id)
					continue
				}
				switch t.status {
				case StatusComplete, StatusFailed, StatusCanceled:
					delete(tasks, id)
				default:
					violate("prune of non-terminal task %d (state %v)", id, t.status)
				}
			}
		case opDBClose:
			audit.Closes++
			for _, t := range tasks {
				if t.status == StatusQueued {
					t.status = StatusCanceled
				}
			}
		default:
			violate("unknown op %d at record %d", m.Op, audit.Records)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return audit, tasks, nil
}

// ShardsAudit is the strict audit of a whole shard group's durable
// history: each shard's WAL audited independently, plus the cross-shard
// ownership checks — every task ID must live on the shard its stride
// names, and no ID may appear in two shards' histories — and a combined
// ledger summing the per-shard ones.
type ShardsAudit struct {
	Shards   []*WALAudit `json:"shards"`
	Combined *WALAudit   `json:"combined"`
}

// Ok reports whether every shard audit and the cross-shard checks passed.
func (a *ShardsAudit) Ok() bool { return a.Combined.Ok() }

// AuditShards audits the log directory of every member of a shard group
// (dirs indexed by shard). Per-shard lifecycle violations are collected
// into the combined audit prefixed with their shard; cross-shard
// violations (a task outside its strided home, an ID in two histories)
// are appended after them. Call only after the live logs are closed.
func AuditShards(dirs []string) (*ShardsAudit, error) {
	n := len(dirs)
	out := &ShardsAudit{Combined: &WALAudit{}}
	owner := map[int64]int{} // task ID -> first shard whose history holds it
	for i, dir := range dirs {
		audit, tasks, err := auditWALTasks(dir)
		if err != nil {
			return nil, fmt.Errorf("emews: audit shard %d: %w", i, err)
		}
		out.Shards = append(out.Shards, audit)
		c := out.Combined
		c.Records += audit.Records
		c.Submits += audit.Submits
		c.Pops += audit.Pops
		c.Finishes += audit.Finishes
		c.Requeues += audit.Requeues
		c.Prunes += audit.Prunes
		c.Closes += audit.Closes
		for _, v := range audit.Violations {
			c.Violations = append(c.Violations, fmt.Sprintf("shard %d: %s", i, v))
		}
		ids := make([]int64, 0, len(tasks))
		for id := range tasks {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if want := ShardOfTask(id, n); want != i {
				c.Violations = append(c.Violations,
					fmt.Sprintf("task %d found on shard %d but its ID strides to shard %d", id, i, want))
			}
			if prev, dup := owner[id]; dup {
				c.Violations = append(c.Violations,
					fmt.Sprintf("task %d present in histories of both shard %d and shard %d", id, prev, i))
				continue
			}
			owner[id] = i
		}
	}
	return out, nil
}
