package emews

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Binary format of the task database's log: every WAL record is one
// taskMutation and every compaction snapshot is one dbSnapshot. Both are
// built from the wire codec's primitives (wire.go): uvarint/varint
// integers and uvarint-length-prefixed raw strings, so task bytes survive
// the log unchanged whether or not they are valid UTF-8.
//
//	record   = version op fields
//	snapshot = version varint(next_id) bool(closed) stats uvarint(n) task*n
//
// version is recordVersion. op is one byte, and each op writes only the
// fields it uses:
//
//	submit   task
//	pop      uvarint(id) time(at)
//	finish   uvarint(id) status bool(requeued) string(result) string(err) time(at)
//	close    time(at)
//	prune    uvarint(n) uvarint(id)*n
//	requeue  uvarint(n) uvarint(id)*n
//
//	task   = uvarint(id) string(type) varint(priority) string(payload)
//	         status string(result) string(err) varint(attempts)
//	         varint(max_attempts) uvarint(epoch)
//	         time(submitted) time(started) time(finished)
//	stats  = varint(queued running complete failed canceled submitted)
//	status = one byte, StatusQueued..StatusCanceled
//	time   = 0 (the zero time) | 1 varint(UnixNano)
//	bool   = 0 | 1
//
// The decoders accept only what the encoders write: minimal varints, 0/1
// flags, known ops and statuses, no trailing bytes. So a decoded record
// re-encodes to the same bytes. A list length is bounded by the bytes
// left, so a hostile one cannot force a huge allocation.

// recordVersion is the first byte of every record and snapshot.
const recordVersion byte = 1

// Mutation ops of the EMEWS task database, as written in a record's op
// byte.
type mutationOp byte

const (
	opSubmit mutationOp = iota + 1
	opPop
	opFinish
	opDBClose
	opPrune
	opRequeue
)

// appendMutation appends the record of m to b.
func appendMutation(b []byte, m *taskMutation) []byte {
	b = append(b, recordVersion, byte(m.Op))
	switch m.Op {
	case opSubmit:
		b = appendTask(b, m.Task)
	case opPop:
		b = binary.AppendUvarint(b, uint64(m.ID))
		b = appendTime(b, m.At)
	case opFinish:
		b = binary.AppendUvarint(b, uint64(m.ID))
		b = append(b, byte(m.Status))
		b = appendBool(b, m.Requeued)
		b = appendString(b, m.Result)
		b = appendString(b, m.ErrMsg)
		b = appendTime(b, m.At)
	case opDBClose:
		b = appendTime(b, m.At)
	case opPrune, opRequeue:
		b = binary.AppendUvarint(b, uint64(len(m.IDs)))
		for _, id := range m.IDs {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

// decodeMutation decodes one record written by appendMutation.
func decodeMutation(b []byte) (taskMutation, error) {
	r, err := openRecord(b, "record")
	if err != nil {
		return taskMutation{}, err
	}
	m := taskMutation{Op: mutationOp(r.u8("op"))}
	switch m.Op {
	case opSubmit:
		m.Task = r.task()
	case opPop:
		m.ID = int64(r.uvarint("id"))
		m.At = r.time("at")
	case opFinish:
		m.ID = int64(r.uvarint("id"))
		m.Status = r.status()
		m.Requeued = r.boolByte("requeued")
		m.Result = r.str("result")
		m.ErrMsg = r.str("err")
		m.At = r.time("at")
	case opDBClose:
		m.At = r.time("at")
	case opPrune, opRequeue:
		if n := r.listLen("ids", math.MaxInt); n > 0 {
			m.IDs = make([]int64, n)
			for i := range m.IDs {
				m.IDs[i] = int64(r.uvarint("ids"))
			}
		}
	default:
		if r.err == nil {
			return taskMutation{}, fmt.Errorf("%w: unknown op %d", errBadFrame, m.Op)
		}
	}
	if err := r.end(); err != nil {
		return taskMutation{}, err
	}
	return m, nil
}

// appendSnapshot appends the snapshot s to b.
func appendSnapshot(b []byte, s *dbSnapshot) []byte {
	b = append(b, recordVersion)
	b = binary.AppendVarint(b, s.NextID)
	b = appendBool(b, s.Closed)
	b = appendStats(b, &s.Stats)
	b = binary.AppendUvarint(b, uint64(len(s.Tasks)))
	for _, t := range s.Tasks {
		b = appendTask(b, t)
	}
	return b
}

// decodeSnapshot decodes a snapshot written by appendSnapshot.
func decodeSnapshot(b []byte) (dbSnapshot, error) {
	r, err := openRecord(b, "snapshot")
	if err != nil {
		return dbSnapshot{}, err
	}
	var s dbSnapshot
	s.NextID = r.varint("next_id")
	s.Closed = r.boolByte("closed")
	s.Stats = r.stats()
	if n := r.listLen("tasks", math.MaxInt); n > 0 {
		s.Tasks = make([]*Task, n)
		for i := 0; i < n && r.err == nil; i++ {
			s.Tasks[i] = r.task()
		}
	}
	if err := r.end(); err != nil {
		return dbSnapshot{}, err
	}
	return s, nil
}

// openRecord checks the version byte of a record or snapshot and returns
// a reader over the rest.
func openRecord(b []byte, what string) (*wireReader, error) {
	switch {
	case len(b) == 0:
		return nil, fmt.Errorf("%w: empty %s", errBadFrame, what)
	case b[0] == '{':
		return nil, fmt.Errorf("%w: %s was written in the pre-binary JSON format, which this version does not read", errBadFrame, what)
	case b[0] != recordVersion:
		return nil, fmt.Errorf("%w: %s version %d, want %d", errBadFrame, what, b[0], recordVersion)
	}
	return &wireReader{b: b, off: 1}, nil
}

// end reports the first decode error, or trailing bytes after a whole
// record.
func (r *wireReader) end() error {
	if r.off != len(r.b) {
		r.failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func appendTask(b []byte, t *Task) []byte {
	b = binary.AppendUvarint(b, uint64(t.ID))
	b = appendString(b, t.Type)
	b = binary.AppendVarint(b, int64(t.Priority))
	b = appendString(b, t.Payload)
	b = append(b, byte(t.Status))
	b = appendString(b, t.Result)
	b = appendString(b, t.ErrMsg)
	b = binary.AppendVarint(b, int64(t.Attempts))
	b = binary.AppendVarint(b, int64(t.MaxAttempts))
	b = binary.AppendUvarint(b, uint64(t.Epoch))
	b = appendTime(b, t.Submitted)
	b = appendTime(b, t.Started)
	return appendTime(b, t.Finished)
}

func (r *wireReader) task() *Task {
	t := &Task{}
	t.ID = int64(r.uvarint("task id"))
	t.Type = r.str("task type")
	t.Priority = int(r.varint("task priority"))
	t.Payload = r.str("task payload")
	t.Status = r.status()
	t.Result = r.str("task result")
	t.ErrMsg = r.str("task err")
	t.Attempts = int(r.varint("task attempts"))
	t.MaxAttempts = int(r.varint("task max_attempts"))
	t.Epoch = int64(r.uvarint("task epoch"))
	t.Submitted = r.time("task submitted")
	t.Started = r.time("task started")
	t.Finished = r.time("task finished")
	return t
}

func (r *wireReader) status() TaskStatus {
	s := TaskStatus(r.u8("status"))
	if s > StatusCanceled {
		r.failf("unknown status %d", s)
	}
	return s
}

// appendTime writes a presence byte and, for a non-zero t, its UnixNano
// (the zero time has none).
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	return binary.AppendVarint(append(b, 1), t.UnixNano())
}

func (r *wireReader) time(what string) time.Time {
	if !r.boolByte(what) {
		return time.Time{}
	}
	return time.Unix(0, r.varint(what))
}
