package emews

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recordTimes are non-zero timestamps as a decoded record holds them:
// local, with no monotonic reading.
var recordTimes = [...]time.Time{
	time.Unix(0, 1_760_000_000_123_456_789),
	time.Unix(0, 1_760_000_001_000_000_000),
	time.Unix(0, -42), // before the epoch
}

// recordSeedMutations is one record per op, with every field an op
// carries set. The fuzz target starts from them.
func recordSeedMutations() []taskMutation {
	return []taskMutation{
		{Op: opSubmit, Task: &Task{
			ID: 1 << 40, Type: "sim", Priority: -7, Payload: "\xff\xfe payload",
			Status: StatusFailed, Result: "r", ErrMsg: "\x80 err",
			Attempts: 3, MaxAttempts: 5, Epoch: 9,
			Submitted: recordTimes[0], Finished: recordTimes[2],
		}},
		{Op: opPop, ID: 12, At: recordTimes[1]},
		{Op: opFinish, ID: 12, Status: StatusFailed, ErrMsg: "transient", Requeued: true, At: recordTimes[1]},
		{Op: opFinish, ID: 13, Status: StatusComplete, Result: "\x80 result", At: recordTimes[0]},
		{Op: opDBClose, At: recordTimes[0]},
		{Op: opPrune, IDs: []int64{1, 4, 7, 1 << 50}},
		{Op: opRequeue, IDs: []int64{2, 3}},
	}
}

// Every op round-trips through the record codec, and so does a snapshot;
// malformed and pre-binary input is refused.
func TestRecordCodec(t *testing.T) {
	muts := append(recordSeedMutations(),
		taskMutation{Op: opSubmit, Task: &Task{ID: 2, Type: "m"}}, // zero times, empty strings
		taskMutation{Op: opPop, ID: 2},
		taskMutation{Op: opDBClose},
		taskMutation{Op: opPrune},
		taskMutation{Op: opRequeue},
	)
	for _, m := range muts {
		rec := appendMutation(nil, &m)
		got, err := decodeMutation(rec)
		if err != nil {
			t.Fatalf("op %d: decode: %v", m.Op, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("op %d round trip:\n got %+v\nwant %+v", m.Op, got, m)
		}
		if got.Task != nil && !reflect.DeepEqual(*got.Task, *m.Task) {
			t.Fatalf("submit task round trip:\n got %+v\nwant %+v", *got.Task, *m.Task)
		}
	}

	snap := dbSnapshot{
		NextID: -2, Closed: true,
		Stats: Stats{Queued: 1, Running: 1, Complete: 1, Submitted: 3},
		Tasks: []*Task{
			{ID: 1, Type: "sim", Priority: 2, Payload: "\xff", MaxAttempts: 1, Submitted: recordTimes[0]},
			{ID: 4, Type: "sim", Payload: "q", Status: StatusRunning, Attempts: 1, MaxAttempts: 2, Epoch: 1,
				Submitted: recordTimes[0], Started: recordTimes[1]},
			{ID: 7, Type: "fit", Payload: "r", Status: StatusComplete, Result: "\x80", Attempts: 1, MaxAttempts: 1, Epoch: 1,
				Submitted: recordTimes[0], Started: recordTimes[1], Finished: recordTimes[1]},
		},
	}
	b := appendSnapshot(nil, &snap)
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, snap)
	}

	pop := appendMutation(nil, &taskMutation{Op: opPop, ID: 300, At: recordTimes[0]})
	prune := appendMutation(nil, &taskMutation{Op: opPrune, IDs: []int64{1, 2}})
	for _, bad := range []struct {
		name string
		rec  []byte
	}{
		{"empty", nil},
		{"json-era", []byte(`{"op":"submit","task":{"ID":1,"Type":"sim","Payload":"p"}}`)},
		{"unknown version", append([]byte{recordVersion + 1}, pop[1:]...)},
		{"unknown op", []byte{recordVersion, byte(opRequeue) + 1, 0}},
		{"op 0", []byte{recordVersion, 0}},
		{"truncated", pop[:len(pop)-1]},
		{"trailing bytes", append(append([]byte{}, pop...), 0)},
		{"list longer than the record", []byte{recordVersion, byte(opPrune), 0xff, 0xff, 0x03, 1}},
		{"truncated list", prune[:len(prune)-1]},
		{"non-minimal varint", []byte{recordVersion, byte(opPop), 0x81, 0x00, 0}},
		{"flag 2", []byte{recordVersion, byte(opDBClose), 2}},
		{"unknown status", []byte{recordVersion, byte(opFinish), 1, byte(StatusCanceled) + 1, 0, 0, 0, 0}},
	} {
		if m, err := decodeMutation(bad.rec); err == nil {
			t.Errorf("%s: accepted as %+v", bad.name, m)
		} else if !errors.Is(err, errBadFrame) {
			t.Errorf("%s: error %v does not wrap errBadFrame", bad.name, err)
		}
	}
	if _, err := decodeSnapshot([]byte(`{"next_id":0,"closed":false,"tasks":null}` + "\n")); err == nil {
		t.Error("accepted a JSON-era snapshot")
	}
	if _, err := decodeSnapshot(b[:len(b)-1]); err == nil {
		t.Error("accepted a truncated snapshot")
	}
	if _, err := decodeMutation([]byte(`{"op":"pop","id":3}`)); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("JSON-era record error %v does not name the old format", err)
	}
}

// The record decoders never panic, and whatever they accept re-encodes to
// the same bytes.
func FuzzDecodeMutation(f *testing.F) {
	for _, m := range recordSeedMutations() {
		f.Add(appendMutation(nil, &m))
	}
	f.Add(appendSnapshot(nil, &dbSnapshot{NextID: 4, Stats: Stats{Queued: 1, Submitted: 1},
		Tasks: []*Task{{ID: 1, Type: "sim", Payload: "p", Submitted: recordTimes[0]}}}))
	f.Add([]byte(`{"op":"close"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeMutation(data); err == nil {
			if got := appendMutation(nil, &m); !bytes.Equal(got, data) {
				t.Fatalf("record re-encodes differently:\n got %x\nwant %x", got, data)
			}
		}
		if s, err := decodeSnapshot(data); err == nil {
			if got := appendSnapshot(nil, &s); !bytes.Equal(got, data) {
				t.Fatalf("snapshot re-encodes differently:\n got %x\nwant %x", got, data)
			}
		}
	})
}
