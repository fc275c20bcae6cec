package emews

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"osprey/internal/obs"
	"osprey/internal/wal"
)

// walCounters reads a log's appends and fsyncs counters.
func walCounters(name string) (appends, fsyncs int64) {
	return obs.GetCounter(name + ".appends").Value(), obs.GetCounter(name + ".fsyncs").Value()
}

func payloads(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// resolve builds one complete (or fail) op per claim.
func resolve(cs []*Claim, failed bool) []resolution {
	ops := make([]resolution, len(cs))
	for i, c := range cs {
		ops[i] = resolution{ID: c.Task.ID, Epoch: c.Task.Epoch, Status: StatusComplete, Result: "r"}
		if failed {
			ops[i].Status, ops[i].Result, ops[i].ErrMsg = StatusFailed, "", "boom"
		}
	}
	return ops
}

// Every batch op of a WAL-backed database is one commit: all of its
// records in one Append, so one fsync under the daemon's fsync-always.
func TestBatchOpsAreOneCommit(t *testing.T) {
	name := "wal.test.batchcommit"
	l, err := wal.Open(t.TempDir(), wal.Options{Name: name, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	step := func(what string, op func()) {
		t.Helper()
		a0, f0 := walCounters(name)
		op()
		a1, f1 := walCounters(name)
		if a1-a0 != 16 || f1-f0 != 1 {
			t.Fatalf("%s: %d appends, %d fsyncs; want 16 records in 1 fsync", what, a1-a0, f1-f0)
		}
	}
	step("SubmitBatch", func() {
		if _, err := db.SubmitBatch("m", 0, payloads("p", 16)); err != nil {
			t.Fatal(err)
		}
	})
	var cs []*Claim
	step("PopBatch", func() {
		if cs, err = db.PopBatch(context.Background(), "m", 16); err != nil || len(cs) != 16 {
			t.Fatalf("PopBatch = %d claims, %v", len(cs), err)
		}
	})
	step("finishBatch", func() {
		ops := resolve(cs, false)
		db.finishBatch(ops)
		for _, op := range ops {
			if op.Err != nil {
				t.Fatal(op.Err)
			}
		}
	})
	if st := db.Stats(); st.Complete != 16 {
		t.Fatalf("stats = %+v, want 16 complete", st)
	}
	statsBalanced(t, db)
}

// A persistence fault fails a whole batch op and leaves memory untouched:
// no task of a failed SubmitBatch exists, and a failed PopBatch leaves
// every task queued and poppable.
func TestBatchOpsAllOrNoneOnAppendFailure(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{Name: "wal.test.batchfail", Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SubmitBatch("m", 0, payloads("p", 4)); err != nil {
		t.Fatal(err)
	}
	l.Close() // every later Append fails with wal.ErrClosed
	if _, err := db.SubmitBatch("m", 0, payloads("q", 4)); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("SubmitBatch on a closed log = %v, want ErrClosed", err)
	}
	if _, err := db.PopBatch(context.Background(), "m", 16); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("PopBatch on a closed log = %v, want ErrClosed", err)
	}
	if st := db.Stats(); st.Submitted != 4 || st.Queued != 4 || st.Running != 0 {
		t.Fatalf("stats after failed batches = %+v, want 4 submitted, 4 queued", st)
	}
	if q := db.queues["m"]; q.Len() != 4 {
		t.Fatalf("heap holds %d entries after a failed PopBatch, want 4", q.Len())
	}
}

// Lazy deletion after a replay leaves a task in its heap twice (the
// replayed pop keeps the submit's entry, the recovery requeue pushes a
// second). Claims apply only after the batch commits, so PopBatch must
// still claim each task at most once.
func TestPopBatchSkipsDuplicateHeapEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "emews")
	db := openDBAt(t, dir)
	if _, err := db.SubmitBatch("m", 0, payloads("p", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SubmitBatch("m", 1, payloads("hi", 2)); err != nil {
		t.Fatal(err)
	}
	if cs, err := db.PopBatch(context.Background(), "m", 16); err != nil || len(cs) != 5 {
		t.Fatalf("PopBatch = %d claims, %v", len(cs), err)
	}
	db.wal.Close() // crash with every task running

	db2 := openDBAt(t, dir)
	if q := db2.queues["m"]; q.Len() != 10 {
		t.Fatalf("recovered heap holds %d entries, want 10 (each task twice)", q.Len())
	}
	cs, err := db2.PopBatch(context.Background(), "m", 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, c := range cs {
		if seen[c.Task.ID] {
			t.Fatalf("PopBatch claimed task %d twice", c.Task.ID)
		}
		seen[c.Task.ID] = true
	}
	if len(cs) != 5 {
		t.Fatalf("PopBatch = %d claims, want 5", len(cs))
	}
	ops := resolve(cs, false)
	db2.finishBatch(ops)
	for _, op := range ops {
		if op.Err != nil {
			t.Fatal(op.Err)
		}
	}
	statsBalanced(t, db2)
	db2.wal.Close()
	audit, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Ok() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}

// A finish_batch naming one task twice: the repeat sees the first
// resolution, so the same status is acknowledged as a duplicate and a
// conflicting one is rejected as stale. Over the wire as well.
func TestFinishBatchRepeatedTask(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "emews")
	db := openDBAt(t, dir)
	if _, err := db.SubmitBatch("m", 0, payloads("p", 3)); err != nil {
		t.Fatal(err)
	}
	cs, err := db.PopBatch(context.Background(), "m", 3)
	if err != nil || len(cs) != 3 {
		t.Fatalf("PopBatch = %d claims, %v", len(cs), err)
	}
	a, b := resolve(cs[:1], false)[0], resolve(cs[1:2], false)[0]
	bFail := resolve(cs[1:2], true)[0]
	ops := []resolution{a, a, b, bFail}
	db.finishBatch(ops)
	if ops[0].Err != nil || ops[1].Err != nil {
		t.Fatalf("duplicate complete: %v, %v; want both acknowledged", ops[0].Err, ops[1].Err)
	}
	if ops[2].Err != nil || !errors.Is(ops[3].Err, ErrStaleClaim) {
		t.Fatalf("complete then fail: %v, %v; want nil, ErrStaleClaim", ops[2].Err, ops[3].Err)
	}
	if tk, _ := db.Get(cs[1].Task.ID); tk.Status != StatusComplete {
		t.Fatalf("task %d is %v, want complete", tk.ID, tk.Status)
	}

	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	last := cs[2].Task
	errs, err := c.FinishBatch([]FinishOp{
		{TaskID: last.ID, Epoch: last.Epoch, Result: "r"},
		{TaskID: last.ID, Epoch: last.Epoch, Result: "r"},
		{TaskID: last.ID, Epoch: last.Epoch, Failed: true, ErrMsg: "late"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrStaleClaim) {
		t.Fatalf("wire finish_batch outcomes = %v; want nil, nil, ErrStaleClaim", errs)
	}
	if st := db.Stats(); st.Complete != 3 || st.Running != 0 {
		t.Fatalf("stats = %+v, want 3 complete", st)
	}
	statsBalanced(t, db)
	srv.Close()
	db.wal.Close()
	audit, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Ok() || audit.Finishes != 3 {
		t.Fatalf("audit = %+v, want 3 finishes and no violations", audit)
	}
}

// Kill points over batched commits: the log of a history of batch ops is
// cut at every record boundary and inside every record. Each cut recovers
// (replay, then the requeue of running tasks) to a balanced ledger,
// drains cleanly, and audits clean.
func TestBatchCommitKillPoints(t *testing.T) {
	src := filepath.Join(t.TempDir(), "emews")
	db := openDBAt(t, src)
	ctx := context.Background()
	must := func(ops []resolution) {
		t.Helper()
		db.finishBatch(ops)
		for _, op := range ops {
			if op.Err != nil {
				t.Fatal(op.Err)
			}
		}
	}
	if _, err := db.SubmitBatchRetry("m", 0, payloads("a", 6), 2); err != nil {
		t.Fatal(err)
	}
	cs, err := db.PopBatch(ctx, "m", 4)
	if err != nil {
		t.Fatal(err)
	}
	must(resolve(cs[:2], false))
	must(resolve(cs[2:], true)) // requeued: budget left
	if _, err := db.SubmitBatch("m", 1, payloads("b", 3)); err != nil {
		t.Fatal(err)
	}
	cs, err = db.PopBatch(ctx, "m", 16)
	if err != nil || len(cs) != 7 {
		t.Fatalf("PopBatch = %d claims, %v", len(cs), err)
	}
	must(resolve(cs[:5], false))
	db.wal.Close() // crash with two tasks running

	seg := filepath.Join(src, "seg-00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for off := 0; off < len(data); {
		_, n, err := wal.ParseRecord(data[off:], 0)
		if err != nil {
			t.Fatalf("parse at %d: %v", off, err)
		}
		cuts = append(cuts, off, off+1, off+n/2)
		off += n
	}
	cuts = append(cuts, len(data))

	for _, cut := range cuts {
		dir := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(dir, wal.Options{Name: "wal.test.killpoint", Policy: wal.SyncNever, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		rdb, err := OpenDB(l)
		if err != nil {
			t.Fatalf("cut %d: OpenDB: %v", cut, err)
		}
		if st := rdb.Stats(); st.Running != 0 {
			t.Fatalf("cut %d: %d tasks running after recovery", cut, st.Running)
		}
		statsBalanced(t, rdb)
		// Drain what recovery requeued; every task ends terminal.
		for {
			cs, ok, err := rdb.TryPop("m")
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if !ok {
				break
			}
			if err := cs.Complete("late"); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		st := rdb.Stats()
		if st.Queued != 0 || st.Running != 0 || st.Complete+st.Failed != st.Submitted {
			t.Fatalf("cut %d: drained stats %+v do not balance", cut, st)
		}
		l.Close()
		audit, err := AuditWAL(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !audit.Ok() {
			t.Fatalf("cut %d: audit violations %v", cut, audit.Violations)
		}
	}
}

// A follower applies each shipped chunk as one commit: a history shipped
// in one chunk costs the follower one fsync, and its Records ends equal
// to the primary's appends.
func TestFollowerAppliesChunkAsOneCommit(t *testing.T) {
	base := t.TempDir()
	pname, fname := "wal.test.chunkprimary", "wal.test.chunkfollower"
	l, err := wal.Open(filepath.Join(base, "primary"), wal.Options{Name: pname, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0", WithReplicationSource(l))
	if err != nil {
		t.Fatal(err)
	}
	pa0, _ := walCounters(pname)
	for i := 0; i < 4; i++ {
		if _, err := db.SubmitBatch("m", 0, payloads("p", 16)); err != nil {
			t.Fatal(err)
		}
		cs, err := db.PopBatch(context.Background(), "m", 16)
		if err != nil {
			t.Fatal(err)
		}
		db.finishBatch(resolve(cs, i%2 == 1))
	}
	pa1, _ := walCounters(pname)
	primaryRecords := pa1 - pa0

	fa0, ff0 := walCounters(fname)
	f, err := StartFollower(srv.Addr(), filepath.Join(base, "follower"), FollowerOptions{
		PollInterval: 5 * time.Millisecond,
		WAL:          wal.Options{Name: fname, Policy: wal.SyncAlways},
		ClientOpts:   []ClientOption{WithOpTimeout(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().Records != primaryRecords {
		if time.Now().After(deadline) {
			t.Fatalf("follower records = %d, want %d", f.Status().Records, primaryRecords)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fa1, ff1 := walCounters(fname)
	if fa1-fa0 != primaryRecords || ff1-ff0 != 1 {
		t.Fatalf("follower log: %d appends, %d fsyncs; want %d records in 1 fsync", fa1-fa0, ff1-ff0, primaryRecords)
	}
	if string(dumpBytes(t, f.dump())) != string(dumpBytes(t, db.Dump())) {
		t.Fatal("follower state differs from the primary's")
	}
	srv.Close()
	db.Close()
	l.Close()
}

// A lost connection's claims are failed in one commit: a worker that
// leased 16 tasks over one pop_batch and then vanished costs one fsync,
// and every task is requeued.
func TestLostConnectionClaimsAreOneCommit(t *testing.T) {
	name := "wal.test.lostclaims"
	l, err := wal.Open(t.TempDir(), wal.Options{Name: name, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := db.SubmitBatchRetry("m", 0, payloads("p", 16), 2); err != nil {
		t.Fatal(err)
	}

	conn, r := rawConn(t, srv.Addr())
	frame, err := appendRequestFrame(nil, 1, &wireRequest{Op: opcPopBatch, Type: "m", Max: 16, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	code, _, payload, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponsePayload(code, payload)
	putWireBuf(payload)
	if err != nil || len(resp.Tasks) != 16 {
		t.Fatalf("pop_batch leased %d tasks, %v", len(resp.Tasks), err)
	}

	_, f0 := walCounters(name)
	lost := mNetLostClaims.Value()
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for mNetLostClaims.Value()-lost < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 16 claims failed after the connection closed", mNetLostClaims.Value()-lost)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, f1 := walCounters(name); f1-f0 != 1 {
		t.Fatalf("lost claims cost %d fsyncs, want 1", f1-f0)
	}
	if st := db.Stats(); st.Queued != 16 || st.Running != 0 {
		t.Fatalf("stats after connection loss = %+v, want 16 requeued", st)
	}
	statsBalanced(t, db)
}
