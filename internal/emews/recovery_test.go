package emews

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"osprey/internal/wal"
)

func openDBAt(t *testing.T, dir string) *DB {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Name: "wal.emewstest", Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	db, err := OpenDB(l)
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	return db
}

func TestDBCrashRecoveryRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)

	fA, err := db.Submit("sim", 5, "params-A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("sim", 1, "params-B"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SubmitRetry("sim", 0, "params-C", 3); err != nil {
		t.Fatal(err)
	}

	// A completes; B is mid-flight when the process dies; C never started.
	cA, err := db.Pop(context.Background(), "sim")
	if err != nil || cA.Task.Payload != "params-A" {
		t.Fatalf("pop A: %v %+v", err, cA)
	}
	if err := cA.Complete("result-A"); err != nil {
		t.Fatal(err)
	}
	cB, err := db.Pop(context.Background(), "sim")
	if err != nil || cB.Task.Payload != "params-B" {
		t.Fatalf("pop B: %v %+v", err, cB)
	}
	// Crash: close only the log, never db.Close.
	if err := db.wal.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDBAt(t, dir)
	st := db2.Stats()
	if st.Queued != 2 || st.Running != 0 || st.Complete != 1 || st.Submitted != 3 {
		t.Fatalf("recovered stats = %+v, want Queued 2 Running 0 Complete 1 Submitted 3", st)
	}
	// A's result and settled future survive.
	tA, err := db2.Get(fA.TaskID)
	if err != nil || tA.Status != StatusComplete || tA.Result != "result-A" {
		t.Fatalf("task A = %+v, %v", tA, err)
	}
	fA2 := db2.futures[fA.TaskID]
	res, err := fA2.Result(context.Background())
	if err != nil || res != "result-A" {
		t.Fatalf("future A result = %q, %v", res, err)
	}
	// B was Running at crash time: it is queued again with a bumped epoch,
	// so the dead worker's claim can never resolve it.
	tB, err := db2.Get(cB.Task.ID)
	if err != nil || tB.Status != StatusQueued {
		t.Fatalf("task B = %+v, %v; want queued", tB, err)
	}
	if tB.Epoch <= cB.Task.Epoch {
		t.Fatalf("task B epoch %d not bumped past crashed claim %d", tB.Epoch, cB.Task.Epoch)
	}
	if _, err := db2.finish(cB.Task.ID, cB.Task.Epoch, StatusComplete, "zombie", ""); err == nil {
		t.Fatal("crashed claim resolved after recovery, want ErrStaleClaim")
	}
	// Priority order survives the requeue: B (prio 1) pops before C (0).
	c, err := db2.Pop(context.Background(), "sim")
	if err != nil || c.Task.ID != cB.Task.ID {
		t.Fatalf("post-recovery pop = %+v, %v; want task B", c, err)
	}
	if err := c.Complete("result-B"); err != nil {
		t.Fatal(err)
	}
	// The ID counter continues: no task ID reuse.
	fD, err := db2.Submit("sim", 0, "params-D")
	if err != nil {
		t.Fatal(err)
	}
	if fD.TaskID != 4 {
		t.Fatalf("post-recovery task ID = %d, want 4", fD.TaskID)
	}
	db2.wal.Close()

	// A second crash replays the requeue mutation and the new work.
	db3 := openDBAt(t, dir)
	defer db3.wal.Close()
	st = db3.Stats()
	if st.Queued != 2 || st.Running != 0 || st.Complete != 2 || st.Submitted != 4 {
		t.Fatalf("second recovery stats = %+v", st)
	}
}

func TestDBCloseIsDurable(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	f, err := db.Submit("sim", 0, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	select {
	case <-f.Done():
	case <-time.After(time.Second):
		t.Fatal("close did not settle the queued future")
	}
	db.wal.Close()

	// The logged close replays: the canceled task stays canceled, but the
	// reopened database accepts new work.
	db2 := openDBAt(t, dir)
	defer db2.wal.Close()
	tt, err := db2.Get(f.TaskID)
	if err != nil || tt.Status != StatusCanceled {
		t.Fatalf("task after close+recover = %+v, %v; want canceled", tt, err)
	}
	if _, err := db2.Submit("sim", 0, "fresh"); err != nil {
		t.Fatalf("reopened DB rejected submit: %v", err)
	}
}

func TestDBPruneDurable(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	f, err := db.Submit("sim", 0, "old")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("sim", 0, "still-queued"); err != nil {
		t.Fatal(err)
	}
	c, err := db.Pop(context.Background(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("done"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Prune(0)
	if err != nil || n != 1 {
		t.Fatalf("Prune = %d, %v; want 1", n, err)
	}
	if _, err := db.Get(f.TaskID); err == nil {
		t.Fatal("pruned task still readable")
	}
	st := db.Stats()
	if st.Queued != 1 || st.Complete != 1 {
		t.Fatalf("stats after prune = %+v (Complete stays cumulative)", st)
	}
	// Nothing terminal left: prune is a no-op, and queued tasks survive.
	if n, err := db.Prune(0); err != nil || n != 0 {
		t.Fatalf("second Prune = %d, %v; want 0", n, err)
	}
	db.wal.Close()

	db2 := openDBAt(t, dir)
	defer db2.wal.Close()
	if _, err := db2.Get(f.TaskID); err == nil {
		t.Fatal("pruned task resurrected by recovery")
	}
	if st := db2.Stats(); st.Queued != 1 {
		t.Fatalf("recovered stats = %+v, want Queued 1", st)
	}
}

func TestDBTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	if _, err := db.Submit("sim", 0, "committed"); err != nil {
		t.Fatal(err)
	}
	// The torn mutation must vanish on recovery.
	if _, err := db.Submit("sim", 0, "torn"); err != nil {
		t.Fatal(err)
	}
	db.wal.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := openDBAt(t, dir)
	defer db2.wal.Close()
	stats := db2.Stats()
	if stats.Submitted != 1 || stats.Queued != 1 {
		t.Fatalf("torn-tail stats = %+v, want 1 submitted/queued", stats)
	}
	if _, err := db2.Get(1); err != nil {
		t.Fatalf("committed task lost: %v", err)
	}
	if _, err := db2.Get(2); err == nil {
		t.Fatal("torn task survived recovery")
	}
	// The counter reuses the torn ID — its mutation never committed.
	f, err := db2.Submit("sim", 0, "replacement")
	if err != nil {
		t.Fatal(err)
	}
	if f.TaskID != 2 {
		t.Fatalf("post-torn task ID = %d, want 2", f.TaskID)
	}
}

func TestDBCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := db.Submit("sim", i, "p"); err != nil {
			t.Fatal(err)
		}
	}
	c, err := db.Pop(context.Background(), "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("r"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := db.Submit("sim", 9, "post-snap"); err != nil {
		t.Fatal(err)
	}
	want := db.Stats()
	db.wal.Close()

	db2 := openDBAt(t, dir)
	defer db2.wal.Close()
	if got := db2.Stats(); got != want {
		t.Fatalf("recovered stats = %+v, want %+v", got, want)
	}
	// Highest priority queued pops first across snapshot + replayed tasks.
	c2, err := db2.Pop(context.Background(), "sim")
	if err != nil || c2.Task.Payload != "post-snap" {
		t.Fatalf("pop after compaction recovery = %+v, %v", c2, err)
	}
}

// Task bytes are opaque: a payload, result or error message that is not
// valid UTF-8 reads back byte for byte after replay and after a
// compaction snapshot, as the live database returned it.
func TestDBRecoveryKeepsRawBytes(t *testing.T) {
	const (
		payload = "\xff\xfe payload"
		result  = "\x80 result"
		errMsg  = "\xc3\x28 error"
	)
	dir := t.TempDir()
	db := openDBAt(t, dir)
	fOK, err := db.Submit("sim", 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	fBad, err := db.Submit("sim", 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, resolve := range []func(*Claim) error{
		func(c *Claim) error { return c.Complete(result) },
		func(c *Claim) error { return c.Fail(errMsg) },
	} {
		c, err := db.Pop(context.Background(), "sim")
		if err != nil {
			t.Fatal(err)
		}
		if c.Task.Payload != payload {
			t.Fatalf("live payload = %q, want %q", c.Task.Payload, payload)
		}
		if err := resolve(c); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, db *DB) {
		t.Helper()
		ok, err := db.Get(fOK.TaskID)
		if err != nil || ok.Payload != payload || ok.Result != result {
			t.Fatalf("%s: completed task = payload %q result %q (%v), want %q %q", stage, ok.Payload, ok.Result, err, payload, result)
		}
		bad, err := db.Get(fBad.TaskID)
		if err != nil || bad.Payload != payload || bad.ErrMsg != errMsg {
			t.Fatalf("%s: failed task = payload %q err %q (%v), want %q %q", stage, bad.Payload, bad.ErrMsg, err, payload, errMsg)
		}
	}
	check("live", db)
	db.wal.Close() // crash: close only the log

	db2 := openDBAt(t, dir)
	check("replay", db2)
	if err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	db2.wal.Close()

	db3 := openDBAt(t, dir)
	defer db3.wal.Close()
	check("snapshot", db3)
}
