package emews

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"osprey/internal/wal"
)

func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Name: "wal.test." + t.Name(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// A clean lifecycle — submit, pop, fail+requeue, re-pop, complete, prune —
// must audit with zero violations and matching op counts.
func TestAuditWALCleanHistory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "emews")
	l := openTestWAL(t, dir)
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := db.SubmitRetry("m", 0, "x", 2); err != nil {
		t.Fatal(err)
	}
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Fail("first attempt fails"); err != nil {
		t.Fatal(err)
	}
	claim2, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim2.Complete("done"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("m", 0, "y"); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Prune(0); err != nil || n != 1 {
		t.Fatalf("Prune = %d, %v", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	audit, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Ok() {
		t.Fatalf("violations in clean history: %v", audit.Violations)
	}
	if audit.Submits != 2 || audit.Pops != 2 || audit.Finishes != 1 || audit.Requeues != 1 || audit.Prunes != 1 {
		t.Fatalf("unexpected op counts: %+v", audit)
	}
}

// Crash recovery (requeue of orphaned Running tasks) is part of the legal
// history: OpenDB on a log with a Running task commits an opRequeue, and
// the audit must accept it.
func TestAuditWALAcceptsCrashRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "emews")
	l := openTestWAL(t, dir)
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("m", 0, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Pop(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the DB, close only the log.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestWAL(t, dir)
	db2, err := OpenDB(l2)
	if err != nil {
		t.Fatal(err)
	}
	claim, err := db2.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 3: first pop (1), recovery requeue fence bump (2), re-pop (3).
	if claim.Task.Epoch != 3 {
		t.Fatalf("post-recovery epoch = %d, want 3", claim.Task.Epoch)
	}
	if err := claim.Complete("after crash"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	audit, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Ok() {
		t.Fatalf("violations after crash recovery: %v", audit.Violations)
	}
	if audit.Requeues != 1 || audit.Finishes != 1 {
		t.Fatalf("unexpected op counts: %+v", audit)
	}
}

// A corrupted history — a hand-forged double finish — must be flagged.
func TestAuditWALFlagsDoubleFinish(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "emews")
	l := openTestWAL(t, dir)
	db, err := OpenDB(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("m", 0, "x"); err != nil {
		t.Fatal(err)
	}
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete("first"); err != nil {
		t.Fatal(err)
	}
	// Forge a second terminal finish for the same task, bypassing the
	// fence (the live path would reject it).
	rec := appendMutation(nil, &taskMutation{
		Op: opFinish, ID: claim.Task.ID, Status: StatusFailed, ErrMsg: "forged", At: time.Now(),
	})
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	audit, err := AuditWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Ok() {
		t.Fatal("forged double finish not flagged")
	}
}

// Dump returns ID-sorted task copies covering every state.
func TestDump(t *testing.T) {
	db := NewDB()
	defer db.Close()
	if _, err := db.Submit("m", 0, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("m", 5, "b"); err != nil {
		t.Fatal(err)
	}
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete("done"); err != nil {
		t.Fatal(err)
	}
	tasks := db.Dump()
	if len(tasks) != 2 {
		t.Fatalf("Dump returned %d tasks, want 2", len(tasks))
	}
	if tasks[0].ID != 1 || tasks[1].ID != 2 {
		t.Fatalf("Dump not ID-sorted: %v %v", tasks[0].ID, tasks[1].ID)
	}
	if tasks[1].Status != StatusComplete || tasks[1].Result != "done" {
		t.Fatalf("task 2 = %+v, want complete/done", tasks[1])
	}
	if tasks[0].Status != StatusQueued {
		t.Fatalf("task 1 = %v, want queued", tasks[0].Status)
	}
}
