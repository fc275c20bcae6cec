package emews

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A remote pool drains a lone server, and every member of a 2-shard
// group through its pop fan-out.
func TestRemotePoolProcessesTasks(t *testing.T) {
	t.Run("one_address", func(t *testing.T) { testRemotePoolProcessesTasks(t, 1) })
	t.Run("2-shard_group", func(t *testing.T) { testRemotePoolProcessesTasks(t, 2) })
}

func testRemotePoolProcessesTasks(t *testing.T, shards int) {
	var dbs []*DB
	var addrs []string
	for i := 0; i < shards; i++ {
		db, err := NewDBShard(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, err := Serve(db, "127.0.0.1:0", WithShardIdentity(i, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dbs, addrs = append(dbs, db), append(addrs, srv.Addr())
	}

	pool, err := StartRemotePool(addrs, "m", 3, 1, func(ctx context.Context, payload string) (string, error) {
		return "R:" + payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	var futures []*Future
	for i := 0; i < 12; i++ {
		f, err := dbs[i%shards].Submit("m", 0, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	for i, f := range futures {
		res, err := f.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res != fmt.Sprintf("R:t%d", i) {
			t.Fatalf("task %d = %q", i, res)
		}
	}
	// The future resolves when the server applies the completion; the
	// worker bumps its counter only after it sees the response, so allow
	// a moment for the counters to catch up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		processed, failed := pool.Stats()
		if processed == 12 && failed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool stats %d/%d", processed, failed)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemotePoolHandlerErrors(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, _ := Serve(db, "127.0.0.1:0")
	defer srv.Close()
	pool, err := StartRemotePool([]string{srv.Addr()}, "m", 1, 1, func(ctx context.Context, payload string) (string, error) {
		return "", fmt.Errorf("remote boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	f, _ := db.Submit("m", 0, "x")
	if _, err := f.Result(context.Background()); err == nil || !strings.Contains(err.Error(), "remote boom") {
		t.Fatalf("remote failure not propagated: %v", err)
	}
}

// The constructor contract under the pool: Dial connects eagerly, so an
// address with no listener fails at Dial (and at StartRemotePool);
// DialShardGroup connects lazily, so a group with a dead member builds
// (and a pool on it starts), and its first op that routes to the dead
// member fails with ErrTransport while the live member serves.
func TestRemotePoolRejectsBadAddr(t *testing.T) {
	const dead = "127.0.0.1:1"
	if _, err := Dial(dead, WithRetries(0)); !errors.Is(err, ErrTransport) {
		t.Fatalf("Dial to no listener = %v, want ErrTransport", err)
	}
	if _, err := StartRemotePool([]string{dead}, "m", 1, 1, func(ctx context.Context, p string) (string, error) {
		return "", nil
	}); err == nil {
		t.Fatal("unreachable server accepted")
	}
	db := NewDB()
	defer db.Close()
	srv, _ := Serve(db, "127.0.0.1:0")
	defer srv.Close()

	sc, err := DialShardGroup([]string{srv.Addr(), dead}, WithRetries(0))
	if err != nil {
		t.Fatalf("group with a dead member refused at build: %v", err)
	}
	defer sc.Close()
	f, err := db.Submit("m", 0, "x") // task 1: strides to shard 0
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := sc.Result(f.TaskID); err != nil || done {
		t.Fatalf("op on the live member = done=%v err=%v, want pending", done, err)
	}
	if _, _, err := sc.Result(f.TaskID + 1); !errors.Is(err, ErrTransport) {
		t.Fatalf("first op on the dead member = %v, want ErrTransport", err)
	}
	pool, err := StartRemotePool([]string{srv.Addr(), dead}, "m", 1, 1, func(ctx context.Context, p string) (string, error) {
		return "ok", nil
	})
	if err != nil {
		t.Fatalf("pool on a group with a dead member refused: %v", err)
	}
	if res, err := f.Result(context.Background()); err != nil || res != "ok" {
		t.Fatalf("pool on a group with a dead member = %q, %v", res, err)
	}
	pool.Stop()

	if _, err := StartRemotePool([]string{srv.Addr()}, "m", 0, 1, func(ctx context.Context, p string) (string, error) {
		return "", nil
	}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := StartRemotePool([]string{srv.Addr()}, "m", 1, 1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestRemotePoolStopsCleanly(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, _ := Serve(db, "127.0.0.1:0")
	defer srv.Close()
	pool, err := StartRemotePool([]string{srv.Addr()}, "m", 2, 1, func(ctx context.Context, p string) (string, error) {
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		pool.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestSubmitRetryRequeuesOnFailure(t *testing.T) {
	db := NewDB()
	defer db.Close()
	f, err := db.SubmitRetry("m", 0, "flaky", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two failures, then success on the third attempt.
	for attempt := 1; attempt <= 2; attempt++ {
		claim, err := db.Pop(context.Background(), "m")
		if err != nil {
			t.Fatal(err)
		}
		if claim.Task.Attempts != attempt {
			t.Fatalf("attempt %d recorded as %d", attempt, claim.Task.Attempts)
		}
		if err := claim.Fail("transient"); err != nil {
			t.Fatal(err)
		}
		if _, _, done := f.TryResult(); done {
			t.Fatalf("future terminated after failed attempt %d with retries left", attempt)
		}
	}
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete("finally"); err != nil {
		t.Fatal(err)
	}
	res, err := f.Result(context.Background())
	if err != nil || res != "finally" {
		t.Fatalf("retried task result = %q, %v", res, err)
	}
}

func TestSubmitRetryExhaustsBudget(t *testing.T) {
	db := NewDB()
	defer db.Close()
	f, _ := db.SubmitRetry("m", 0, "doomed", 2)
	for attempt := 0; attempt < 2; attempt++ {
		claim, err := db.Pop(context.Background(), "m")
		if err != nil {
			t.Fatal(err)
		}
		claim.Fail("permanent")
	}
	if _, err := f.Result(context.Background()); err == nil || !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("exhausted retries should fail the future: %v", err)
	}
	st := db.Stats()
	if st.Failed != 1 {
		t.Fatalf("stats count %d failed, want 1 (retries are not separate tasks)", st.Failed)
	}
}

func TestRetryThroughLocalPool(t *testing.T) {
	db := NewDB()
	defer db.Close()
	var calls atomic.Int32
	pool, _ := StartLocalPool(db, "m", 1, func(ctx context.Context, payload string) (string, error) {
		if calls.Add(1) < 3 {
			return "", fmt.Errorf("flaky worker")
		}
		return "ok", nil
	})
	defer pool.Stop()
	f, _ := db.SubmitRetry("m", 0, "x", 5)
	res, err := f.Result(context.Background())
	if err != nil || res != "ok" {
		t.Fatalf("retry through pool = %q, %v", res, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("handler ran %d times, want 3", calls.Load())
	}
}

func TestLeaseReapRequeuesLostTask(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.SetLeaseTimeout(20 * time.Millisecond)
	f, err := db.SubmitRetry("m", 0, "x", 2)
	if err != nil {
		t.Fatal(err)
	}
	// A "worker" pops the task and crashes (never resolves the claim).
	if _, err := db.Pop(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if req, failed := db.ReapExpired(); req != 1 || failed != 0 {
		t.Fatalf("reap = (%d requeued, %d failed), want (1, 0)", req, failed)
	}
	// The task is queued again and a healthy worker finishes it.
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if claim.Task.Attempts != 2 {
		t.Fatalf("attempts = %d after reclaim, want 2", claim.Task.Attempts)
	}
	if err := claim.Complete("recovered"); err != nil {
		t.Fatal(err)
	}
	res, err := f.Result(context.Background())
	if err != nil || res != "recovered" {
		t.Fatalf("recovered result = %q, %v", res, err)
	}
}

func TestLeaseReapFailsExhaustedTask(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.SetLeaseTimeout(10 * time.Millisecond)
	f, _ := db.Submit("m", 0, "x") // MaxAttempts = 1
	db.Pop(context.Background(), "m")
	time.Sleep(25 * time.Millisecond)
	if req, failed := db.ReapExpired(); req != 0 || failed != 1 {
		t.Fatalf("reap = (%d requeued, %d failed), want (0, 1)", req, failed)
	}
	if _, err := f.Result(context.Background()); err == nil || !strings.Contains(err.Error(), "lease expired") {
		t.Fatalf("exhausted lost task should fail: %v", err)
	}
}

func TestReapNoopWithoutLeases(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.Submit("m", 0, "x")
	db.Pop(context.Background(), "m")
	if req, failed := db.ReapExpired(); req != 0 || failed != 0 {
		t.Fatalf("reap without lease timeout reclaimed (%d, %d)", req, failed)
	}
}

func TestStartReaperBackground(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.SetLeaseTimeout(15 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db.StartReaper(ctx, 10*time.Millisecond)
	f, _ := db.SubmitRetry("m", 0, "x", 2)
	db.Pop(context.Background(), "m") // lost worker
	// The background reaper must requeue it without manual intervention.
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	claim.Complete("ok")
	if res, err := f.Result(context.Background()); err != nil || res != "ok" {
		t.Fatalf("background reap path: %q, %v", res, err)
	}
}
