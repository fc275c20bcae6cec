package emews

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osprey/internal/scheduler"
)

func TestSubmitPopCompleteRoundTrip(t *testing.T) {
	db := NewDB()
	defer db.Close()
	f, err := db.Submit("model", 0, `{"ts":0.5}`)
	if err != nil {
		t.Fatal(err)
	}
	claim, err := db.Pop(context.Background(), "model")
	if err != nil {
		t.Fatal(err)
	}
	if claim.Task.Payload != `{"ts":0.5}` {
		t.Fatalf("payload = %q", claim.Task.Payload)
	}
	if err := claim.Complete("42"); err != nil {
		t.Fatal(err)
	}
	res, err := f.Result(context.Background())
	if err != nil || res != "42" {
		t.Fatalf("Result = %q, %v", res, err)
	}
}

func TestFutureTryResult(t *testing.T) {
	db := NewDB()
	defer db.Close()
	f, _ := db.Submit("m", 0, "x")
	if _, _, done := f.TryResult(); done {
		t.Fatal("unfinished task reported done")
	}
	claim, _ := db.Pop(context.Background(), "m")
	claim.Complete("ok")
	res, err, done := f.TryResult()
	if !done || err != nil || res != "ok" {
		t.Fatalf("TryResult = %q, %v, %v", res, err, done)
	}
}

func TestTaskFailurePropagates(t *testing.T) {
	db := NewDB()
	defer db.Close()
	f, _ := db.Submit("m", 0, "x")
	claim, _ := db.Pop(context.Background(), "m")
	claim.Fail("model exploded")
	if _, err := f.Result(context.Background()); err == nil || !strings.Contains(err.Error(), "model exploded") {
		t.Fatalf("failure not propagated: %v", err)
	}
}

func TestClaimDoubleResolveRejected(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.Submit("m", 0, "x")
	claim, _ := db.Pop(context.Background(), "m")
	claim.Complete("1")
	if err := claim.Complete("2"); err == nil {
		t.Fatal("double complete accepted")
	}
}

func TestPriorityOrdering(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.Submit("m", 0, "low")
	db.Submit("m", 5, "high")
	db.Submit("m", 0, "low2")
	claim, _ := db.Pop(context.Background(), "m")
	if claim.Task.Payload != "high" {
		t.Fatalf("first pop = %q, want high-priority task", claim.Task.Payload)
	}
	claim.Complete("")
	// FIFO within equal priority.
	c2, _ := db.Pop(context.Background(), "m")
	if c2.Task.Payload != "low" {
		t.Fatalf("second pop = %q, want FIFO order", c2.Task.Payload)
	}
	c2.Complete("")
}

func TestTaskTypeIsolation(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.Submit("a", 0, "forA")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := db.Pop(ctx, "b"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pop on empty type returned %v", err)
	}
}

func TestPopBlocksUntilSubmit(t *testing.T) {
	db := NewDB()
	defer db.Close()
	got := make(chan string, 1)
	go func() {
		claim, err := db.Pop(context.Background(), "m")
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		claim.Complete("")
		got <- claim.Task.Payload
	}()
	time.Sleep(20 * time.Millisecond)
	db.Submit("m", 0, "late")
	select {
	case v := <-got:
		if v != "late" {
			t.Fatalf("blocked pop got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never unblocked")
	}
}

func TestCloseCancelsQueuedAndUnblocksPop(t *testing.T) {
	db := NewDB()
	f, _ := db.Submit("m", 0, "x")
	errCh := make(chan error, 1)
	go func() {
		_, err := db.Pop(context.Background(), "other")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	db.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked pop after close: %v", err)
	}
	if _, err := f.Result(context.Background()); err == nil {
		t.Fatal("queued task not canceled by close")
	}
	if _, err := db.Submit("m", 0, "y"); !errors.Is(err, ErrClosed) {
		t.Fatal("submit after close accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	db := NewDB()
	defer db.Close()
	fs, _ := db.SubmitBatch("m", 0, []string{"1", "2", "3"})
	st := db.Stats()
	if st.Submitted != 3 || st.Queued != 3 {
		t.Fatalf("stats after submit: %+v", st)
	}
	c, _ := db.Pop(context.Background(), "m")
	if st := db.Stats(); st.Running != 1 || st.Queued != 2 {
		t.Fatalf("stats after pop: %+v", st)
	}
	c.Complete("done")
	c2, _ := db.Pop(context.Background(), "m")
	c2.Fail("x")
	if st := db.Stats(); st.Complete != 1 || st.Failed != 1 || st.Queued != 1 {
		t.Fatalf("stats after resolve: %+v", st)
	}
	_ = fs
}

func TestAsCompletedYieldsAll(t *testing.T) {
	db := NewDB()
	defer db.Close()
	futures, _ := db.SubmitBatch("m", 0, []string{"a", "b", "c", "d"})
	go func() {
		for i := 0; i < 4; i++ {
			claim, _ := db.Pop(context.Background(), "m")
			claim.Complete(claim.Task.Payload + "!")
		}
	}()
	seen := 0
	for f := range AsCompleted(context.Background(), futures) {
		res, err := f.Result(context.Background())
		if err != nil || !strings.HasSuffix(res, "!") {
			t.Fatalf("bad result %q %v", res, err)
		}
		seen++
	}
	if seen != 4 {
		t.Fatalf("AsCompleted yielded %d of 4", seen)
	}
}

func TestLocalPoolProcessesTasks(t *testing.T) {
	db := NewDB()
	defer db.Close()
	pool, err := StartLocalPool(db, "square", 4, func(ctx context.Context, payload string) (string, error) {
		n, err := strconv.Atoi(payload)
		if err != nil {
			return "", err
		}
		return strconv.Itoa(n * n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	var futures []*Future
	for i := 1; i <= 20; i++ {
		f, _ := db.Submit("square", 0, strconv.Itoa(i))
		futures = append(futures, f)
	}
	for i, f := range futures {
		res, err := f.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := strconv.Itoa((i + 1) * (i + 1))
		if res != want {
			t.Fatalf("task %d = %q, want %q", i, res, want)
		}
	}
	st := pool.Stats()
	if st.Processed != 20 || st.Failed != 0 {
		t.Fatalf("pool stats %+v", st)
	}
	if st.Workers != 4 {
		t.Fatalf("workers = %d", st.Workers)
	}
}

func TestLocalPoolHandlerError(t *testing.T) {
	db := NewDB()
	defer db.Close()
	pool, _ := StartLocalPool(db, "m", 1, func(ctx context.Context, payload string) (string, error) {
		return "", fmt.Errorf("bad input")
	})
	defer pool.Stop()
	f, _ := db.Submit("m", 0, "x")
	if _, err := f.Result(context.Background()); err == nil {
		t.Fatal("handler error not propagated to future")
	}
	if pool.Stats().Failed != 1 {
		t.Fatal("failure not counted")
	}
}

func TestScheduledPoolRunsThroughScheduler(t *testing.T) {
	cluster, err := scheduler.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	db := NewDB()
	defer db.Close()
	var calls atomic.Int64
	pool, err := StartScheduledPool(cluster, 2, 2, db, "model", func(ctx context.Context, payload string) (string, error) {
		calls.Add(1)
		return payload + "-done", nil
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var futures []*Future
	for i := 0; i < 10; i++ {
		f, _ := db.Submit("model", 0, fmt.Sprintf("t%d", i))
		futures = append(futures, f)
	}
	for _, f := range futures {
		if _, err := f.Result(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 10 {
		t.Fatalf("handler ran %d times", calls.Load())
	}
	if pool.Stats().Workers != 4 {
		t.Fatalf("scheduled pool workers = %d, want 2 nodes x 2", pool.Stats().Workers)
	}
	pool.Stop()
	if cluster.Stats().Completed != 1 {
		t.Fatal("pool job did not complete cleanly after Stop")
	}
}

// Regression: a scheduled pool merged its job and pool contexts afresh
// for every Pop, and each merge left a goroutine waiting until Stop, so
// the pool grew by one goroutine per task. Workers must still end on
// Stop and on the job's cancellation.
func TestScheduledPoolGoroutinesStayFlat(t *testing.T) {
	cluster, err := scheduler.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	db := NewDB()
	defer db.Close()
	echo := func(ctx context.Context, payload string) (string, error) { return payload, nil }
	pool, err := StartScheduledPool(cluster, 2, 1, db, "m", echo, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		f, err := db.Submit("m", 0, strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Result(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > start+5 {
		t.Fatalf("goroutines grew from %d to %d over 1000 tasks", start, n)
	}
	stopped := make(chan struct{})
	go func() {
		pool.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not end the workers")
	}

	// Cancelling the job (here by shutting the cluster down) also ends
	// the workers, and with them the job.
	pool, err = StartScheduledPool(cluster, 2, 1, db, "m", echo, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	cluster.Shutdown()
	select {
	case <-pool.job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job cancellation did not end the workers")
	}
}

func TestPoolValidation(t *testing.T) {
	db := NewDB()
	defer db.Close()
	if _, err := StartLocalPool(nil, "m", 1, nil); err == nil {
		t.Fatal("nil db/handler accepted")
	}
	if _, err := StartLocalPool(db, "m", 0, func(ctx context.Context, p string) (string, error) { return "", nil }); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := StartScheduledPool(nil, 1, 1, db, "m", nil, 0); err == nil {
		t.Fatal("nil cluster accepted")
	}
}

func TestTCPServerClientRoundTrip(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Worker side over TCP.
	worker, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	// Submitter side over TCP.
	submitter, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer submitter.Close()

	id, err := submitter.Submit("model", 3, "params")
	if err != nil {
		t.Fatal(err)
	}
	task, ok, err := worker.Pop("model", time.Second)
	if err != nil || !ok {
		t.Fatalf("Pop = %v, ok=%v", err, ok)
	}
	if task.ID != id || task.Payload != "params" {
		t.Fatalf("Pop got (%d, %q)", task.ID, task.Payload)
	}
	if task.Epoch != 1 {
		t.Fatalf("first attempt epoch = %d, want 1", task.Epoch)
	}
	// Result not ready yet.
	if _, done, err := submitter.Result(id); err != nil || done {
		t.Fatalf("premature result: done=%v err=%v", done, err)
	}
	if err := worker.Complete(task.ID, task.Epoch, "out"); err != nil {
		t.Fatal(err)
	}
	res, err := submitter.WaitResult(context.Background(), id, time.Millisecond)
	if err != nil || res != "out" {
		t.Fatalf("WaitResult = %q, %v", res, err)
	}
	st, err := submitter.RemoteStats()
	if err != nil || st.Complete != 1 {
		t.Fatalf("RemoteStats = %+v, %v", st, err)
	}
}

func TestTCPPopTimeout(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, _ := Serve(db, "127.0.0.1:0")
	defer srv.Close()
	c, _ := Dial(srv.Addr())
	defer c.Close()
	start := time.Now()
	_, ok, err := c.Pop("empty", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("pop on empty queue returned a task")
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

func TestTCPFailurePath(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, _ := Serve(db, "127.0.0.1:0")
	defer srv.Close()
	c, _ := Dial(srv.Addr())
	defer c.Close()
	id, _ := c.Submit("m", 0, "x")
	task, ok, _ := c.Pop("m", time.Second)
	if !ok {
		t.Fatal("pop failed")
	}
	if err := c.Fail(task.ID, task.Epoch, "worker crashed"); err != nil {
		t.Fatal(err)
	}
	_, err := c.WaitResult(context.Background(), id, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "worker crashed") {
		t.Fatalf("failure not surfaced over TCP: %v", err)
	}
}

func TestInterleavedDriversShareOnePool(t *testing.T) {
	// Two "algorithm instances" interleave submissions against one pool,
	// checking futures non-blockingly as in §3.2.
	db := NewDB()
	defer db.Close()
	pool, _ := StartLocalPool(db, "m", 2, func(ctx context.Context, p string) (string, error) {
		time.Sleep(time.Millisecond)
		return p, nil
	})
	defer pool.Stop()

	type instance struct {
		pending []*Future
		got     int
	}
	insts := [2]*instance{{}, {}}
	for i, inst := range insts {
		fs, _ := db.SubmitBatch("m", 0, []string{
			fmt.Sprintf("i%d-a", i), fmt.Sprintf("i%d-b", i), fmt.Sprintf("i%d-c", i),
		})
		inst.pending = fs
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		active := false
		for _, inst := range insts {
			remaining := inst.pending[:0]
			for _, f := range inst.pending {
				if _, err, done := f.TryResult(); done {
					if err != nil {
						t.Fatal(err)
					}
					inst.got++
				} else {
					remaining = append(remaining, f)
				}
			}
			inst.pending = remaining
			if len(inst.pending) > 0 {
				active = true
			}
		}
		if !active {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, inst := range insts {
		if inst.got != 3 {
			t.Fatalf("instance %d completed %d of 3", i, inst.got)
		}
	}
}

func BenchmarkSubmitPopComplete(b *testing.B) {
	db := NewDB()
	defer db.Close()
	for i := 0; i < b.N; i++ {
		f, _ := db.Submit("m", 0, "x")
		claim, _ := db.Pop(context.Background(), "m")
		claim.Complete("y")
		f.Result(context.Background())
	}
}

func BenchmarkPoolThroughput(b *testing.B) {
	db := NewDB()
	defer db.Close()
	pool, _ := StartLocalPool(db, "m", 8, func(ctx context.Context, p string) (string, error) {
		return p, nil
	})
	defer pool.Stop()
	b.ResetTimer()
	futures := make([]*Future, b.N)
	for i := 0; i < b.N; i++ {
		futures[i], _ = db.Submit("m", 0, "x")
	}
	for _, f := range futures {
		f.Result(context.Background())
	}
}
