package emews

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every op round-trips over the wire, singletons as batches of one. The
// matrix has one row: one binary framing, whose hello is OSPREY-WIRE/3.
func TestProtocolCrossVersionMatrix(t *testing.T) { t.Run("binary", testProtocolOps) }

func testProtocolOps(t *testing.T) {
	db := NewDB()
	defer db.Close()
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

	// Single-op lifecycle.
	id, err := c.Submit("m", 0, "one")
	if err != nil {
		t.Fatal(err)
	}
	task, ok, err := c.Pop("m", time.Second)
	if err != nil || !ok || task.ID != id || task.Epoch != 1 {
		t.Fatalf("pop = %+v ok=%v err=%v", task, ok, err)
	}
	if err := c.Complete(task.ID, task.Epoch, "done"); err != nil {
		t.Fatal(err)
	}
	res, done, err := c.Result(id)
	if err != nil || !done || res != "done" {
		t.Fatalf("result = %q done=%v err=%v", res, done, err)
	}

	// Batched lifecycle: submit N in one exchange, lease them in one
	// exchange, resolve them (mixed outcomes) in one exchange.
	payloads := []string{"p0", "p1", "p2", "p3", "p4"}
	ids, err := c.SubmitBatch("b", 0, payloads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(payloads) {
		t.Fatalf("SubmitBatch returned %d ids", len(ids))
	}
	tasks, err := c.PopBatch("b", len(payloads), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(payloads) {
		t.Fatalf("PopBatch leased %d/%d queued tasks", len(tasks), len(payloads))
	}
	fins := make([]FinishOp, len(tasks))
	for i, task := range tasks {
		if task.Epoch != 1 {
			t.Fatalf("task %d epoch = %d", task.ID, task.Epoch)
		}
		if i%2 == 0 {
			fins[i] = FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: "ok:" + task.Payload}
		} else {
			fins[i] = FinishOp{TaskID: task.ID, Epoch: task.Epoch, Failed: true, ErrMsg: "injected"}
		}
	}
	errs, err := c.FinishBatch(fins)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("finish %d rejected: %v", i, e)
		}
	}
	for i, task := range tasks {
		snap, err := db.Get(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && (snap.Status != StatusComplete || snap.Result != "ok:"+task.Payload) {
			t.Fatalf("task %d = %v %q", task.ID, snap.Status, snap.Result)
		}
		if i%2 == 1 && snap.Status != StatusFailed {
			t.Fatalf("task %d = %v, want failed", task.ID, snap.Status)
		}
	}

	// A stale fenced resolution inside a batch is rejected per-op
	// without failing the batch.
	errs, err = c.FinishBatch([]FinishOp{{TaskID: tasks[0].ID, Epoch: tasks[0].Epoch, Failed: true, ErrMsg: "late"}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], ErrStaleClaim) {
		t.Fatalf("late conflicting finish = %v, want ErrStaleClaim", errs[0])
	}

	// An empty poll must come back clean.
	if tasks, err := c.PopBatch("empty-type", 4, 10*time.Millisecond); err != nil || len(tasks) != 0 {
		t.Fatalf("empty PopBatch = %v, %v", tasks, err)
	}
	if _, err := c.RemoteStats(); err != nil {
		t.Fatal(err)
	}
	statsBalanced(t, db)
}

// Pipelining: many goroutines sharing ONE v2 client must make progress
// concurrently on a single connection, responses matched by request id.
func TestBinaryClientPipelinesConcurrentOps(t *testing.T) {
	db := NewDB()
	defer db.Close()
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

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	// Each worker completes whichever task it popped, which need not be
	// its own submission, so results are checked once every worker is
	// done.
	ids := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload := fmt.Sprintf("w%d-%d", w, i)
				id, err := c.Submit("pipe", 0, payload)
				if err != nil {
					errCh <- err
					return
				}
				ids[w] = append(ids[w], id)
				task, ok, err := c.Pop("pipe", time.Second)
				if err != nil || !ok {
					errCh <- fmt.Errorf("pop: ok=%v err=%v", ok, err)
					return
				}
				if err := c.Complete(task.ID, task.Epoch, "r"); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, ws := range ids {
		for _, id := range ws {
			if _, done, err := c.Result(id); err != nil || !done {
				t.Fatalf("result %d: done=%v err=%v", id, done, err)
			}
		}
	}
	st := db.Stats()
	if st.Complete != workers*perWorker || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats after pipelined run: %+v", st)
	}
	statsBalanced(t, db)
}

// The reader answers every op that cannot wait itself, so a pop_batch
// parked on an empty queue must not hold up the requests behind it on
// the same connection, and it must still lease a task submitted after
// it. Each request is counted once.
func TestInlineDispatchAnswersBehindParkedPop(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A task leased in-process, for the finish_batch to resolve.
	if _, err := db.Submit("other", 0, "x"); err != nil {
		t.Fatal(err)
	}
	held, err := db.Pop(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}

	conn, r := rawConn(t, srv.Addr())
	defer conn.Close()
	send := func(id uint64, req wireRequest) { t.Helper(); rawSend(t, conn, id, req) }
	recv := func() (uint64, wireResponse) { t.Helper(); return rawRecv(t, conn, r) }

	requests := mNetRequests.Value()
	send(1, wireRequest{Op: opcPopBatch, Type: "p", Max: 4}) // no timeout: waits for a task
	send(2, wireRequest{Op: opcStats})
	send(3, wireRequest{Op: opcFinishBatch, Finishes: []wireFinish{{TaskID: held.Task.ID, Epoch: held.Task.Epoch, Result: "done"}}})
	if id, resp := recv(); id != 2 || resp.Stats == nil || resp.Stats.Running != 1 {
		t.Fatalf("first answer: request %d %+v, want the stats (1 running) while the pop is parked", id, resp)
	}
	if id, resp := recv(); id != 3 || len(resp.Results) != 1 || resp.Results[0].err() != nil {
		t.Fatalf("second answer: request %d %+v, want the finish_batch accepted while the pop is parked", id, resp)
	}
	if task, err := db.Get(held.Task.ID); err != nil || task.Status != StatusComplete || task.Result != "done" {
		t.Fatalf("finished task: %+v, %v", task, err)
	}

	send(4, wireRequest{Op: opcSubmitBatch, Type: "p", Payloads: []string{"work"}})
	got := map[uint64]wireResponse{}
	for len(got) < 2 {
		id, resp := recv()
		got[id] = resp
	}
	sub, pop := got[4], got[1]
	if !sub.OK || len(sub.TaskIDs) != 1 {
		t.Fatalf("submit_batch answer %+v", sub)
	}
	if !pop.OK || len(pop.Tasks) != 1 || pop.Tasks[0].ID != sub.TaskIDs[0] || pop.Tasks[0].Payload != "work" {
		t.Fatalf("parked pop answered %+v, want the submitted task %d", pop, sub.TaskIDs[0])
	}
	if n := mNetRequests.Value() - requests; n != 4 {
		t.Fatalf("emews.net.requests moved by %d for 4 requests", n)
	}
}

// Answers the reader has buffered leave before it blocks, also when the
// request behind them, read in the same segment, is a pop that has to
// wait: on the socket after parking it, and on the connection's bound
// when maxInflightPerConn pops are already parked.
func TestAnswersLeaveBeforeReaderBlocks(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pop := wireRequest{Op: opcPopBatch, Type: "p", Max: 1} // no timeout: waits for a task
	stats := wireRequest{Op: opcStats}

	t.Run("before a parked pop", func(t *testing.T) {
		conn, r := rawConn(t, srv.Addr())
		defer conn.Close()
		rawSend(t, conn, 1, stats, pop)
		if id, resp := rawRecv(t, conn, r); id != 1 || resp.Stats == nil {
			t.Fatalf("answer: request %d %+v, want the stats while the pop is parked", id, resp)
		}
	})

	t.Run("before a full connection", func(t *testing.T) {
		conn, r := rawConn(t, srv.Addr())
		defer conn.Close()
		pops := make([]wireRequest, maxInflightPerConn)
		for i := range pops {
			pops[i] = pop
		}
		rawSend(t, conn, 1, pops...)
		// In-order reading: once this is answered, every pop is parked.
		rawSend(t, conn, 100, stats)
		if id, _ := rawRecv(t, conn, r); id != 100 {
			t.Fatalf("answer to request %d, want the stats (100)", id)
		}
		rawSend(t, conn, 101, stats, pop)
		if id, resp := rawRecv(t, conn, r); id != 101 || resp.Stats == nil {
			t.Fatalf("answer: request %d %+v, want the stats while the reader waits for a pop slot", id, resp)
		}
	})
}

// Regression (bugfix): a task that failed with an EMPTY err_msg must be
// reported as a failure by Result, not as a success with an empty result.
// Pre-v2 the client keyed failure on Error != "".
func TestResultReportsEmptyMessageFailure(t *testing.T) {
	t.Run("binary", testResultReportsEmptyMessageFailure)
}

func testResultReportsEmptyMessageFailure(t *testing.T) {
	db := NewDB()
	defer db.Close()
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

	if _, err := c.Submit("m", 0, "x"); err != nil {
		t.Fatal(err)
	}
	task, ok, err := c.Pop("m", time.Second)
	if err != nil || !ok {
		t.Fatalf("pop = %v ok=%v", err, ok)
	}
	if err := c.Fail(task.ID, task.Epoch, ""); err != nil {
		t.Fatal(err)
	}
	res, done, err := c.Result(task.ID)
	if !done {
		t.Fatal("failed task reported as still pending")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("empty-message failure reported as success (res=%q err=%v), want *TaskError", res, err)
	}
}

// Regression (bugfix): a positive sub-millisecond pop timeout must stay a
// bounded wait. Pre-v2 it truncated to timeout_ms=0, i.e. an UNBOUNDED
// server-side wait, hanging the caller on an empty queue.
func TestPopClampsSubMillisecondTimeout(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type popOut struct {
		ok  bool
		err error
	}
	done := make(chan popOut, 1)
	go func() {
		_, ok, err := c.Pop("never-submitted", 500*time.Microsecond)
		done <- popOut{ok, err}
	}()
	select {
	case out := <-done:
		if out.err != nil || out.ok {
			t.Fatalf("sub-ms pop on empty queue = ok=%v err=%v, want clean empty", out.ok, out.err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("500µs pop timeout hung: truncated to an unbounded server-side wait")
	}
}

// Regression (bugfix): the reconnect backoff wait must not block Close or
// run while holding the client mutex. Pre-v2 the sleep sat inside
// connectLocked under c.mu, so Close (and every concurrent op) stalled
// for up to the full backoff.
func TestCloseInterruptsReconnectBackoff(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), WithBackoff(3*time.Second, 3*time.Second), WithRetries(4), WithOpTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // every reconnect from here fails, arming the 3s backoff

	opDone := make(chan error, 1)
	go func() {
		_, err := c.RemoteStats()
		opDone <- err
	}()
	time.Sleep(150 * time.Millisecond) // let the op fail once and enter the backoff wait

	start := time.Now()
	closeDone := make(chan struct{})
	go func() {
		c.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(1500 * time.Millisecond):
		t.Fatal("Close blocked behind the reconnect backoff sleep")
	}
	select {
	case err := <-opDone:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("op after close = %v, want ErrTransport", err)
		}
	case <-time.After(1500 * time.Millisecond):
		t.Fatal("in-flight op not interrupted by Close")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("close path took %v, backoff wait was not interrupted", elapsed)
	}
}

// swallowServer is a fake server that acks the hello, then swallows the
// next request frame — counting it — and drops the connection without
// replying, forcing a mid-op transport error with the op's fate unknown.
func swallowServer(t *testing.T, count *int64) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				hello := make([]byte, len(clientHello))
				if _, err := io.ReadFull(r, hello); err != nil || string(hello) != clientHello {
					return
				}
				if _, err := conn.Write([]byte(serverHelloAck)); err != nil {
					return
				}
				if _, _, payload, err := readFrame(r); err == nil {
					putWireBuf(payload)
					atomic.AddInt64(count, 1)
				}
				// swallow: no response, connection dropped
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// Regression (bugfix): an UNFENCED (epoch-0) complete/fail is not
// idempotent, so the client must not re-send it after an ambiguous
// transport failure — pre-v2 it was listed retry-safe and could
// double-resolve across attempts. Fenced resolutions keep retrying.
func TestUnfencedResolutionNotRetriedOverTransport(t *testing.T) {
	var sends int64
	addr, stop := swallowServer(t, &sends)
	defer stop()

	c, err := Dial(addr, WithRetries(3), WithBackoff(time.Millisecond, 5*time.Millisecond), WithOpTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Complete(7, 0, "r") // unfenced
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("swallowed unfenced complete = %v, want ErrTransport", err)
	}
	if !strings.Contains(err.Error(), "may have been applied") {
		t.Fatalf("ambiguous unfenced complete error %q does not flag possible application", err)
	}
	if n := atomic.LoadInt64(&sends); n != 1 {
		t.Fatalf("unfenced complete sent %d times, want exactly 1 (not idempotent!)", n)
	}

	atomic.StoreInt64(&sends, 0)
	err = c.Fail(7, 5, "x") // fenced: idempotent per attempt, so retried
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("swallowed fenced fail = %v, want ErrTransport", err)
	}
	if n := atomic.LoadInt64(&sends); n < 2 {
		t.Fatalf("fenced fail sent %d times, want retries", n)
	}
}

// Regression (bugfix): a worker blocked in an unbounded pop during server
// shutdown must get a clean empty poll, not a "context canceled" error —
// the close becomes visible as a transport condition on its next op.
func TestServerCloseYieldsCleanEmptyPop(t *testing.T) {
	t.Run("binary", testServerCloseYieldsCleanEmptyPop)
}

func testServerCloseYieldsCleanEmptyPop(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type popOut struct {
		ok  bool
		err error
	}
	done := make(chan popOut, 1)
	go func() {
		_, ok, err := c.Pop("m", 0) // unbounded wait
		done <- popOut{ok, err}
	}()
	time.Sleep(100 * time.Millisecond)
	srv.Close()
	select {
	case out := <-done:
		if out.err != nil || out.ok {
			t.Fatalf("pop during server shutdown = ok=%v err=%v, want clean empty", out.ok, out.err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("blocking pop did not return on server close")
	}
}

// Regression (race): Close waits on the in-flight dispatch WaitGroup
// while live connections keep registering requests; an Add racing that
// Wait through zero is WaitGroup misuse the race detector flags. The
// drain barrier (beginDispatch) must make the storm below clean under
// -race: requests arriving mid-Close are refused, not registered.
func TestCloseDuringRequestStorm(t *testing.T) { t.Run("binary", testCloseDuringRequestStorm) }

func testCloseDuringRequestStorm(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), WithRetries(0))
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once Close lands; the
				// point is that the server side stays race-free.
				_, _ = c.Submit("m", 1, "p")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	close(stop)
	wg.Wait()
}

// The DB-side batch primitive: PopBatch leases up to max in one call,
// returns fewer when the queue is shorter, and blocks until work arrives.
func TestDBPopBatchLeasesUpToMax(t *testing.T) {
	db := NewDB()
	defer db.Close()
	for i := 0; i < 10; i++ {
		if _, err := db.Submit("m", 0, strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	a, err := db.PopBatch(ctx, "m", 4)
	if err != nil || len(a) != 4 {
		t.Fatalf("PopBatch = %d claims, err %v", len(a), err)
	}
	b, err := db.PopBatch(ctx, "m", 100)
	if err != nil || len(b) != 6 {
		t.Fatalf("second PopBatch = %d claims, err %v (want the remaining 6)", len(b), err)
	}
	for _, c := range append(a, b...) {
		if err := c.Complete("r"); err != nil {
			t.Fatal(err)
		}
	}

	// Empty queue: PopBatch blocks, a submit wakes it.
	got := make(chan int, 1)
	go func() {
		cs, err := db.PopBatch(ctx, "m", 8)
		if err != nil {
			got <- -1
			return
		}
		for _, c := range cs {
			_ = c.Complete("late")
		}
		got <- len(cs)
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := db.Submit("m", 0, "wake"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n < 1 {
			t.Fatalf("woken PopBatch returned %d", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("PopBatch did not wake on submit")
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.PopBatch(cctx, "m", 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled PopBatch = %v", err)
	}
	statsBalanced(t, db)
}

// End-to-end churn over the BATCHED path: a batched remote pool works
// through the chaos proxy while connections are repeatedly killed. Every
// task must complete exactly once — the claim-requeue and fencing
// invariants must hold for pop_batch/finish_batch exactly as they do for
// the single ops.
func TestBatchedPoolSurvivesConnectionChurn(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())

	pool, err := StartRemotePoolBatched(proxy.Addr(), "m", 4, 8, func(ctx context.Context, payload string) (string, error) {
		time.Sleep(2 * time.Millisecond) // widen the kill window
		return "ok:" + payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	const tasks = 40
	var futures []*Future
	for i := 0; i < tasks; i++ {
		f, err := db.SubmitRetry("m", 0, strconv.Itoa(i), 100)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}

	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 10; i++ {
			time.Sleep(15 * time.Millisecond)
			proxy.KillActive()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, f := range futures {
		res, err := f.Result(ctx)
		if err != nil {
			t.Fatalf("task %d lost under batched churn: %v", i, err)
		}
		if want := "ok:" + strconv.Itoa(i); res != want {
			t.Fatalf("task %d = %q, want %q", i, res, want)
		}
	}
	<-churnDone

	st := db.Stats()
	if st.Complete != tasks {
		t.Fatalf("Complete = %d, want %d (stats: %+v)", st.Complete, tasks, st)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("tasks leaked under batched churn: %+v", st)
	}
	statsBalanced(t, db)
}

// rawSend writes reqs as frames numbered from first, in one Write.
func rawSend(t *testing.T, conn net.Conn, first uint64, reqs ...wireRequest) {
	t.Helper()
	var buf []byte
	for i := range reqs {
		var err error
		if buf, err = appendRequestFrame(buf, first+uint64(i), &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// rawRecv reads one answer from a rawConn, failing after 5 s.
func rawRecv(t *testing.T, conn net.Conn, r *bufio.Reader) (uint64, wireResponse) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	code, id, payload, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponsePayload(code, payload)
	putWireBuf(payload)
	if err != nil {
		t.Fatal(err)
	}
	return id, resp
}

// rawConn opens a TCP connection to addr that speaks frames directly,
// bypassing Client: it sends the hello and checks the ack.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(clientHello)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	ack := make([]byte, len(serverHelloAck))
	if _, err := io.ReadFull(r, ack); err != nil || string(ack) != serverHelloAck {
		t.Fatalf("hello ack = %q, %v", ack, err)
	}
	return conn, r
}

// The server reads exactly the hello's length and closes a peer whose
// hello does not match, without a reply and without buffering the rest:
// a 1 MiB line with no newline, a JSON request line and the previous
// version's hello are all refused before any request is counted, and the
// server keeps serving.
func TestServerRefusesBadHello(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	requests := mNetRequests.Value()
	for _, tc := range []struct {
		name string
		send []byte
	}{
		{"no-newline", bytes.Repeat([]byte{'x'}, 1<<20)},
		{"json-line", []byte(`{"op":"stats"}` + "\n")},
		{"wire-v2-hello", []byte("OSPREY-WIRE/2\n")},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// The server may close mid-write; the write's outcome is not the
		// point, the reply is.
		go func() { _, _ = conn.Write(tc.send) }()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := io.ReadAll(conn)
		conn.Close()
		if len(reply) != 0 {
			t.Fatalf("%s: server replied %q", tc.name, reply)
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: server kept the connection open", tc.name)
		}
	}
	if got := mNetRequests.Value(); got != requests {
		t.Fatalf("emews.net.requests moved by %d on refused hellos", got-requests)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RemoteStats(); err != nil {
		t.Fatalf("server stopped serving after refused hellos: %v", err)
	}
}

// Regression (bugfix): a pop_batch lease must fit in one response frame.
// Two 9 MiB tasks used to be claimed together, fail to encode, and sit
// running on the connection until it dropped, when both failed unseen.
// Now the lease stops at the first task, the second stays queued, and
// both complete. A payload no lease could carry is refused at submit,
// and a lease never holds more tasks than the client's decoder accepts.
func TestPopBatchLeaseFitsOneFrame(t *testing.T) {
	db := NewDB()
	defer db.Close()
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

	big := strings.Repeat("x", 9<<20)
	for i := 0; i < 2; i++ {
		if _, err := c.Submit("m", 0, big); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		tasks, err := c.PopBatch("m", 2, time.Second)
		if err != nil {
			t.Fatalf("pop_batch %d: %v", i, err)
		}
		if len(tasks) != 1 || len(tasks[0].Payload) != len(big) {
			t.Fatalf("pop_batch %d leased %d tasks, want 1 whole task", i, len(tasks))
		}
		if st := db.Stats(); st.Running != 1 || st.Queued != 1-i {
			t.Fatalf("after pop_batch %d: %+v, want 1 running and %d queued", i, st, 1-i)
		}
		if err := c.Complete(tasks[0].ID, tasks[0].Epoch, "ok"); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.Complete != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want both tasks complete", st)
	}

	_, err = c.Submit("m", 0, strings.Repeat("x", maxFramePayload-64))
	if err == nil || errors.Is(err, ErrTransport) {
		t.Fatalf("oversized submit = %v, want a server-side refusal", err)
	}
	if st := db.Stats(); st.Submitted != 2 || st.Queued != 0 {
		t.Fatalf("refused submit changed the database: %+v", st)
	}

	// A lease is also capped at the longest list the client decodes.
	many := make([]string, maxWireBatch+1)
	if _, err := db.SubmitBatch("n", 0, many); err != nil {
		t.Fatal(err)
	}
	tasks, err := c.PopBatch("n", len(many), time.Second)
	if err != nil || len(tasks) != maxWireBatch {
		t.Fatalf("pop_batch of %d = %d tasks, %v; want %d", len(many), len(tasks), err, maxWireBatch)
	}
}
