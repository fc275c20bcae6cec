package emews

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"osprey/internal/chaos"
)

// newFaultProxy places a chaos.Proxy (the shared fault-injection proxy;
// see internal/chaos) in front of the server under test.
func newFaultProxy(t *testing.T, backend string) *chaos.Proxy {
	t.Helper()
	p, err := chaos.NewProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// A remote worker that dies after pop must not leak a StatusRunning task:
// the server's connection-scoped claim cleanup requeues it, and another
// worker completes it exactly once — with no lease reaper configured.
func TestConnDropRequeuesClaimWithoutReaper(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())

	f, _ := db.SubmitRetry("m", 0, "x", 3)

	// Worker 1 pops through the proxy and "dies" (connection severed).
	w1, err := Dial(proxy.Addr(), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	task, ok, err := w1.Pop("m", time.Second)
	if err != nil || !ok {
		t.Fatalf("pop = %v ok=%v", err, ok)
	}
	if n := proxy.KillActive(); n == 0 {
		t.Fatal("no connection to kill")
	}
	w1.Close()

	// The server must notice the dead connection and requeue the claim.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := db.Get(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status == StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %v after worker connection dropped", snap.Status)
		}
		time.Sleep(time.Millisecond)
	}

	// Worker 2 picks it up and completes it.
	w2, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	task2, ok, err := w2.Pop("m", time.Second)
	if err != nil || !ok {
		t.Fatalf("re-pop = %v ok=%v", err, ok)
	}
	if task2.ID != task.ID || task2.Epoch <= task.Epoch {
		t.Fatalf("re-pop got id=%d epoch=%d (was id=%d epoch=%d)", task2.ID, task2.Epoch, task.ID, task.Epoch)
	}
	if err := w2.Complete(task2.ID, task2.Epoch, "second attempt"); err != nil {
		t.Fatal(err)
	}
	if res, err := f.Result(context.Background()); err != nil || res != "second attempt" {
		t.Fatalf("Result = %q, %v", res, err)
	}

	// The zombie worker reconnects and tries to resolve its stale claim.
	zombie, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.Close()
	if err := zombie.Complete(task.ID, task.Epoch, "zombie"); !errors.Is(err, ErrStaleClaim) {
		t.Fatalf("stale remote complete = %v, want ErrStaleClaim", err)
	}
	if snap, _ := db.Get(task.ID); snap.Result != "second attempt" {
		t.Fatalf("stale remote claim overwrote result: %q", snap.Result)
	}
	statsBalanced(t, db)
}

// The stale-claim fence over TCP with a lease reaper: the original worker
// survives (connection intact) but exceeds its lease; the reaper requeues,
// a second worker wins, and the late resolution is rejected.
func TestStaleClaimRejectedOverTCP(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.SetLeaseTimeout(20 * time.Millisecond)
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f, _ := db.SubmitRetry("m", 0, "x", 2)
	w1, _ := Dial(srv.Addr())
	defer w1.Close()
	t1, ok, err := w1.Pop("m", time.Second)
	if err != nil || !ok {
		t.Fatalf("pop = %v ok=%v", err, ok)
	}
	time.Sleep(40 * time.Millisecond)
	if req, _ := db.ReapExpired(); req != 1 {
		t.Fatal("lease did not expire")
	}
	w2, _ := Dial(srv.Addr())
	defer w2.Close()
	t2, ok, err := w2.Pop("m", time.Second)
	if err != nil || !ok {
		t.Fatalf("re-pop = %v ok=%v", err, ok)
	}
	// Old worker reports late, over its still-healthy connection.
	if err := w1.Complete(t1.ID, t1.Epoch, "old"); !errors.Is(err, ErrStaleClaim) {
		t.Fatalf("stale complete over TCP = %v, want ErrStaleClaim", err)
	}
	if err := w2.Complete(t2.ID, t2.Epoch, "new"); err != nil {
		t.Fatal(err)
	}
	if res, err := f.Result(context.Background()); err != nil || res != "new" {
		t.Fatalf("Result = %q, %v", res, err)
	}
	statsBalanced(t, db)
}

// The client must transparently reconnect (with backoff) when its
// connection is killed between ops.
func TestClientReconnectsAfterKill(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())

	c, err := Dial(proxy.Addr(), WithBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RemoteStats(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		proxy.KillActive()
		// stats is retry-safe: the op must succeed on a fresh connection.
		if _, err := c.RemoteStats(); err != nil {
			t.Fatalf("round %d: op after kill failed: %v", round, err)
		}
	}
}

// WaitResult must ride out transport blips (reconnecting under the hood)
// instead of aborting, and still surface task failures as definitive.
func TestWaitResultSurvivesTransportBlips(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())

	f, _ := db.Submit("m", 0, "x")
	c, err := Dial(proxy.Addr(), WithBackoff(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	got := make(chan error, 1)
	var res string
	go func() {
		var werr error
		res, werr = c.WaitResult(ctx, f.TaskID, 2*time.Millisecond)
		got <- werr
	}()

	// Blips while the poll is in flight.
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		proxy.KillActive()
	}
	claim, err := db.Pop(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete("survived"); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("WaitResult aborted on transport blip: %v", err)
	}
	if res != "survived" {
		t.Fatalf("WaitResult = %q", res)
	}

	// Task failure is definitive: *TaskError, not a retried transport error.
	f2, _ := db.Submit("m", 0, "y")
	claim2, _ := db.Pop(context.Background(), "m")
	claim2.Fail("model exploded")
	_, werr := c.WaitResult(ctx, f2.TaskID, 2*time.Millisecond)
	var te *TaskError
	if !errors.As(werr, &te) || te.TaskID != f2.TaskID {
		t.Fatalf("task failure surfaced as %v, want *TaskError", werr)
	}
}

// End-to-end churn: a remote pool works through the proxy while
// connections are repeatedly killed. Every task must complete exactly
// once; none may be lost or double-resolved.
func TestRemotePoolSurvivesConnectionChurn(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())

	var mu sync.Mutex
	completions := map[string]int{} // payload -> handler completions that stuck
	pool, err := StartRemotePool([]string{proxy.Addr()}, "m", 4, 1, func(ctx context.Context, payload string) (string, error) {
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

	// Kill connections while the pool is working.
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
			t.Fatalf("task %d lost under churn: %v", i, err)
		}
		want := "ok:" + strconv.Itoa(i)
		if res != want {
			t.Fatalf("task %d = %q, want %q", i, res, want)
		}
		mu.Lock()
		completions[res]++
		mu.Unlock()
	}
	<-churnDone

	// Exactly once: every future resolved with its own payload's result,
	// and the DB counted each task complete exactly once.
	st := db.Stats()
	if st.Complete != tasks {
		t.Fatalf("Complete = %d, want %d (stats: %+v)", st.Complete, tasks, st)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("tasks leaked under churn: %+v", st)
	}
	statsBalanced(t, db)
	for payload, n := range completions {
		if n != 1 {
			t.Fatalf("payload %q observed %d times", payload, n)
		}
	}
}

// Submit is not retried once the request may have been applied: the
// caller must see ErrTransport and decide, to avoid duplicate tasks.
func TestSubmitNotRetriedAfterSend(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := newFaultProxy(t, srv.Addr())
	c, err := Dial(proxy.Addr(), WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stop the server so the submit's response can never arrive, then
	// sever the proxied connection to force a mid-op transport error.
	srv.Close()
	proxy.KillActive()
	if _, err := c.Submit("m", 0, "x"); !errors.Is(err, ErrTransport) {
		t.Fatalf("submit through dead server = %v, want ErrTransport", err)
	}
}

// A worker pool must come up even if the first connections are slow
// (accept delay), and pops must honor their deadline budget.
func TestClientToleratesSlowAccept(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())
	proxy.SetAcceptDelay(30 * time.Millisecond)

	c, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit("m", 0, "slow")
	if err != nil {
		t.Fatal(err)
	}
	task, ok, err := c.Pop("m", time.Second)
	if err != nil || !ok || task.ID != id {
		t.Fatalf("pop through slow proxy = %+v ok=%v err=%v", task, ok, err)
	}
	if err := c.Complete(task.ID, task.Epoch, "done"); err != nil {
		t.Fatal(err)
	}
}

// Refused connections exercise the exponential backoff: ops fail fast
// with ErrTransport while the server is unreachable, then succeed once it
// is back.
func TestClientBackoffThenRecovery(t *testing.T) {
	db := NewDB()
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newFaultProxy(t, srv.Addr())
	c, err := Dial(proxy.Addr(), WithBackoff(time.Millisecond, 10*time.Millisecond), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	proxy.SetRefuse(true)
	proxy.KillActive()
	if _, err := c.RemoteStats(); !errors.Is(err, ErrTransport) {
		t.Fatalf("stats with refused connections = %v, want ErrTransport", err)
	}
	proxy.SetRefuse(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.RemoteStats(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after server came back")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
