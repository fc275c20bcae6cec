package globus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/scheduler"
)

func testAuthToken(t *testing.T, scopes ...Scope) (*Auth, *Token) {
	t.Helper()
	a := NewAuth()
	return a, a.Issue("alice", 0, scopes...)
}

func TestAuthScopes(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTransfer)
	if _, err := a.Validate(tok.ID, ScopeTransfer); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Validate(tok.ID, ScopeCompute); !errors.Is(err, ErrForbidden) {
		t.Fatalf("wrong-scope error = %v", err)
	}
	if _, err := a.Validate("tok-bogus", ScopeTransfer); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown-token error = %v", err)
	}
}

func TestAuthExpiry(t *testing.T) {
	a := NewAuth()
	tok := a.Issue("bob", time.Millisecond, ScopeTransfer)
	time.Sleep(5 * time.Millisecond)
	if _, err := a.Validate(tok.ID, ScopeTransfer); err == nil {
		t.Fatal("expired token accepted")
	}
}

func TestAuthRevoke(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTimers)
	a.Revoke(tok.ID)
	if _, err := a.Validate(tok.ID, ScopeTimers); err == nil {
		t.Fatal("revoked token accepted")
	}
}

func TestEndpointPutGetListDelete(t *testing.T) {
	e := NewEndpoint("eagle")
	if err := e.CreateCollection("ww", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateCollection("ww", "alice"); err == nil {
		t.Fatal("duplicate collection accepted")
	}
	if err := e.Put("ww", "raw/obrien.csv", "alice", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := e.Get("ww", "raw/obrien.csv", "alice")
	if err != nil || string(got) != "data" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := e.Put("ww", "raw/calumet.csv", "alice", []byte("x")); err != nil {
		t.Fatal(err)
	}
	paths, err := e.List("ww", "raw/", "alice")
	if err != nil || len(paths) != 2 {
		t.Fatalf("List = %v, %v", paths, err)
	}
	if paths[0] != "raw/calumet.csv" {
		t.Fatal("List not sorted")
	}
	if _, err := e.Get("ww", "raw/missing.csv", "alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestCollectionPermissions(t *testing.T) {
	e := NewEndpoint("eagle")
	if err := e.CreateCollection("shared", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("shared", "f", "alice", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Stakeholder bob has no access yet.
	if _, err := e.Get("shared", "f", "bob"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("unauthorized read error = %v", err)
	}
	// Only the owner can grant.
	if err := e.SetPermission("shared", "mallory", "bob", PermRead); !errors.Is(err, ErrForbidden) {
		t.Fatalf("non-owner ACL change error = %v", err)
	}
	if err := e.SetPermission("shared", "alice", "bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("shared", "f", "bob"); err != nil {
		t.Fatalf("granted read failed: %v", err)
	}
	// Read does not imply write.
	if err := e.Put("shared", "g", "bob", []byte("w")); !errors.Is(err, ErrForbidden) {
		t.Fatalf("read-only write error = %v", err)
	}
}

func TestTransferMovesDataWithChecksum(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTransfer)
	src := NewEndpoint("bebop-scratch")
	dst := NewEndpoint("eagle")
	for _, e := range []*Endpoint{src, dst} {
		if err := e.CreateCollection("c", "alice"); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte(strings.Repeat("wastewater,", 1000))
	if err := src.Put("c", "in.csv", "alice", payload); err != nil {
		t.Fatal(err)
	}
	svc := NewTransferService(a)
	task, err := svc.Submit(tok.ID, Location{src, "c", "in.csv"}, Location{dst, "c", "out.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if st, _ := task.Status(); st != TransferSucceeded {
		t.Fatalf("status = %v", st)
	}
	if task.Checksum == "" {
		t.Fatal("no checksum recorded")
	}
	got, err := dst.Get("c", "out.csv", "alice")
	if err != nil || string(got) != string(payload) {
		t.Fatal("transferred content mismatch")
	}
	// Task lookup works.
	if _, err := svc.Task(task.ID); err != nil {
		t.Fatal(err)
	}
}

func TestTransferFailsOnMissingSource(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTransfer)
	src := NewEndpoint("a")
	dst := NewEndpoint("b")
	src.CreateCollection("c", "alice")
	dst.CreateCollection("c", "alice")
	svc := NewTransferService(a)
	task, err := svc.Submit(tok.ID, Location{src, "c", "nope"}, Location{dst, "c", "out"})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err == nil {
		t.Fatal("missing source transfer succeeded")
	}
}

func TestTransferRequiresScope(t *testing.T) {
	a := NewAuth()
	tok := a.Issue("alice", 0, ScopeCompute) // wrong scope
	svc := NewTransferService(a)
	if _, err := svc.Submit(tok.ID, Location{}, Location{}); err == nil {
		t.Fatal("transfer without scope accepted")
	}
}

func TestComputeLoginNode(t *testing.T) {
	a, tok := testAuthToken(t, ScopeCompute)
	ep := NewComputeEndpoint("bebop-login", a, LoginNodeEngine{})
	fid, err := ep.RegisterFunction(tok.ID, "double", func(ctx context.Context, p []byte) ([]byte, error) {
		return append(p, p...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ep.Call(tok.ID, fid, []byte("ab"))
	if err != nil || string(out) != "abab" {
		t.Fatalf("Call = %q, %v", out, err)
	}
}

func TestComputeUnknownFunction(t *testing.T) {
	a, tok := testAuthToken(t, ScopeCompute)
	ep := NewComputeEndpoint("x", a, LoginNodeEngine{})
	if _, err := ep.Submit(tok.ID, "fn-bogus", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown function error = %v", err)
	}
}

func TestComputeTaskFailure(t *testing.T) {
	a, tok := testAuthToken(t, ScopeCompute)
	ep := NewComputeEndpoint("x", a, LoginNodeEngine{})
	fid, _ := ep.RegisterFunction(tok.ID, "fail", func(ctx context.Context, p []byte) ([]byte, error) {
		return nil, fmt.Errorf("kaput")
	})
	task, err := ep.Submit(tok.ID, fid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Result(); err == nil {
		t.Fatal("task failure not propagated")
	}
	if task.Status() != TaskFailed {
		t.Fatalf("status = %v", task.Status())
	}
}

func TestComputeBatchEngineRunsThroughScheduler(t *testing.T) {
	a, tok := testAuthToken(t, ScopeCompute)
	cluster, err := scheduler.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	ep := NewComputeEndpoint("bebop-compute", a, BatchEngine{Cluster: cluster, Nodes: 1, Walltime: time.Second})
	fid, _ := ep.RegisterFunction(tok.ID, "analysis", func(ctx context.Context, p []byte) ([]byte, error) {
		return []byte("rt-done"), nil
	})
	out, err := ep.Call(tok.ID, fid, nil)
	if err != nil || string(out) != "rt-done" {
		t.Fatalf("batch Call = %q, %v", out, err)
	}
	if cluster.Stats().Completed != 1 {
		t.Fatal("job did not go through the scheduler")
	}
	if !strings.Contains(ep.EngineDescription(), "batch") {
		t.Fatal("engine description wrong")
	}
}

func TestComputeBatchWalltimeKillSurfaces(t *testing.T) {
	a, tok := testAuthToken(t, ScopeCompute)
	cluster, _ := scheduler.NewCluster(1)
	defer cluster.Shutdown()
	ep := NewComputeEndpoint("c", a, BatchEngine{Cluster: cluster, Nodes: 1, Walltime: 20 * time.Millisecond})
	fid, _ := ep.RegisterFunction(tok.ID, "slow", func(ctx context.Context, p []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return []byte("late"), nil
		}
	})
	if _, err := ep.Call(tok.ID, fid, nil); err == nil {
		t.Fatal("walltime kill not surfaced")
	}
}

func TestTimersFireAndStop(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTimers)
	svc := NewTimerService(a)
	var mu sync.Mutex
	count := 0
	tm, err := svc.Schedule(tok.ID, "poll", 0, func() {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	tm.Fire()
	tm.Fire()
	tm.Stop()
	tm.Fire() // ignored after stop
	mu.Lock()
	defer mu.Unlock()
	if count != 2 {
		t.Fatalf("callback ran %d times, want 2", count)
	}
	if tm.Fires() != 2 {
		t.Fatalf("Fires() = %d", tm.Fires())
	}
}

func TestTimersPeriodic(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTimers)
	svc := NewTimerService(a)
	defer svc.StopAll()
	done := make(chan struct{})
	var once sync.Once
	_, err := svc.Schedule(tok.ID, "tick", 5*time.Millisecond, func() {
		once.Do(func() { close(done) })
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("periodic timer never fired")
	}
}

func TestFlowRunsStepsInOrder(t *testing.T) {
	a, tok := testAuthToken(t, ScopeFlows)
	svc := NewFlowService(a)
	err := svc.Define(tok.ID, "pipeline", []Step{
		{Name: "fetch", Run: func(ctx context.Context, in any) (any, error) { return "raw", nil }},
		{Name: "transform", Run: func(ctx context.Context, in any) (any, error) {
			return in.(string) + "->clean", nil
		}},
		{Name: "store", Run: func(ctx context.Context, in any) (any, error) {
			return in.(string) + "->stored", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Start(tok.ID, "pipeline", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	if out != "raw->clean->stored" {
		t.Fatalf("flow output = %v", out)
	}
	if run.Status() != FlowRunSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
	if len(run.Log()) != 3 {
		t.Fatalf("log has %d records", len(run.Log()))
	}
}

func TestFlowRetriesThenSucceeds(t *testing.T) {
	a, tok := testAuthToken(t, ScopeFlows)
	svc := NewFlowService(a)
	attempts := 0
	err := svc.Define(tok.ID, "flaky", []Step{
		{Name: "unstable", MaxRetries: 3, Run: func(ctx context.Context, in any) (any, error) {
			attempts++
			if attempts < 3 {
				return nil, fmt.Errorf("transient")
			}
			return "ok", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, _ := svc.Start(tok.ID, "flaky", nil)
	out, err := run.Result()
	if err != nil || out != "ok" {
		t.Fatalf("retry flow = %v, %v", out, err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d", attempts)
	}
	if len(run.Log()) != 3 {
		t.Fatalf("log should record each attempt, got %d", len(run.Log()))
	}
}

func TestFlowFailureAfterRetries(t *testing.T) {
	a, tok := testAuthToken(t, ScopeFlows)
	svc := NewFlowService(a)
	svc.Define(tok.ID, "doomed", []Step{
		{Name: "always-fails", MaxRetries: 2, Run: func(ctx context.Context, in any) (any, error) {
			return nil, fmt.Errorf("nope")
		}},
		{Name: "never-reached", Run: func(ctx context.Context, in any) (any, error) {
			t.Error("later step ran after failure")
			return nil, nil
		}},
	})
	run, _ := svc.Start(tok.ID, "doomed", nil)
	if _, err := run.Result(); err == nil {
		t.Fatal("doomed flow succeeded")
	}
	if run.Status() != FlowRunFailed {
		t.Fatalf("status = %v", run.Status())
	}
}

func TestFlowValidation(t *testing.T) {
	a, tok := testAuthToken(t, ScopeFlows)
	svc := NewFlowService(a)
	if err := svc.Define(tok.ID, "empty", nil); err == nil {
		t.Fatal("empty flow accepted")
	}
	if err := svc.Define(tok.ID, "nilstep", []Step{{Name: "x"}}); err == nil {
		t.Fatal("nil Run accepted")
	}
	if _, err := svc.Start(tok.ID, "unknown", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown flow error = %v", err)
	}
}

func TestConcurrentEndpointAccess(t *testing.T) {
	e := NewEndpoint("eagle")
	e.CreateCollection("c", "alice")
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("f%d", i)
			if err := e.Put("c", path, "alice", []byte{byte(i)}); err != nil {
				t.Error(err)
			}
			if _, err := e.Get("c", path, "alice"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	paths, _ := e.List("c", "", "alice")
	if len(paths) != 20 {
		t.Fatalf("want 20 files, got %d", len(paths))
	}
}

func TestSubmitPrefixTransfersTree(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTransfer)
	src := NewEndpoint("scratch")
	dst := NewEndpoint("archive")
	src.CreateCollection("c", "alice")
	dst.CreateCollection("c", "alice")
	files := map[string]string{
		"results/run1/table.csv": "t1",
		"results/run1/plot.txt":  "p1",
		"results/run2/table.csv": "t2",
		"other/keep.txt":         "nope",
	}
	for p, content := range files {
		if err := src.Put("c", p, "alice", []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewTransferService(a)
	tasks, wait, err := svc.SubmitPrefix(tok.ID,
		Location{src, "c", ""}, "results/",
		Location{dst, "c", ""}, "staged/")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("submitted %d transfers, want 3", len(tasks))
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Get("c", "staged/run1/table.csv", "alice")
	if err != nil || string(got) != "t1" {
		t.Fatalf("staged file = %q, %v", got, err)
	}
	if _, err := dst.Get("c", "staged/keep.txt", "alice"); err == nil {
		t.Fatal("file outside the prefix was transferred")
	}
}

func TestSubmitPrefixEmpty(t *testing.T) {
	a, tok := testAuthToken(t, ScopeTransfer)
	src := NewEndpoint("a")
	dst := NewEndpoint("b")
	src.CreateCollection("c", "alice")
	dst.CreateCollection("c", "alice")
	svc := NewTransferService(a)
	if _, _, err := svc.SubmitPrefix(tok.ID, Location{src, "c", ""}, "nothing/", Location{dst, "c", ""}, "x/"); err == nil {
		t.Fatal("empty prefix transfer accepted")
	}
}
