package core

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"osprey/internal/aero"
	"osprey/internal/emews"
	"osprey/internal/metarvm"
	"osprey/internal/rt"
)

// TestDistributedDeployment runs the platform in its fully distributed
// shape: the AERO metadata service behind a real HTTP server, and the
// EMEWS task database behind a real TCP server with remote workers — the
// deployment the paper describes, where the metadata service, the ME
// algorithm, and the worker pools live on different resources.
func TestDistributedDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	// Remote AERO metadata service.
	metaStore := aero.NewStore()
	metaSrv := httptest.NewServer(aero.NewServer(metaStore))
	defer metaSrv.Close()

	p, err := New(Config{
		Identity: "distributed",
		Nodes:    8,
		Meta:     aero.NewClient(metaSrv.URL),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	// Use case 1 against the remote metadata service.
	wp, err := NewWastewaterPipeline(p, WastewaterConfig{
		ScenarioDays: 90, StartDay: 70,
		Goldstein: rt.GoldsteinOptions{Iterations: 100, BurnIn: 150},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}
	// The remote store holds the flow registrations and versions; the
	// data bytes live only on the storage endpoint.
	flows, err := metaStore.ListFlows()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 9 {
		t.Fatalf("remote metadata has %d flows, want 9", len(flows))
	}
	if _, err := wp.LatestEnsemble(); err != nil {
		t.Fatalf("ensemble missing in distributed mode: %v", err)
	}

	// Use case 2 with TCP workers: serve the task DB and attach a remote
	// pool instead of an in-process one.
	taskSrv, err := emews.Serve(p.TaskDB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taskSrv.Close()
	pool, err := emews.StartRemotePool([]string{taskSrv.Addr()}, "remote-model", 4, 1,
		func(ctx context.Context, payload string) (string, error) {
			var task struct {
				X    []float64 `json:"x"`
				Seed uint64    `json:"seed"`
			}
			if err := json.Unmarshal([]byte(payload), &task); err != nil {
				return "", err
			}
			y, err := metarvm.EvaluateGSA(task.X, task.Seed)
			if err != nil {
				return "", err
			}
			out, _ := json.Marshal(map[string]float64{"y": y})
			return string(out), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	space := metarvm.GSAParameterSpace()
	var futures []*emews.Future
	for i := 0; i < 8; i++ {
		x := space.Scale([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
		payload, _ := json.Marshal(map[string]any{"x": x, "seed": i + 1})
		f, err := p.TaskDB.Submit("remote-model", 0, string(payload))
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, f := range futures {
		if _, err := f.Result(ctx); err != nil {
			t.Fatalf("remote evaluation failed: %v", err)
		}
	}
	// The futures resolve when the server applies each completion; the
	// pool's counters tick when the worker sees the acknowledgement, so
	// give them a moment to converge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		processed, failed := pool.Stats()
		if processed == 8 && failed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote pool processed %d / failed %d", processed, failed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoPollingTimer verifies that an ingestion flow registered with a
// real PollInterval polls itself (the Globus Timers path) without manual
// Poll calls.
func TestAutoPollingTimer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p, err := New(Config{Identity: "timers", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	wp, err := NewWastewaterPipeline(p, WastewaterConfig{
		ScenarioDays: 90, StartDay: 60,
		Goldstein:    rt.GoldsteinOptions{Iterations: 60, BurnIn: 80},
		PollInterval: 30 * time.Millisecond,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()

	// Without calling PollAll, the timers must ingest the initial data
	// and trigger the analyses.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if wp.Aggregate.Runs() >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.AERO.WaitIdle()
	if wp.Aggregate.Runs() < 1 {
		t.Fatal("automatic polling never drove the pipeline to aggregation")
	}
	ing, _, err := wp.PlantFlow("O'Brien")
	if err != nil {
		t.Fatal(err)
	}
	if ing.Timer() == nil || ing.Timer().Fires() == 0 {
		t.Fatal("poll timer not firing")
	}
}
