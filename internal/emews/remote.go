package emews

import (
	"context"
	"errors"
	"sync"
	"time"
)

// RemotePool runs workers that consume tasks from a task database over the
// TCP wire protocol — the EMEWS deployment shape where worker pools live on
// a different resource than the ME algorithm and the database.
type RemotePool struct {
	addr     string
	taskType string
	handler  Handler
	batch    int

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	workers   int
	processed int
	failed    int
	stale     int
}

// StartRemotePool connects `workers` TCP workers to the database served at
// addr and begins consuming tasks of taskType, one task per lease. Each
// worker holds its own connection; the underlying Client transparently
// reconnects with exponential backoff when the connection drops, and
// every resolution is fenced with the claim's attempt epoch.
func StartRemotePool(addr, taskType string, workers int, handler Handler) (*RemotePool, error) {
	return StartRemotePoolBatched(addr, taskType, workers, 1, handler)
}

// StartRemotePoolBatched is StartRemotePool with larger leases: each
// worker leases up to batch tasks per round trip (pop_batch) and resolves
// them together (finish_batch), amortizing the network exchange over the
// batch.
func StartRemotePoolBatched(addr, taskType string, workers, batch int, handler Handler) (*RemotePool, error) {
	if workers <= 0 {
		return nil, errors.New("emews: remote pool needs at least one worker")
	}
	if handler == nil {
		return nil, errors.New("emews: remote pool needs a handler")
	}
	if batch < 1 {
		batch = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &RemotePool{addr: addr, taskType: taskType, handler: handler, batch: batch, cancel: cancel, workers: workers}

	// Verify connectivity before declaring success.
	probe, err := Dial(addr, WithRetries(0))
	if err != nil {
		cancel()
		return nil, err
	}
	probe.Close()

	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(ctx)
	}
	return p, nil
}

func (p *RemotePool) worker(ctx context.Context) {
	defer p.wg.Done()
	var client *Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	for {
		if ctx.Err() != nil {
			return
		}
		if client == nil {
			c, err := Dial(p.addr)
			if err != nil {
				// Server gone or unreachable; back off briefly.
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			client = c
		}
		tasks, err := client.PopBatch(p.taskType, p.batch, 200*time.Millisecond)
		if err != nil {
			// The client already retried over fresh connections; treat a
			// persistent failure as "server unavailable" and redial from
			// scratch after a pause.
			client.Close()
			client = nil
			select {
			case <-ctx.Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		if len(tasks) == 0 {
			continue // poll timeout; loop to observe ctx
		}
		// Evaluate the whole lease, then resolve it in one exchange.
		fins := make([]FinishOp, len(tasks))
		handlerFailed := make([]bool, len(tasks))
		for i, task := range tasks {
			start := time.Now()
			result, herr := p.handler(ctx, task.Payload)
			mPoolHandler.ObserveSince(start)
			if herr != nil {
				fins[i] = FinishOp{TaskID: task.ID, Epoch: task.Epoch, Failed: true, ErrMsg: herr.Error()}
				handlerFailed[i] = true
			} else {
				fins[i] = FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: result}
			}
		}
		resolveErrs, err := client.FinishBatch(fins)
		if err != nil {
			// The exchange itself failed; every resolution is unknown.
			// The server's connection cleanup requeues the claims.
			resolveErrs = make([]error, len(fins))
			for i := range resolveErrs {
				resolveErrs[i] = err
			}
		}
		p.mu.Lock()
		for i := range fins {
			switch {
			case errors.Is(resolveErrs[i], ErrStaleClaim):
				p.stale++
				mPoolStale.Inc()
			case handlerFailed[i]:
				p.failed++
				mPoolFailed.Inc()
			default:
				p.processed++
				mPoolProcessed.Inc()
			}
		}
		p.mu.Unlock()
	}
}

// Stop terminates the workers and waits for them to exit.
func (p *RemotePool) Stop() {
	p.cancel()
	p.wg.Wait()
}

// Stats reports the pool's processed/failed counters.
func (p *RemotePool) Stats() (processed, failed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed, p.failed
}

// Stale reports how many resolutions were rejected as stale claims (the
// worker finished after its lease expired and the task was reclaimed).
func (p *RemotePool) Stale() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stale
}
