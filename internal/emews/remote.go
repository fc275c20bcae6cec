// Remote worker pool: workers that consume tasks from a task database
// over the TCP wire protocol — the EMEWS deployment shape where worker
// pools live on a different resource than the ME algorithm and the
// database, and meet them only through the database. Each worker holds
// its own Client on the shard group, so it pops across every member
// (pop_batch fan-out), resolves each lease with one finish_batch per
// owning member, and rides out a member's outage on the client's
// redial-with-backoff.
package emews

import (
	"context"
	"errors"
	"sync"
	"time"
)

// RemotePool runs workers that consume tasks from a task database shard
// group over the TCP wire protocol.
type RemotePool struct {
	taskType string
	handler  Handler
	batch    int

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	processed int
	failed    int
	stale     int
}

// StartRemotePool starts `workers` workers consuming tasks of taskType
// from the shard group whose member i listens on addrs[i] (one address
// for a lone server). Each worker leases up to batch tasks per pop_batch
// and resolves them together in one FinishBatch, every resolution fenced
// with the claim's attempt epoch. A one-address pool connects eagerly, so
// an unreachable server fails here; a larger group connects lazily, like
// DialShardGroup, so a pool can start while a member is mid-failover.
func StartRemotePool(addrs []string, taskType string, workers, batch int, handler Handler) (*RemotePool, error) {
	if workers <= 0 {
		return nil, errors.New("emews: remote pool needs at least one worker")
	}
	if handler == nil {
		return nil, errors.New("emews: remote pool needs a handler")
	}
	clients := make([]*Client, workers)
	for i := range clients {
		var cl *Client
		var err error
		if len(addrs) == 1 {
			cl, err = Dial(addrs[0])
		} else {
			cl, err = DialShardGroup(addrs)
		}
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, err
		}
		clients[i] = cl
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &RemotePool{taskType: taskType, handler: handler, batch: max(batch, 1), cancel: cancel}
	for _, cl := range clients {
		p.wg.Add(1)
		go p.worker(ctx, cl)
	}
	return p, nil
}

func (p *RemotePool) worker(ctx context.Context, cl *Client) {
	defer p.wg.Done()
	defer cl.Close()
	for ctx.Err() == nil {
		tasks, err := cl.PopBatch(p.taskType, p.batch, 200*time.Millisecond)
		if err != nil {
			// The client already retried and keeps redialing with
			// backoff; pause so a group that is down cannot spin us.
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
		// When the exchange fails (wholesale, or for one member), those
		// resolutions are unknown and the server's connection cleanup
		// requeues the claims; only stale rejections are counted apart.
		resolveErrs, _ := cl.FinishBatch(fins)
		p.mu.Lock()
		for i := range fins {
			switch {
			case resolveErrs != nil && errors.Is(resolveErrs[i], ErrStaleClaim):
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
