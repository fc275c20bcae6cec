// ShardedClient: the routing layer over a shard group. ME drivers and
// worker pools use it exactly like a single-shard Client; underneath it
// routes every op to the owning shard:
//
//   - Submits route by key (the payload) through the canonical hash ring —
//     the same ring every server builds from the shard count, so a
//     misrouted submit is caught server-side with a wrong_shard redirect,
//     which the client follows transparently.
//   - Task-addressed ops (result and finish_batch entries) route by the
//     task ID's stride: ShardOfTask(id, n).
//   - pop_batch fans out: the client keeps one outstanding pop per shard
//     per task type, returns as soon as any shard delivers, and buffers
//     late deliveries (their leases are live connection-scoped claims) for
//     the next call. Buffered tasks are handed out in deterministic order:
//     sorted by shard index, preserving per-shard delivery order.
//
// Per-shard connections are dialed lazily and redialed on demand, so a
// shard that is mid-failover only degrades ops that route to it;
// SetShardAddr repoints one shard at its promoted follower.
package emews

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// fanErrorBackoff paces per-shard pop retries after an error so a dead
// shard cannot spin the fan-out loop.
const fanErrorBackoff = 25 * time.Millisecond

// ShardedClient is a client for a whole shard group. Methods are safe for
// concurrent use.
type ShardedClient struct {
	opts []ClientOption
	ring *Ring

	mu      sync.Mutex
	addrs   []string
	clients []*Client // lazily dialed; nil until first use
	closed  bool
	fans    map[string]*popFan

	closeCh chan struct{}
}

// fanTask is one buffered pop_batch delivery, tagged with its source
// shard for the deterministic merge.
type fanTask struct {
	shard int
	task  RemoteTask
}

// popFan is the per-task-type fan-out state: which shards have a pop in
// flight, and deliveries not yet handed to a caller.
type popFan struct {
	inflight map[int]bool
	buf      []fanTask
	wake     chan struct{} // 1-buffered: a delivery or error landed
}

// DialShardGroup builds a routing client over the shard group whose
// member i listens on addrs[i]. Connections are dialed lazily, so a group
// with a member mid-failover can still be constructed; the first op that
// routes to the missing member reports the dial error.
func DialShardGroup(addrs []string, opts ...ClientOption) (*ShardedClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("emews: shard group needs at least one address")
	}
	sc := &ShardedClient{
		opts:    opts,
		ring:    NewRing(len(addrs)),
		addrs:   append([]string(nil), addrs...),
		clients: make([]*Client, len(addrs)),
		fans:    map[string]*popFan{},
		closeCh: make(chan struct{}),
	}
	return sc, nil
}

// Shards returns the group size.
func (sc *ShardedClient) Shards() int { return sc.ring.Shards() }

// SetShardAddr repoints shard i — e.g. at a promoted follower after
// failover — closing any existing connection so subsequent ops redial.
func (sc *ShardedClient) SetShardAddr(i int, addr string) error {
	sc.mu.Lock()
	if i < 0 || i >= len(sc.addrs) {
		sc.mu.Unlock()
		return fmt.Errorf("emews: shard %d out of range for %d shards", i, len(sc.addrs))
	}
	sc.addrs[i] = addr
	old := sc.clients[i]
	sc.clients[i] = nil
	sc.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// Close closes every per-shard connection and interrupts waiting pops.
func (sc *ShardedClient) Close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	sc.closed = true
	close(sc.closeCh)
	clients := append([]*Client(nil), sc.clients...)
	sc.mu.Unlock()
	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
	return nil
}

// client returns (dialing if needed) the connection to shard i.
func (sc *ShardedClient) client(i int) (*Client, error) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, closedClientErr()
	}
	if i < 0 || i >= len(sc.addrs) {
		sc.mu.Unlock()
		return nil, fmt.Errorf("emews: shard %d out of range for %d shards", i, len(sc.addrs))
	}
	if cl := sc.clients[i]; cl != nil {
		sc.mu.Unlock()
		return cl, nil
	}
	addr := sc.addrs[i]
	sc.mu.Unlock()

	cl, err := Dial(addr, sc.opts...)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		cl.Close()
		return nil, closedClientErr()
	}
	if existing := sc.clients[i]; existing != nil {
		// Another op dialed concurrently; keep the first.
		sc.mu.Unlock()
		cl.Close()
		return existing, nil
	}
	if sc.addrs[i] != addr {
		// The shard was repointed while we dialed the old address.
		sc.mu.Unlock()
		cl.Close()
		return sc.client(i)
	}
	sc.clients[i] = cl
	sc.mu.Unlock()
	return cl, nil
}

// onShard runs op against the routed shard, following wrong_shard
// redirects. Normally the redirect target accepts on the first hop (the
// server's ring is authoritative when versions skew); if the target
// redirects too — the group's address order disagrees with the servers'
// own identities — the untried members are probed in index order, so a
// permuted address list degrades to a scan instead of a livelock. Each
// member is tried at most once.
func (sc *ShardedClient) onShard(shard int, op func(cl *Client) error) error {
	n := sc.Shards()
	tried := make([]bool, n)
	if shard < 0 || shard >= n {
		shard = 0
	}
	for {
		cl, err := sc.client(shard)
		if err != nil {
			return err
		}
		err = op(cl)
		var ws *WrongShardError
		if !errors.As(err, &ws) {
			return err
		}
		tried[shard] = true
		next := ws.Shard
		if next < 0 || next >= n || tried[next] {
			next = -1
			for i := 0; i < n; i++ {
				if !tried[i] {
					next = i
					break
				}
			}
			if next == -1 {
				return err
			}
		}
		shard = next
	}
}

// Submit inserts a task on the shard owning its payload key.
func (sc *ShardedClient) Submit(taskType string, priority int, payload string) (int64, error) {
	return sc.SubmitRetry(taskType, priority, payload, 0)
}

// SubmitRetry inserts a task with a retry budget on the shard owning its
// payload key (SubmitBatch of one). Like Client.SubmitRetry it is not
// transport-retried once the request may have been applied.
func (sc *ShardedClient) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (int64, error) {
	ids, err := sc.SubmitBatch(taskType, priority, []string{payload}, maxAttempts)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SubmitBatch splits the payloads across their owning shards (one
// submit_batch per shard, concurrently) and returns IDs in payload order.
// Atomicity is per shard, not per group: on error, groups that reached
// their shard first are committed — callers reconcile the same way they
// would after a transport-ambiguous Client.SubmitBatch.
func (sc *ShardedClient) SubmitBatch(taskType string, priority int, payloads []string, maxAttempts int) ([]int64, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	ids := make([]int64, len(payloads))
	errs := make([]error, sc.Shards()) // each group writes only its own slots
	shardOf := func(i int) int { return sc.ring.Lookup(payloads[i]) }
	sc.eachShard(len(payloads), shardOf, func(shard int, idxs []int) {
		batch := make([]string, len(idxs))
		for j, i := range idxs {
			batch[j] = payloads[i]
		}
		// Every payload in the group has the same ring owner, so any one
		// is a routing key; the shortest is the cheapest to send and for
		// the server to re-hash.
		key := slices.MinFunc(batch, func(a, b string) int { return len(a) - len(b) })
		var got []int64
		err := sc.onShard(shard, func(cl *Client) error {
			var err error
			got, err = cl.submitBatchKeyed(taskType, priority, batch, key, maxAttempts)
			return err
		})
		if err != nil {
			errs[shard] = err
			return
		}
		for j, i := range idxs {
			ids[i] = got[j]
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// eachShard groups the indices 0…n-1 (n > 0) by shardOf, keeping input
// order, and calls fn for every non-empty group concurrently: one group
// on the caller's goroutine, each other group on its own. It returns
// when every call has.
func (sc *ShardedClient) eachShard(n int, shardOf func(i int) int, fn func(shard int, idxs []int)) {
	groups := make([][]int, sc.Shards())
	for i := 0; i < n; i++ {
		s := shardOf(i)
		groups[s] = append(groups[s], i)
	}
	var wg sync.WaitGroup
	inline := -1
	for shard, idxs := range groups {
		if len(idxs) > 0 && inline < 0 {
			inline = shard
		} else if len(idxs) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(shard, idxs)
			}()
		}
	}
	fn(inline, groups[inline])
	wg.Wait()
}

// Complete resolves a claimed attempt on the task's owning shard.
func (sc *ShardedClient) Complete(taskID, epoch int64, result string) error {
	return sc.onShard(ShardOfTask(taskID, sc.Shards()), func(cl *Client) error {
		return cl.Complete(taskID, epoch, result)
	})
}

// Fail resolves a claimed attempt as failed on the task's owning shard.
func (sc *ShardedClient) Fail(taskID, epoch int64, errMsg string) error {
	return sc.onShard(ShardOfTask(taskID, sc.Shards()), func(cl *Client) error {
		return cl.Fail(taskID, epoch, errMsg)
	})
}

// Result polls a task's terminal result from its owning shard.
func (sc *ShardedClient) Result(taskID int64) (result string, done bool, err error) {
	err = sc.onShard(ShardOfTask(taskID, sc.Shards()), func(cl *Client) error {
		var oerr error
		result, done, oerr = cl.Result(taskID)
		return oerr
	})
	return result, done, err
}

// FinishBatch splits the resolutions across their owning shards (one
// finish_batch per shard, concurrently) and returns per-op outcomes in
// input order. Unlike Client.FinishBatch, a shard-level exchange failure
// is reported in that shard's per-op slots (wrapped ErrTransport) rather
// than failing the whole call: the other shards' outcomes are real and
// must reach the caller.
func (sc *ShardedClient) FinishBatch(ops []FinishOp) ([]error, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	n := sc.Shards()
	errs := make([]error, len(ops))
	// Each group writes only its own slots of errs.
	shardOf := func(i int) int { return ShardOfTask(ops[i].TaskID, n) }
	sc.eachShard(len(ops), shardOf, func(shard int, idxs []int) {
		batch := make([]FinishOp, len(idxs))
		for j, i := range idxs {
			batch[j] = ops[i]
		}
		var got []error
		err := sc.onShard(shard, func(cl *Client) error {
			var err error
			got, err = cl.FinishBatch(batch)
			return err
		})
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			return
		}
		for j, i := range idxs {
			errs[i] = got[j]
		}
	})
	return errs, nil
}

// RemoteStats sums occupancy counters across every shard.
func (sc *ShardedClient) RemoteStats() (Stats, error) {
	per, err := sc.ShardStats()
	if err != nil {
		return Stats{}, err
	}
	var sum Stats
	for _, st := range per {
		sum.Queued += st.Queued
		sum.Running += st.Running
		sum.Complete += st.Complete
		sum.Failed += st.Failed
		sum.Canceled += st.Canceled
		sum.Submitted += st.Submitted
	}
	return sum, nil
}

// ShardStats fetches per-shard occupancy counters, indexed by shard.
func (sc *ShardedClient) ShardStats() ([]Stats, error) {
	out := make([]Stats, sc.Shards())
	for i := range out {
		cl, err := sc.client(i)
		if err != nil {
			return nil, err
		}
		st, err := cl.RemoteStats()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// fan returns the fan-out state for taskType. Caller must hold sc.mu.
func (sc *ShardedClient) fanLocked(taskType string) *popFan {
	f, ok := sc.fans[taskType]
	if !ok {
		f = &popFan{inflight: map[int]bool{}, wake: make(chan struct{}, 1)}
		sc.fans[taskType] = f
	}
	return f
}

// Pop claims one task of taskType from any shard (PopBatch of one).
func (sc *ShardedClient) Pop(taskType string, timeout time.Duration) (RemoteTask, bool, error) {
	tasks, err := sc.PopBatch(taskType, 1, timeout)
	if err != nil || len(tasks) == 0 {
		return RemoteTask{}, false, err
	}
	return tasks[0], true, nil
}

// PopBatch claims up to max tasks of taskType across the group, waiting
// up to timeout (0 = wait indefinitely) for the first delivery. The
// fan-out keeps at most one pop_batch outstanding per shard; deliveries
// beyond max (or arriving after this call returns) stay buffered — their
// leases are live — and are returned by the next call, sorted by shard
// index with per-shard delivery order preserved, so two runs over the
// same delivery history hand out the same order.
func (sc *ShardedClient) PopBatch(taskType string, max int, timeout time.Duration) ([]RemoteTask, error) {
	if max < 1 {
		max = 1
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		sc.mu.Lock()
		if sc.closed {
			sc.mu.Unlock()
			return nil, closedClientErr()
		}
		f := sc.fanLocked(taskType)
		if len(f.buf) > 0 {
			out := takeFanTasks(f, max)
			rearm := len(f.buf) > 0
			sc.mu.Unlock()
			if rearm {
				// Leftovers for the next waiter: re-signal so a concurrent
				// PopBatch on this type does not sleep on a full buffer.
				select {
				case f.wake <- struct{}{}:
				default:
				}
			}
			return out, nil
		}
		// Launch a pop on every shard that does not have one in flight.
		for i := 0; i < sc.Shards(); i++ {
			if f.inflight[i] {
				continue
			}
			f.inflight[i] = true
			go sc.fanPop(f, taskType, i, max, timeout)
		}
		sc.mu.Unlock()

		select {
		case <-f.wake:
		case <-deadline:
			return nil, nil
		case <-sc.closeCh:
			return nil, closedClientErr()
		}
	}
}

// takeFanTasks hands out up to max buffered deliveries in deterministic
// order: stable-sorted by shard index. Caller holds sc.mu.
func takeFanTasks(f *popFan, max int) []RemoteTask {
	sort.SliceStable(f.buf, func(i, j int) bool { return f.buf[i].shard < f.buf[j].shard })
	n := len(f.buf)
	if n > max {
		n = max
	}
	out := make([]RemoteTask, n)
	for i := 0; i < n; i++ {
		out[i] = f.buf[i].task
	}
	f.buf = append(f.buf[:0], f.buf[n:]...)
	return out
}

// fanPop is one shard's leg of the fan-out: pop, buffer the deliveries,
// release the in-flight slot, wake a waiter. Errors (shard down,
// mid-failover) release the slot after a short backoff so the retry loop
// cannot spin against a dead shard.
func (sc *ShardedClient) fanPop(f *popFan, taskType string, shard, max int, timeout time.Duration) {
	var tasks []RemoteTask
	cl, err := sc.client(shard)
	if err == nil {
		tasks, err = cl.PopBatch(taskType, max, timeout)
	}
	if err != nil && !errors.Is(err, errClientClosed) {
		t := time.NewTimer(fanErrorBackoff)
		select {
		case <-t.C:
		case <-sc.closeCh:
			t.Stop()
		}
	}
	sc.mu.Lock()
	delete(f.inflight, shard)
	for _, task := range tasks {
		f.buf = append(f.buf, fanTask{shard: shard, task: task})
	}
	sc.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}
