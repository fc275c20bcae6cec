// Wire client. Client is the one client of a task database served over
// TCP, for a shard group of one or more members; a lone server is a group
// of one. It routes every op to the owning member:
//
//   - Submits route by key (the payload) through the canonical hash ring —
//     the same ring every member builds from the group size — so a
//     misrouted submit is caught server-side with a wrong_shard redirect,
//     which the client follows.
//   - Task-addressed ops (result and finish_batch entries) route by the
//     task ID's stride: ShardOfTask(id, n).
//   - pop_batch fans out: the client keeps one outstanding pop per member
//     per task type, returns as soon as any member delivers, and buffers
//     late deliveries (their leases are live connection-scoped claims) for
//     the next call. Buffered tasks are handed out sorted by shard index,
//     preserving per-shard delivery order.
//
// Beneath the router, shardConn is one member's connection: a pipelined
// session matching responses to in-flight requests by id, which redials
// with backoff and retries the ops that are safe to re-send. The
// follower's wal_fetch runs on a shardConn directly. The frame codec
// lives in wire.go.
package emews

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransport wraps connection-level client failures (dial, write, read,
// decode). Check with errors.Is to distinguish a flaky network from a
// server-side rejection or a task failure; transport errors are the ones
// worth retrying.
var ErrTransport = errors.New("emews: transport error")

// errClientClosed marks transport errors caused by Close() being called
// on the client itself — never worth retrying.
var errClientClosed = errors.New("client closed")

func closedClientErr() error {
	return fmt.Errorf("%w: %w", ErrTransport, errClientClosed)
}

// TaskError is a task-level failure reported by Result/WaitResult: the
// evaluation itself failed (or was canceled), as opposed to the transport
// or the protocol.
type TaskError struct {
	TaskID int64
	Msg    string
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("emews: task %d failed: %s", e.TaskID, e.Msg)
}

// RemoteTask is a claim handed to a wire client by Pop: the task to
// evaluate plus the attempt epoch that must be echoed back to
// Complete/Fail (claim fencing).
type RemoteTask struct {
	ID      int64
	Epoch   int64
	Payload string
}

// FinishOp is one resolution inside Client.FinishBatch.
type FinishOp struct {
	TaskID int64
	Epoch  int64
	Failed bool // false: complete with Result; true: fail with ErrMsg
	Result string
	ErrMsg string
}

// WrongShardError is a redirect from a shard-group member: the op was
// sent to the wrong shard, was not applied, and should be re-sent to
// Shard. Client follows these; one surfaces only when no member accepts.
type WrongShardError struct {
	Shard int
	Msg   string
}

func (e *WrongShardError) Error() string { return e.Msg }

// Client option defaults.
const (
	defaultOpTimeout   = 30 * time.Second
	defaultBaseBackoff = 20 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
	defaultMaxRetries  = 4
)

// clientConfig is the per-connection policy every member connection of a
// Client shares.
type clientConfig struct {
	opTimeout   time.Duration
	baseBackoff time.Duration
	maxBackoff  time.Duration
	maxRetries  int
}

func newClientConfig(opts ...ClientOption) clientConfig {
	cfg := clientConfig{
		opTimeout:   defaultOpTimeout,
		baseBackoff: defaultBaseBackoff,
		maxBackoff:  defaultMaxBackoff,
		maxRetries:  defaultMaxRetries,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// ClientOption configures a Client at Dial time.
type ClientOption func(*clientConfig)

// WithOpTimeout bounds each request/response round trip (for pop: in
// addition to the requested server-side wait). Zero disables deadlines.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.opTimeout = d }
}

// WithRetries sets how many times a transport-failed op is retried on a
// fresh connection before giving up. Zero disables retries.
func WithRetries(n int) ClientOption {
	return func(c *clientConfig) { c.maxRetries = n }
}

// WithBackoff sets the reconnect backoff range: the first redial waits
// base, doubling up to max on consecutive failures.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *clientConfig) { c.baseBackoff, c.maxBackoff = base, max }
}

// fanErrorBackoff holds a failed pop leg's slot a moment before its shard
// is popped again, so a dead member cannot spin the fan-out.
const fanErrorBackoff = 25 * time.Millisecond

// Client is a TCP client for a shard group of task databases. Methods are
// safe for concurrent use: concurrent ops to one member are pipelined on
// its connection, matched by request id.
//
// Each member's connection is dialed on first use and, when it fails at
// the transport level, redialed with exponential backoff; ops that are
// safe to re-send are retried on it. pop_batch/result/stats are always
// safe: a pop whose response was lost is requeued by the server's
// connection-scoped claim cleanup. finish_batch is safe only when every
// entry is fenced with an attempt epoch, because duplicate fenced
// resolutions are idempotent; unfenced (epoch-0) resolutions are NOT
// retried once the request may have reached the server — a retry could
// land on a different attempt. submit_batch is likewise not retried;
// callers see ErrTransport and decide.
//
// A member that is down degrades only the ops that route to it: they
// fail with ErrTransport while the rest of the group keeps serving.
// SetShardAddr repoints one member, e.g. at its promoted follower.
type Client struct {
	ring    *Ring
	closeCh chan struct{} // closed by Close; interrupts waiting pops

	mu     sync.Mutex
	conns  []*shardConn // one per member, each dialed on first use
	closed bool
	fans   map[string]*popFan
}

// DialShardGroup builds a client for the shard group whose member i
// listens on addrs[i]. Connections are dialed lazily, so a group with a
// member mid-failover can still be built; the first op that routes to the
// missing member reports the dial error.
func DialShardGroup(addrs []string, opts ...ClientOption) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("emews: shard group needs at least one address")
	}
	cfg := newClientConfig(opts...)
	c := &Client{ring: NewRing(len(addrs)), closeCh: make(chan struct{}), fans: map[string]*popFan{}}
	for _, addr := range addrs {
		c.conns = append(c.conns, newShardConn(addr, cfg))
	}
	return c, nil
}

// Dial connects to a lone server: a group of one whose connection is
// dialed eagerly, so an unreachable address fails here.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c, err := DialShardGroup([]string{addr}, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := c.conns[0].ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the group size.
func (c *Client) Shards() int { return c.ring.Shards() }

// SetShardAddr repoints shard i — e.g. at a promoted follower after
// failover — closing its connection so subsequent ops dial the new
// address.
func (c *Client) SetShardAddr(i int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return closedClientErr()
	case i < 0 || i >= len(c.conns):
		return fmt.Errorf("emews: shard %d out of range for %d shards", i, len(c.conns))
	}
	old := c.conns[i]
	c.conns[i] = newShardConn(addr, old.clientConfig)
	old.close()
	return nil
}

// Close closes every member connection and interrupts waiting ops.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.closeCh)
		for _, cn := range c.conns {
			cn.close()
		}
	}
	return nil
}

// conn returns the connection to shard i (0 <= i < Shards()).
func (c *Client) conn(i int) *shardConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[i]
}

// onShard runs op against the routed shard, following wrong_shard
// redirects. Normally the redirect target accepts on the first hop (the
// server's ring is authoritative when versions skew); if the target
// redirects too — the group's address order disagrees with the servers'
// own identities — the untried members are probed in index order, so a
// permuted address list degrades to a scan instead of a livelock. Each
// member is tried at most once.
func (c *Client) onShard(shard int, op func(cn *shardConn) error) error {
	n := c.Shards()
	tried := make([]bool, n)
	if shard < 0 || shard >= n {
		shard = 0
	}
	for {
		err := op(c.conn(shard))
		var ws *WrongShardError
		if !errors.As(err, &ws) {
			return err
		}
		tried[shard] = true
		next := ws.Shard
		if next < 0 || next >= n || tried[next] {
			next = slices.Index(tried, false)
			if next == -1 {
				return err
			}
		}
		shard = next
	}
}

// eachShard groups the indices 0…n-1 (n > 0) by shardOf, keeping input
// order, and calls fn for every non-empty group concurrently: one group
// on the caller's goroutine, each other group on its own. It returns
// when every call has.
func (c *Client) eachShard(n int, shardOf func(i int) int, fn func(shard int, idxs []int)) {
	groups := make([][]int, c.Shards())
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

// Submit inserts a task on the shard owning its payload and returns its
// ID.
func (c *Client) Submit(taskType string, priority int, payload string) (int64, error) {
	return c.SubmitRetry(taskType, priority, payload, 1)
}

// SubmitRetry inserts a task with a retry budget: a failed attempt
// requeues the task until maxAttempts is exhausted. Like Submit, it is
// not transport-retried once the request may have been applied.
func (c *Client) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (int64, error) {
	ids, err := c.SubmitBatch(taskType, priority, []string{payload}, maxAttempts)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SubmitBatch inserts several tasks of one type at one priority and
// returns their IDs in payload order: one submit_batch per owning shard,
// sent concurrently, each atomic on its server (see DB.SubmitBatch).
// maxAttempts > 1 gives every task that retry budget. Atomicity is per
// shard, not per group: on error, the shards that were reached may have
// committed their part, and the batch is not transport-retried once it
// may have been applied — callers reconcile.
func (c *Client) SubmitBatch(taskType string, priority int, payloads []string, maxAttempts int) ([]int64, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	ids := make([]int64, len(payloads))
	errs := make([]error, c.Shards()) // each group writes only its own slots
	shardOf := func(i int) int { return c.ring.Lookup(payloads[i]) }
	c.eachShard(len(payloads), shardOf, func(shard int, idxs []int) {
		batch := make([]string, len(idxs))
		for j, i := range idxs {
			batch[j] = payloads[i]
		}
		// Every payload in the group has the same ring owner, so any one
		// is a routing key; the shortest is the cheapest to send and for
		// the server to re-hash. A group of one has no other owner, so
		// its submits carry no key and a payload may fill the frame alone.
		var key string
		if c.Shards() > 1 {
			key = slices.MinFunc(batch, func(a, b string) int { return len(a) - len(b) })
		}
		var got []int64
		err := c.onShard(shard, func(cn *shardConn) error {
			var err error
			got, err = cn.submitBatch(taskType, priority, batch, key, maxAttempts)
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

// Complete reports a successful evaluation of the claimed attempt. A
// stale claim (epoch superseded) is rejected with ErrStaleClaim.
func (c *Client) Complete(taskID, epoch int64, result string) error {
	return c.finishOne(FinishOp{TaskID: taskID, Epoch: epoch, Result: result})
}

// Fail reports a failed evaluation of the claimed attempt.
func (c *Client) Fail(taskID, epoch int64, errMsg string) error {
	return c.finishOne(FinishOp{TaskID: taskID, Epoch: epoch, Failed: true, ErrMsg: errMsg})
}

// finishOne resolves one attempt as a finish_batch of one.
func (c *Client) finishOne(op FinishOp) error {
	errs, err := c.FinishBatch([]FinishOp{op})
	if err != nil {
		return err
	}
	return errs[0]
}

// FinishBatch resolves many claimed attempts: one finish_batch per owning
// shard, sent concurrently. The returned slice has one entry per op, in
// order: nil for an accepted resolution, an ErrStaleClaim-matching error
// for a superseded claim, a *WrongShardError for a task no member owns,
// the server's rejection, or — when that op's shard exchange failed — the
// exchange's error. The second return value is non-nil exactly when no
// op's outcome is known: every shard exchange failed (transport,
// protocol).
func (c *Client) FinishBatch(ops []FinishOp) ([]error, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	n := c.Shards()
	errs := make([]error, len(ops)) // each group writes only its own slots
	var known atomic.Bool
	shardOf := func(i int) int { return ShardOfTask(ops[i].TaskID, n) }
	c.eachShard(len(ops), shardOf, func(shard int, idxs []int) {
		batch := make([]FinishOp, len(idxs))
		for j, i := range idxs {
			batch[j] = ops[i]
		}
		var got []error
		err := c.onShard(shard, func(cn *shardConn) error {
			var err error
			got, err = cn.finishBatch(batch)
			return err
		})
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			return
		}
		known.Store(true)
		for j, i := range idxs {
			errs[i] = got[j]
		}
	})
	if !known.Load() {
		return nil, errs[0]
	}
	return errs, nil
}

// Result polls a task's terminal result from its owning shard;
// done=false means still pending. A failed or canceled task is reported
// as (*TaskError, done=true); transport problems are reported wrapped in
// ErrTransport.
func (c *Client) Result(taskID int64) (result string, done bool, err error) {
	err = c.onShard(ShardOfTask(taskID, c.Shards()), func(cn *shardConn) error {
		var oerr error
		result, done, oerr = cn.result(taskID)
		return oerr
	})
	return result, done, err
}

// WaitResult polls Result until the task terminates or ctx cancels.
// Transport errors are transient here: the poll keeps going (the client's
// reconnect/backoff paces the retries) until the context gives up, so a
// server restart or network blip does not abort the wait. A task failure
// (*TaskError) terminates it.
func (c *Client) WaitResult(ctx context.Context, taskID int64, pollEvery time.Duration) (string, error) {
	if pollEvery <= 0 {
		pollEvery = 10 * time.Millisecond
	}
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	for {
		res, done, err := c.Result(taskID)
		switch {
		case err == nil && done:
			return res, nil
		case err != nil && !errors.Is(err, ErrTransport):
			// Task failure or server-side rejection: definitive.
			return "", err
		case err != nil && ctx.Err() == nil:
			// Transport error: keep polling until ctx expires.
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-ticker.C:
		}
	}
}

// RemoteStats sums occupancy counters across every shard.
func (c *Client) RemoteStats() (Stats, error) {
	per, err := c.ShardStats()
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
func (c *Client) ShardStats() ([]Stats, error) {
	out := make([]Stats, c.Shards())
	for i := range out {
		var err error
		if out[i], err = c.conn(i).stats(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- pop fan-out ----

// popFan is the per-task-type fan-out state: one leg per shard, and
// deliveries not yet handed to a caller.
type popFan struct {
	legs []fanLeg
	buf  []fanTask
	wake chan struct{} // closed (and replaced) whenever a leg changes
}

// fanLeg is one shard's pop slot. Legs are numbered per shard in launch
// order; at most one is busy at a time.
type fanLeg struct {
	busy  bool   // a pop is in flight, or its error backoff is running
	seq   uint64 // number of the latest leg launched
	done  uint64 // number of the latest leg whose pop returned
	err   error  // that pop's error
	empty bool   // that pop's server answered with no task
}

// fanTask is one buffered pop_batch delivery, tagged with its source
// shard for the deterministic merge.
type fanTask struct {
	shard int
	task  RemoteTask
}

// fanLocked returns the fan-out state for taskType. Caller holds c.mu.
func (c *Client) fanLocked(taskType string) *popFan {
	f, ok := c.fans[taskType]
	if !ok {
		f = &popFan{legs: make([]fanLeg, c.Shards()), wake: make(chan struct{})}
		c.fans[taskType] = f
	}
	return f
}

// wakeLocked wakes every caller waiting on f. Caller holds c.mu.
func (f *popFan) wakeLocked() {
	close(f.wake)
	f.wake = make(chan struct{})
}

// Pop claims one task of taskType from any shard, waiting up to timeout
// (0 = wait indefinitely). It returns ok=false if the wait ended empty.
// The returned claim carries the attempt epoch to pass to Complete/Fail.
func (c *Client) Pop(taskType string, timeout time.Duration) (task RemoteTask, ok bool, err error) {
	tasks, err := c.PopBatch(taskType, 1, timeout)
	if err != nil || len(tasks) == 0 {
		return RemoteTask{}, false, err
	}
	return tasks[0], true, nil
}

// PopBatch claims up to max tasks of taskType across the group, waiting
// up to timeout (0 = wait indefinitely) for the first delivery; once any
// task is available it returns with what is buffered, up to max.
// Deliveries beyond max (or arriving after this call returns) stay
// buffered — their leases are live — and are returned by the next call,
// sorted by shard index with per-shard delivery order preserved, so two
// runs over the same delivery history hand out the same order.
//
// It returns a nil slice and no error when the wait ends empty: at the
// timeout, or when a member the call popped answers empty (a server
// shutting down ends a blocking pop that way). It returns the transport
// error when every member's pop in this call failed and no task is
// buffered; while any member is still waiting, a failing one is re-popped
// after a short pause.
func (c *Client) PopBatch(taskType string, max int, timeout time.Duration) ([]RemoteTask, error) {
	if max < 1 {
		max = 1
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	n := c.Shards()
	mine := make([]uint64, n)  // the legs this call launched, by shard
	failed := make([]error, n) // this call's latest outcome per shard, when a failure
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, closedClientErr()
		}
		f := c.fanLocked(taskType)
		if len(f.buf) > 0 {
			out := takeFanTasks(f, max)
			c.mu.Unlock()
			return out, nil
		}
		down := 0
		for s := range f.legs {
			l := &f.legs[s]
			if mine[s] != 0 && l.done == mine[s] {
				if l.err == nil && l.empty {
					c.mu.Unlock()
					return nil, nil
				}
				failed[s], mine[s] = l.err, 0
			}
			if failed[s] != nil {
				down++
			}
		}
		if down == n {
			c.mu.Unlock()
			return nil, errors.Join(failed...)
		}
		for s := range f.legs {
			if l := &f.legs[s]; !l.busy {
				l.busy = true
				l.seq++
				mine[s] = l.seq
				go c.fanPop(f, taskType, s, l.seq, max, timeout)
			}
		}
		wake := f.wake
		c.mu.Unlock()

		select {
		case <-wake:
		case <-deadline:
			return nil, nil
		case <-c.closeCh:
			return nil, closedClientErr()
		}
	}
}

// takeFanTasks hands out up to max buffered deliveries in deterministic
// order: stable-sorted by shard index. Caller holds c.mu.
func takeFanTasks(f *popFan, max int) []RemoteTask {
	sort.SliceStable(f.buf, func(i, j int) bool { return f.buf[i].shard < f.buf[j].shard })
	n := min(len(f.buf), max)
	out := make([]RemoteTask, n)
	for i := 0; i < n; i++ {
		out[i] = f.buf[i].task
	}
	f.buf = append(f.buf[:0], f.buf[n:]...)
	return out
}

// fanPop is leg seq of shard's fan-out: pop, buffer the deliveries, record
// the outcome, wake the waiters. A failed leg keeps its slot for
// fanErrorBackoff before releasing it. A pop cut short because its
// connection was closed (Close, or SetShardAddr repointing the shard) has
// no outcome: the shard is simply popped again.
func (c *Client) fanPop(f *popFan, taskType string, shard int, seq uint64, max int, timeout time.Duration) {
	tasks, err := c.conn(shard).popBatch(taskType, max, timeout)
	pause := err != nil && !errors.Is(err, errClientClosed)
	c.mu.Lock()
	l := &f.legs[shard]
	l.done = seq
	l.err, l.empty = nil, false
	switch {
	case pause:
		l.err = err
	case err == nil:
		l.empty = len(tasks) == 0
	}
	for _, task := range tasks {
		f.buf = append(f.buf, fanTask{shard: shard, task: task})
	}
	l.busy = pause
	f.wakeLocked()
	c.mu.Unlock()
	if !pause {
		return
	}
	t := time.NewTimer(fanErrorBackoff)
	select {
	case <-t.C:
	case <-c.closeCh:
		t.Stop()
	}
	c.mu.Lock()
	l.busy = false
	f.wakeLocked()
	c.mu.Unlock()
}

// ---- one member's connection ----

// shardConn is the connection to one server: one pipelined session at a
// time, redialed (with handshake and exponential backoff) when it fails,
// with one method per wire op. Methods are safe for concurrent use.
type shardConn struct {
	clientConfig
	addr    string
	closeCh chan struct{} // closed by close; interrupts backoff waits and pending ops

	// dialMu serializes connect attempts (including the backoff sleep),
	// deliberately separate from mu so close and established-connection
	// ops never wait behind a redial in progress.
	dialMu sync.Mutex

	mu      sync.Mutex
	closed  bool
	sess    *clientSession // the live connection; nil when disconnected
	backoff time.Duration  // next redial delay; 0 after a healthy connect
}

// newShardConn returns the connection to addr, not yet dialed.
func newShardConn(addr string, cfg clientConfig) *shardConn {
	return &shardConn{clientConfig: cfg, addr: addr, closeCh: make(chan struct{})}
}

// dialConn connects to the server at addr, failing if it cannot.
func dialConn(addr string, cfg clientConfig) (*shardConn, error) {
	cn := newShardConn(addr, cfg)
	if _, err := cn.ensureConn(); err != nil {
		return nil, err
	}
	return cn, nil
}

// close closes the connection and interrupts any in-progress backoff wait
// or pending op.
func (c *shardConn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.closeCh)
	sess := c.sess
	c.sess = nil
	c.mu.Unlock()
	if sess != nil {
		sess.shutdown()
	}
}

func (c *shardConn) bumpBackoffLocked() {
	if c.backoff == 0 {
		c.backoff = c.baseBackoff
	} else if c.backoff < c.maxBackoff {
		c.backoff = min(2*c.backoff, c.maxBackoff)
	}
}

// ensureConn returns the live session, dialing (with handshake and
// interruptible backoff) if there is none. The backoff sleep happens
// under dialMu only, so close and ops on an established connection are
// never blocked behind it.
func (c *shardConn) ensureConn() (*clientSession, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, closedClientErr()
	}
	if c.sess != nil {
		sess := c.sess
		c.mu.Unlock()
		return sess, nil
	}
	c.mu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Another op may have finished connecting while we waited for dialMu.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, closedClientErr()
	}
	if c.sess != nil {
		sess := c.sess
		c.mu.Unlock()
		return sess, nil
	}
	backoff := c.backoff
	c.mu.Unlock()

	if backoff > 0 {
		t := time.NewTimer(backoff)
		select {
		case <-c.closeCh:
			t.Stop()
			return nil, closedClientErr()
		case <-t.C:
		}
	}
	dialTimeout := c.opTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		c.mu.Lock()
		c.bumpBackoffLocked()
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s: %v", ErrTransport, c.addr, err)
	}
	r := bufio.NewReader(conn)
	if err := handshake(conn, r, dialTimeout); err != nil {
		conn.Close()
		c.mu.Lock()
		c.bumpBackoffLocked()
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: handshake %s: %v", ErrTransport, c.addr, err)
	}
	sess := newClientSession(conn, r)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		sess.shutdown()
		return nil, closedClientErr()
	}
	c.backoff = 0
	c.sess = sess
	c.mu.Unlock()
	return sess, nil
}

// handshake sends the hello on a fresh connection and reads the ack. It
// proves the peer live before any op is written, so a connection that is
// accepted and then dropped fails here, where a retry is always safe.
func handshake(conn net.Conn, r io.Reader, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	if _, err := conn.Write([]byte(clientHello)); err != nil {
		return err
	}
	var ack [len(serverHelloAck)]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return err
	}
	if string(ack[:]) != serverHelloAck {
		return fmt.Errorf("unexpected handshake reply %q", ack[:])
	}
	return nil
}

// drop discards sess if it is still the current session and arms the
// reconnect backoff. Safe to call from several ops that failed on the
// same session.
func (c *shardConn) drop(sess *clientSession) {
	c.mu.Lock()
	if c.sess == sess {
		c.sess = nil
		if c.backoff == 0 {
			c.backoff = c.baseBackoff
		}
	}
	c.mu.Unlock()
	sess.shutdown()
}

// retrySafe reports whether req may be re-sent even though the previous
// attempt may have reached the server (see the Client doc comment).
// Resolutions are only retry-safe when fenced: the epoch makes a
// duplicate delivery idempotent, while an unfenced retry could resolve a
// different attempt than the one the caller observed.
func retrySafe(req *wireRequest) bool {
	switch req.Op {
	case opcPopBatch, opcResult, opcStats, opcWALFetch:
		return true
	case opcFinishBatch:
		for _, f := range req.Finishes {
			if f.Epoch <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// exchangeTimeout is the client-side bound for one exchange: the op
// timeout, plus the requested server-side wait for pops. A pop with
// TimeoutMS=0 waits unboundedly by design.
func (c *shardConn) exchangeTimeout(req *wireRequest) time.Duration {
	if c.opTimeout <= 0 {
		return 0
	}
	d := c.opTimeout
	if req.Op == opcPopBatch {
		if req.TimeoutMS == 0 {
			return 0
		}
		d += time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return d
}

// respError converts a server-side rejection into an error.
func respError(resp *wireResponse) error {
	if resp.Error == "" || resp.OK {
		return nil
	}
	return wireResult{WrongShard: resp.WrongShard, Shard: resp.Shard, Error: resp.Error}.err()
}

// staleRemoteError carries a server-side stale-claim rejection verbatim
// (the message already names the attempts) while still matching
// errors.Is(err, ErrStaleClaim).
type staleRemoteError struct{ msg string }

func (e *staleRemoteError) Error() string        { return e.msg }
func (e *staleRemoteError) Is(target error) bool { return target == ErrStaleClaim }

// roundTrip sends req, transparently reconnecting (with exponential
// backoff) and retrying transport failures for retry-safe ops.
func (c *shardConn) roundTrip(req wireRequest) (wireResponse, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		sess, err := c.ensureConn()
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return wireResponse{}, err
			}
			lastErr = err
			if attempt >= c.maxRetries {
				return wireResponse{}, lastErr
			}
			continue
		}
		resp, err := sess.do(&req, c.exchangeTimeout(&req), c.closeCh)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrTransport) {
			// Server-side rejection (stale claim, unknown task, ...):
			// the connection is fine, the request was refused.
			return resp, err
		}
		c.drop(sess)
		if errors.Is(err, errClientClosed) {
			return wireResponse{}, err
		}
		lastErr = err
		if !retrySafe(&req) {
			return wireResponse{}, fmt.Errorf("%w (request may have been applied)", err)
		}
		if attempt >= c.maxRetries {
			return wireResponse{}, lastErr
		}
	}
}

// submitBatch is the submit_batch op. A non-empty key is the shard-routing
// key: a server that is part of a shard group verifies it against its
// hash ring and answers *WrongShardError when it routes elsewhere (the op
// is not applied). Unsharded servers ignore the key.
func (c *shardConn) submitBatch(taskType string, priority int, payloads []string, key string, maxAttempts int) ([]int64, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcSubmitBatch, Type: taskType, Priority: priority, Payloads: payloads, Key: key, MaxAttempts: maxAttempts})
	if err != nil {
		return nil, err
	}
	if len(resp.TaskIDs) != len(payloads) {
		return nil, fmt.Errorf("emews: submit_batch returned %d ids for %d payloads", len(resp.TaskIDs), len(payloads))
	}
	return resp.TaskIDs, nil
}

// popTimeoutMS converts a pop timeout to wire milliseconds. Any positive
// timeout is clamped up to 1ms: truncating (say) 500µs to 0 would turn a
// bounded wait into an unbounded server-side one.
func popTimeoutMS(timeout time.Duration) int {
	if timeout <= 0 {
		return 0
	}
	return max(int(timeout/time.Millisecond), 1)
}

// popBatch is the pop_batch op: up to max tasks, the server waiting up to
// timeout (0 = indefinitely) for the first. An empty answer is a nil
// slice and no error.
func (c *shardConn) popBatch(taskType string, max int, timeout time.Duration) ([]RemoteTask, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcPopBatch, Type: taskType, Max: max, TimeoutMS: popTimeoutMS(timeout)})
	if err != nil || len(resp.Tasks) == 0 {
		return nil, err
	}
	tasks := make([]RemoteTask, len(resp.Tasks))
	for i, t := range resp.Tasks {
		tasks[i] = RemoteTask{ID: t.ID, Epoch: t.Epoch, Payload: t.Payload}
	}
	return tasks, nil
}

// finishBatch is the finish_batch op: one outcome per op, in order, or an
// exchange error when no outcome is known.
func (c *shardConn) finishBatch(ops []FinishOp) ([]error, error) {
	fins := make([]wireFinish, len(ops))
	for i, op := range ops {
		fins[i] = wireFinish{TaskID: op.TaskID, Epoch: op.Epoch, Failed: op.Failed, Result: op.Result, ErrMsg: op.ErrMsg}
	}
	resp, err := c.roundTrip(wireRequest{Op: opcFinishBatch, Finishes: fins})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(ops) {
		return nil, fmt.Errorf("emews: finish_batch returned %d results for %d ops", len(resp.Results), len(ops))
	}
	errs := make([]error, len(ops))
	for i, r := range resp.Results {
		errs[i] = r.err()
	}
	return errs, nil
}

// result is the result op (see Client.Result).
func (c *shardConn) result(taskID int64) (result string, done bool, err error) {
	resp, err := c.roundTrip(wireRequest{Op: opcResult, TaskID: taskID})
	if err != nil || !resp.Done {
		return "", false, err
	}
	// Failed is authoritative: a task can fail with an empty message.
	if resp.Failed {
		return "", true, &TaskError{TaskID: taskID, Msg: resp.Error}
	}
	return resp.Result, true, nil
}

// stats is the stats op: the server's occupancy counters.
func (c *shardConn) stats() (Stats, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("emews: missing stats in response")
	}
	return *resp.Stats, nil
}

// walFetch is the wal_fetch op, reading the server's WAL (replication).
// Cursor seg 0 requests the bootstrap state: a snapshot (Snapshot=true,
// Data = its payload) or nothing, plus the shipping cursor after it. Any
// other cursor requests the framed records after it in Data, plus the
// next cursor; empty Data = caught up with the tail, and a reply with
// Seg == 0 means the cursor was compacted away: re-bootstrap. Read-only
// and idempotent, so it is transport-retried like pops.
func (c *shardConn) walFetch(seg int, off int64) (wireResponse, error) {
	return c.roundTrip(wireRequest{Op: opcWALFetch, Seg: seg, Off: off})
}

// clientSession pipelines requests on one binary connection: each request
// gets a fresh id and a response channel; a demux goroutine routes
// incoming frames to their waiters, so any number of ops can be in
// flight concurrently.
type clientSession struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wireResponse
	err     error // first transport failure; set once
	done    chan struct{}
}

func newClientSession(conn net.Conn, r *bufio.Reader) *clientSession {
	s := &clientSession{
		conn:    conn,
		pending: map[uint64]chan wireResponse{},
		done:    make(chan struct{}),
	}
	go s.readLoop(r)
	return s
}

// readLoop demultiplexes response frames to their pending waiters until
// the connection fails.
func (s *clientSession) readLoop(r *bufio.Reader) {
	for {
		code, id, payload, err := readFrame(r)
		if err != nil {
			s.fail(fmt.Errorf("%w: read: %v", ErrTransport, err))
			return
		}
		resp, derr := decodeResponsePayload(code, payload)
		putWireBuf(payload)
		if derr != nil {
			s.fail(fmt.Errorf("%w: decode: %v", ErrTransport, derr))
			return
		}
		s.mu.Lock()
		ch := s.pending[id]
		delete(s.pending, id)
		s.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail records the session's terminal error (first one wins), wakes every
// pending waiter via done, and closes the connection. Idempotent.
func (s *clientSession) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.done)
	}
	s.mu.Unlock()
	s.conn.Close()
}

// shutdown terminates the session from the client side (close or drop).
func (s *clientSession) shutdown() {
	s.fail(fmt.Errorf("%w: connection closed", ErrTransport))
}

func (s *clientSession) forget(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

// do sends one request and waits for its response, bounded by timeout
// (0 = no bound), session failure, and client close.
func (s *clientSession) do(req *wireRequest, timeout time.Duration, closeCh <-chan struct{}) (wireResponse, error) {
	ch := make(chan wireResponse, 1)
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return wireResponse{}, err
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = ch
	s.mu.Unlock()

	buf, err := appendRequestFrame(getWireBuf(), id, req)
	if err != nil {
		putWireBuf(buf)
		s.forget(id)
		return wireResponse{}, err
	}
	s.wmu.Lock()
	_, werr := s.conn.Write(buf)
	s.wmu.Unlock()
	putWireBuf(buf)
	if werr != nil {
		s.forget(id)
		werr = fmt.Errorf("%w: write: %v", ErrTransport, werr)
		s.fail(werr)
		return wireResponse{}, werr
	}

	var timeoutCh <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case resp := <-ch:
		return resp, respError(&resp)
	case <-s.done:
		// The session failed; our response may still have been delivered
		// in the race window. Prefer it if so.
		select {
		case resp := <-ch:
			return resp, respError(&resp)
		default:
		}
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		return wireResponse{}, err
	case <-timeoutCh:
		// The connection's state is now ambiguous (a late response would
		// desynchronize nothing, but the op's fate is unknown): kill the
		// session and let roundTrip's retry policy decide.
		s.forget(id)
		err := fmt.Errorf("%w: op %s timed out after %v", ErrTransport, opName(req.Op), timeout)
		s.fail(err)
		return wireResponse{}, err
	case <-closeCh:
		s.forget(id)
		return wireResponse{}, closedClientErr()
	}
}
