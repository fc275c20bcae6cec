// Wire client: Client runs one pipelined session per connection, matching
// responses to in-flight requests by id, and redials and retries the ops
// that are safe to re-send. The frame codec lives in wire.go.
package emews

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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

// Client option defaults.
const (
	defaultOpTimeout   = 30 * time.Second
	defaultBaseBackoff = 20 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
	defaultMaxRetries  = 4
)

// ClientOption configures a Client at Dial time.
type ClientOption func(*Client)

// WithOpTimeout bounds each request/response round trip (for pop: in
// addition to the requested server-side wait). Zero disables deadlines.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.opTimeout = d }
}

// WithRetries sets how many times a transport-failed op is retried on a
// fresh connection before giving up. Zero disables retries.
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.maxRetries = n }
}

// WithBackoff sets the reconnect backoff range: the first redial waits
// base, doubling up to max on consecutive failures.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) { c.baseBackoff, c.maxBackoff = base, max }
}

// Client is a TCP client for a remote task DB. Methods are safe for
// concurrent use: concurrent ops are pipelined on one connection,
// matched by request id.
//
// The client is resilient: when an op fails at the transport level, the
// connection is dropped and redialed with exponential backoff, and ops
// that are safe to re-send are retried. pop_batch/result/stats/wal_fetch
// are always safe: a pop whose response was lost is requeued by the
// server's connection-scoped claim cleanup. finish_batch is safe only when
// every entry is fenced with an attempt epoch, because duplicate fenced
// resolutions are idempotent; unfenced (epoch-0) resolutions are NOT
// retried once the request may have reached the server — a retry could
// land on a different attempt. submit_batch is likewise not retried;
// callers see ErrTransport and decide.
type Client struct {
	addr        string
	opTimeout   time.Duration
	baseBackoff time.Duration
	maxBackoff  time.Duration
	maxRetries  int

	closeCh chan struct{} // closed by Close; interrupts backoff waits and pending ops

	// dialMu serializes connect attempts (including the backoff sleep),
	// deliberately separate from mu so Close and established-connection
	// ops never wait behind a redial in progress.
	dialMu sync.Mutex

	mu      sync.Mutex
	closed  bool
	sess    *clientSession // the live connection; nil when disconnected
	backoff time.Duration  // next redial delay; 0 after a healthy connect
}

// Dial connects to a Server.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:        addr,
		opTimeout:   defaultOpTimeout,
		baseBackoff: defaultBaseBackoff,
		maxBackoff:  defaultMaxBackoff,
		maxRetries:  defaultMaxRetries,
		closeCh:     make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection and interrupts any in-progress backoff wait
// or pending op.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	sess := c.sess
	c.sess = nil
	c.mu.Unlock()
	if sess != nil {
		sess.shutdown()
	}
	return nil
}

func (c *Client) bumpBackoffLocked() {
	if c.backoff == 0 {
		c.backoff = c.baseBackoff
	} else if c.backoff < c.maxBackoff {
		c.backoff *= 2
		if c.backoff > c.maxBackoff {
			c.backoff = c.maxBackoff
		}
	}
}

// ensureConn returns the live session, dialing (with handshake and
// interruptible backoff) if there is none. The backoff sleep happens
// under dialMu only, so Close and ops on an established connection are
// never blocked behind it.
func (c *Client) ensureConn() (*clientSession, error) {
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

// drop discards sess if it is still the client's current session and
// arms the reconnect backoff. Safe to call from several ops that failed
// on the same session.
func (c *Client) drop(sess *clientSession) {
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
func (c *Client) exchangeTimeout(req *wireRequest) time.Duration {
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

// WrongShardError is a redirect from a shard-group member: the op was
// sent to the wrong shard, was not applied, and should be re-sent to
// Shard. The routing ShardedClient follows these transparently; a raw
// Client surfaces them.
type WrongShardError struct {
	Shard int
	Msg   string
}

func (e *WrongShardError) Error() string { return e.Msg }

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
func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
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

// Submit inserts a task remotely and returns its ID.
func (c *Client) Submit(taskType string, priority int, payload string) (int64, error) {
	return c.SubmitKeyedRetry(taskType, priority, payload, "", 1)
}

// SubmitRetry inserts a task remotely with a retry budget: a failed
// attempt requeues the task until maxAttempts is exhausted. Like Submit,
// it is not transport-retried once the request may have been applied.
func (c *Client) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (int64, error) {
	return c.SubmitKeyedRetry(taskType, priority, payload, "", maxAttempts)
}

// SubmitKeyedRetry is SubmitRetry with an explicit shard-routing key: a
// server that is part of a shard group verifies the key against its hash
// ring and answers *WrongShardError when it routes elsewhere (the op is
// not applied). Unsharded servers ignore the key.
func (c *Client) SubmitKeyedRetry(taskType string, priority int, payload, key string, maxAttempts int) (int64, error) {
	ids, err := c.submitBatchKeyed(taskType, priority, []string{payload}, key, maxAttempts)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SubmitBatch inserts several tasks of one type at one priority in a
// single round trip (atomic on the server; see DB.SubmitBatch) and
// returns their IDs in payload order. maxAttempts > 1 gives every task in
// the batch that retry budget. Like Submit, the batch is not
// transport-retried once it may have been applied.
func (c *Client) SubmitBatch(taskType string, priority int, payloads []string, maxAttempts int) ([]int64, error) {
	return c.submitBatchKeyed(taskType, priority, payloads, "", maxAttempts)
}

func (c *Client) submitBatchKeyed(taskType string, priority int, payloads []string, key string, maxAttempts int) ([]int64, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
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
	ms := int(timeout / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// Pop claims a task, waiting up to timeout (0 = wait indefinitely on the
// server side). It returns ok=false if the wait timed out. The returned
// claim carries the attempt epoch to pass to Complete/Fail.
func (c *Client) Pop(taskType string, timeout time.Duration) (task RemoteTask, ok bool, err error) {
	tasks, err := c.PopBatch(taskType, 1, timeout)
	if err != nil || len(tasks) == 0 {
		return RemoteTask{}, false, err
	}
	return tasks[0], true, nil
}

// PopBatch claims up to max tasks in one round trip, waiting up to
// timeout (0 = wait indefinitely) for the first one; once any task is
// available the server returns immediately with whatever else is queued,
// up to max. An empty (timed-out) wait returns a nil slice and no error.
func (c *Client) PopBatch(taskType string, max int, timeout time.Duration) ([]RemoteTask, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcPopBatch, Type: taskType, Max: max, TimeoutMS: popTimeoutMS(timeout)})
	if err != nil {
		return nil, err
	}
	if len(resp.Tasks) == 0 {
		return nil, nil
	}
	tasks := make([]RemoteTask, len(resp.Tasks))
	for i, t := range resp.Tasks {
		tasks[i] = RemoteTask{ID: t.ID, Epoch: t.Epoch, Payload: t.Payload}
	}
	return tasks, nil
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

// FinishBatch resolves many claimed attempts in one round trip. The
// returned slice has one entry per op, in order: nil for an accepted
// resolution, an ErrStaleClaim-matching error for a superseded claim, a
// *WrongShardError for a task another shard owns, or the server's
// rejection. The second return value reports a failure of
// the exchange itself (transport, protocol); when it is non-nil no
// per-op outcome is known.
func (c *Client) FinishBatch(ops []FinishOp) ([]error, error) {
	if len(ops) == 0 {
		return nil, nil
	}
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

// Result polls a task's terminal result; done=false means still pending.
// A failed or canceled task is reported as (*TaskError, done=true);
// transport problems are reported wrapped in ErrTransport.
func (c *Client) Result(taskID int64) (result string, done bool, err error) {
	resp, err := c.roundTrip(wireRequest{Op: opcResult, TaskID: taskID})
	if err != nil {
		return "", false, err
	}
	if !resp.Done {
		return "", false, nil
	}
	// Failed is authoritative: a task can fail with an empty message.
	if resp.Failed {
		return "", true, &TaskError{TaskID: taskID, Msg: resp.Error}
	}
	return resp.Result, true, nil
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

// RemoteStats fetches DB occupancy counters.
func (c *Client) RemoteStats() (Stats, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("emews: missing stats in response")
	}
	return *resp.Stats, nil
}

// WALChunk is one wal_fetch reply: either a bootstrap snapshot
// (Snapshot=true, Data = snapshot payload) or a run of framed WAL
// records (Data), plus the next shipping cursor. Seg == 0 means the
// requested cursor was compacted away: re-bootstrap with WALFetch(0, 0).
type WALChunk struct {
	Data     []byte
	Seg      int
	Off      int64
	Snapshot bool
}

// WALFetch reads the primary's WAL over the wire (replication): seg 0
// requests the bootstrap state, any other cursor requests the framed
// records after it (empty Data with Seg != 0 = caught up with the tail).
// Read-only and idempotent, so it is transport-retried like pops.
func (c *Client) WALFetch(seg int, off int64) (WALChunk, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcWALFetch, Seg: seg, Off: off})
	if err != nil {
		return WALChunk{}, err
	}
	return WALChunk{Data: resp.Data, Seg: resp.Seg, Off: resp.Off, Snapshot: resp.Snapshot}, nil
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

// shutdown terminates the session from the client side (Close or drop).
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
		if err := respError(&resp); err != nil {
			return resp, err
		}
		return resp, nil
	case <-s.done:
		// The session failed; our response may still have been delivered
		// in the race window. Prefer it if so.
		select {
		case resp := <-ch:
			if err := respError(&resp); err != nil {
				return resp, err
			}
			return resp, nil
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
