// TCP wire protocol for the EMEWS task database, mirroring EMEWS's
// separation of ME algorithm processes from worker pools running on other
// resources.
//
// Every connection opens with a version hello and speaks length-prefixed
// binary frames with request ids, so a connection can pipeline many ops
// and the server answers out of order. See wirev2.go for the frame layout
// and the hello; netv2.go holds the server reader/dispatcher/writer split
// and the client session demux.
//
// Request ops and their fields (the codec carries them positionally):
//
//	submit       {type, priority, payload[, max_attempts, key]}  -> {ok, task_id}
//	pop          {type, timeout_ms}                              -> {ok, task_id, epoch, payload} | {ok, empty}
//	complete     {task_id, epoch, result}                        -> {ok} | {error, stale?}
//	fail         {task_id, epoch, err_msg}                       -> {ok} | {error, stale?}
//	result       {task_id}                                       -> {ok, done, failed?, result|error}
//	stats        {}                                              -> {ok, stats}
//	submit_batch {type, priority, payloads[, max_attempts, key]} -> {ok, task_ids}
//	pop_batch    {type, max, timeout_ms}                         -> {ok, tasks} | {ok, empty}
//	finish_batch {finishes:[{task_id, epoch, failed, ...}]}      -> {ok, results:[{ok, stale?, error?}]}
//	wal_fetch    {seg, off}                                      -> {ok, seg, off, data, snapshot?}
//
// Claim fencing: every pop response carries the attempt epoch assigned by
// the database. complete/fail must echo it back; a resolution whose epoch
// no longer matches the task's current attempt (the lease expired and the
// task was requeued/re-popped) is rejected with stale=true in the
// response. epoch 0 on complete/fail is the unfenced path: it falls back
// to the status-only check. Fenced complete/fail are idempotent per
// attempt: re-sending the same resolution (e.g. after a lost response)
// succeeds without effect.
//
// Connection-scoped claims: the server remembers which task attempts each
// connection has popped but not yet resolved. When the connection drops —
// the remote worker crashed, its node was reclaimed, or the network
// partitioned — those claims are automatically failed, which requeues the
// task if it has retry budget left. A remote worker's death therefore
// cannot leak a task in StatusRunning forever, even with no lease reaper
// configured.
package emews

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"osprey/internal/wal"
)

type wireRequest struct {
	Op        byte // opcSubmit, opcPop, ... (wirev2.go)
	Type      string
	Priority  int
	Payload   string
	TaskID    int64
	Epoch     int64
	Result    string
	ErrMsg    string
	TimeoutMS int
	// MaxAttempts > 0 on submit/submit_batch enables automatic
	// requeue-on-failure up to that many attempts (DB.SubmitRetry
	// semantics); 0 keeps the single-attempt default.
	MaxAttempts int
	// Max bounds how many tasks one pop_batch may lease.
	Max      int
	Payloads []string     // submit_batch
	Finishes []wireFinish // finish_batch
	// Key is the shard-routing key of a submit. A server with a shard
	// identity verifies it against its own ring and answers a wrong_shard
	// redirect when the key belongs elsewhere; an empty key skips the
	// check (unsharded clients).
	Key string
	// Seg/Off are the WAL shipping cursor of a wal_fetch (replication).
	// Seg 0 requests the bootstrap state (snapshot + starting cursor).
	Seg int
	Off int64
}

// wireFinish is one resolution inside a finish_batch.
type wireFinish struct {
	TaskID int64
	Epoch  int64
	Failed bool
	Result string
	ErrMsg string
}

// wireTask is one claim inside a pop_batch response.
type wireTask struct {
	ID      int64
	Epoch   int64
	Payload string
}

// wireResult is one per-op outcome inside a finish_batch response.
type wireResult struct {
	OK    bool
	Stale bool
	Error string
}

type wireResponse struct {
	OK      bool
	Error   string
	Stale   bool // Error is a stale-claim rejection
	TaskID  int64
	Epoch   int64
	Payload string
	Result  string
	Done    bool
	// Failed marks a result response for a task that terminated
	// unsuccessfully. Clients must key on this, not on Error being
	// non-empty: a task can fail with an empty message.
	Failed  bool
	Empty   bool
	Tasks   []wireTask   // pop_batch
	TaskIDs []int64      // submit_batch
	Results []wireResult // finish_batch
	Stats   *Stats
	// WrongShard marks a redirect: the op was sent to the wrong member of
	// a shard group and Shard names the owner. The op was NOT applied.
	WrongShard bool
	Shard      int
	// wal_fetch: the next shipping cursor, the shipped framed records,
	// and whether Data is a bootstrap snapshot instead. Seg 0 in a
	// wal_fetch response means the requested cursor was compacted away
	// and the follower must re-bootstrap.
	Seg      int
	Off      int64
	Snapshot bool
	Data     []byte
}

// connClaims tracks task attempts popped on one connection and not yet
// resolved (taskID -> attempt epoch). A connection's requests dispatch
// concurrently, so access is locked.
type connClaims struct {
	mu sync.Mutex
	m  map[int64]int64
}

func newConnClaims() *connClaims { return &connClaims{m: map[int64]int64{}} }

func (cc *connClaims) add(id, epoch int64) {
	cc.mu.Lock()
	cc.m[id] = epoch
	cc.mu.Unlock()
	mNetClaims.Inc()
}

func (cc *connClaims) release(id int64) {
	cc.mu.Lock()
	_, held := cc.m[id]
	delete(cc.m, id)
	cc.mu.Unlock()
	if held {
		mNetClaims.Dec()
	}
}

// drain empties the claim table and returns what was held, for the
// connection-loss cleanup.
func (cc *connClaims) drain() map[int64]int64 {
	cc.mu.Lock()
	m := cc.m
	cc.m = map[int64]int64{}
	cc.mu.Unlock()
	return m
}

// ServerOption configures a Server at Serve time.
type ServerOption func(*Server)

// WithShardIdentity declares the server shard index of a count-wide
// shard group. Keyed submits whose ring owner is another shard, and
// task-addressed ops whose strided ID belongs to another shard, are
// answered with a wrong_shard redirect instead of being applied.
func WithShardIdentity(index, count int) ServerOption {
	return func(s *Server) {
		s.shardIndex, s.shardCount = index, count
		if count > 1 {
			s.ring = NewRing(count)
		}
	}
}

// WithReplicationSource exposes the given WAL over the wal_fetch op so
// followers can bootstrap from its snapshot and tail its segments. The
// log must be the one backing this server's DB.
func WithReplicationSource(l *wal.Log) ServerOption {
	return func(s *Server) { s.replWAL = l }
}

// Server exposes a DB over TCP.
type Server struct {
	db         *DB
	ln         net.Listener
	wg         sync.WaitGroup
	dispatchWG sync.WaitGroup // in-flight requests whose responses are not yet flushed
	drainMu    sync.RWMutex   // guards draining vs dispatchWG.Add (see beginDispatch)
	draining   bool
	ctx        context.Context
	cancel     context.CancelFunc
	shardIndex int
	shardCount int
	ring       *Ring
	replWAL    *wal.Log

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts a TCP server for db on addr (e.g. "127.0.0.1:0") and returns
// it; the bound address is available via Addr.
func Serve(db *DB, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{db: db, ln: ln, ctx: ctx, cancel: cancel, conns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, cancels in-flight blocking pops, closes all
// active connections (requeueing their unresolved claims), and waits for
// connection handlers to finish. In-flight requests get a bounded window
// to flush their responses (a canceled blocking pop answers with a clean
// empty response) before the connections are torn down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	s.ln.Close()
	// Publish draining before waiting: beginDispatch registers new
	// requests under drainMu.RLock, so after this barrier every Add
	// either happened-before the Wait or was refused — the WaitGroup
	// counter can no longer be re-raised from zero mid-Wait (a race
	// the detector rightly flags).
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	flushed := make(chan struct{})
	go func() {
		s.dispatchWG.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// beginDispatch registers one in-flight request with dispatchWG, or
// reports false once Close has begun draining. The RLock pairs with the
// write barrier in Close so an Add can never race the drain Wait; a
// refused request simply dies with its connection, which Close is about
// to tear down anyway.
func (s *Server) beginDispatch() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.dispatchWG.Add(1)
	return true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle runs one connection: the hello, then the binary loop. A peer
// whose hello does not match is closed without a reply.
func (s *Server) handle(conn net.Conn) {
	claims := newConnClaims()
	mNetConns.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		mNetConns.Dec()
		s.failLostClaims(claims.drain())
	}()
	br := bufio.NewReader(conn)
	var hello [len(clientHello)]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:]) != clientHello {
		return
	}
	if _, err := conn.Write([]byte(serverHelloAck)); err != nil {
		return
	}
	s.handleBinary(conn, br, claims)
}

// failLostClaims resolves the claims of a connection that is gone: its
// worker can no longer resolve them, so they are failed in one commit,
// which requeues tasks with retry budget left for other workers. The
// epoch fence makes this a no-op for any claim a lease reaper already
// reclaimed.
func (s *Server) failLostClaims(held map[int64]int64) {
	if len(held) == 0 {
		return
	}
	ops := make([]resolution, 0, len(held))
	for id, epoch := range held {
		ops = append(ops, resolution{ID: id, Epoch: epoch, Status: StatusFailed, ErrMsg: "connection lost (remote worker gone)"})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	s.db.finishBatch(ops)
	for range ops {
		mNetLostClaims.Inc()
		mNetClaims.Dec()
	}
}

// wrongShardTask answers a redirect when a task-addressed op reached a
// shard that does not own the task's strided ID; nil means the op may
// proceed (including always on an unsharded server).
func (s *Server) wrongShardTask(id int64) *wireResponse {
	if s.shardCount <= 1 || id < 1 {
		return nil
	}
	if want := ShardOfTask(id, s.shardCount); want != s.shardIndex {
		return &wireResponse{
			Error:      fmt.Sprintf("emews: task %d belongs to shard %d, not %d", id, want, s.shardIndex),
			WrongShard: true, Shard: want,
		}
	}
	return nil
}

// wrongShardKey answers a redirect when a keyed submit's ring owner is
// another shard. An empty key skips the check.
func (s *Server) wrongShardKey(key string) *wireResponse {
	if s.shardCount <= 1 || key == "" || s.ring == nil {
		return nil
	}
	if want := s.ring.Lookup(key); want != s.shardIndex {
		return &wireResponse{
			Error:      fmt.Sprintf("emews: key routes to shard %d, not %d", want, s.shardIndex),
			WrongShard: true, Shard: want,
		}
	}
	return nil
}

// dispatch executes one request against the DB. ctx bounds blocking
// pops: it is the server context, additionally canceled when the
// requesting connection dies.
func (s *Server) dispatch(ctx context.Context, req wireRequest, claims *connClaims) wireResponse {
	switch req.Op {
	case opcSubmit:
		if r := s.wrongShardKey(req.Key); r != nil {
			return *r
		}
		var f *Future
		var err error
		if req.MaxAttempts > 0 {
			f, err = s.db.SubmitRetry(req.Type, req.Priority, req.Payload, req.MaxAttempts)
		} else {
			f, err = s.db.Submit(req.Type, req.Priority, req.Payload)
		}
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, TaskID: f.TaskID}
	case opcSubmitBatch:
		if r := s.wrongShardKey(req.Key); r != nil {
			return *r
		}
		maxAttempts := req.MaxAttempts
		if maxAttempts < 1 {
			maxAttempts = 1
		}
		fs, err := s.db.SubmitBatchRetry(req.Type, req.Priority, req.Payloads, maxAttempts)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		ids := make([]int64, len(fs))
		for i, f := range fs {
			ids[i] = f.TaskID
		}
		return wireResponse{OK: true, TaskIDs: ids}
	case opcPop:
		claim, err := s.popCtx(ctx, req, func(pctx context.Context) (any, error) {
			return s.db.Pop(pctx, req.Type)
		})
		if err != nil || claim == nil {
			return popWaitResponse(err)
		}
		c := claim.(*Claim)
		claims.add(c.Task.ID, c.Task.Epoch)
		return wireResponse{OK: true, TaskID: c.Task.ID, Epoch: c.Task.Epoch, Payload: c.Task.Payload}
	case opcPopBatch:
		max := req.Max
		if max < 1 {
			max = 1
		}
		res, err := s.popCtx(ctx, req, func(pctx context.Context) (any, error) {
			return s.db.PopBatch(pctx, req.Type, max)
		})
		if err != nil || res == nil {
			return popWaitResponse(err)
		}
		cs := res.([]*Claim)
		tasks := make([]wireTask, len(cs))
		for i, c := range cs {
			claims.add(c.Task.ID, c.Task.Epoch)
			tasks[i] = wireTask{ID: c.Task.ID, Epoch: c.Task.Epoch, Payload: c.Task.Payload}
		}
		return wireResponse{OK: true, Tasks: tasks}
	case opcComplete:
		if r := s.wrongShardTask(req.TaskID); r != nil {
			return *r
		}
		claims.release(req.TaskID)
		if _, err := s.db.finish(req.TaskID, req.Epoch, StatusComplete, req.Result, ""); err != nil {
			return wireResponse{Error: err.Error(), Stale: errors.Is(err, ErrStaleClaim)}
		}
		return wireResponse{OK: true}
	case opcFail:
		if r := s.wrongShardTask(req.TaskID); r != nil {
			return *r
		}
		claims.release(req.TaskID)
		if _, err := s.db.finish(req.TaskID, req.Epoch, StatusFailed, "", req.ErrMsg); err != nil {
			return wireResponse{Error: err.Error(), Stale: errors.Is(err, ErrStaleClaim)}
		}
		return wireResponse{OK: true}
	case opcFinishBatch:
		// The accepted resolutions are one commit (see DB.finishBatch).
		ops := make([]resolution, len(req.Finishes))
		for i, fin := range req.Finishes {
			if r := s.wrongShardTask(fin.TaskID); r != nil {
				// Per-op redirect: the routing client groups finishes by
				// shard, so this is defensive, not a hot path.
				ops[i].Err = errors.New(r.Error)
				continue
			}
			claims.release(fin.TaskID)
			ops[i] = resolution{ID: fin.TaskID, Epoch: fin.Epoch, Status: StatusComplete, Result: fin.Result}
			if fin.Failed {
				ops[i].Status, ops[i].Result, ops[i].ErrMsg = StatusFailed, "", fin.ErrMsg
			}
		}
		s.db.finishBatch(ops)
		results := make([]wireResult, len(ops))
		for i, op := range ops {
			if op.Err != nil {
				results[i] = wireResult{Error: op.Err.Error(), Stale: errors.Is(op.Err, ErrStaleClaim)}
			} else {
				results[i] = wireResult{OK: true}
			}
		}
		return wireResponse{OK: true, Results: results}
	case opcResult:
		if r := s.wrongShardTask(req.TaskID); r != nil {
			return *r
		}
		t, err := s.db.Get(req.TaskID)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		switch t.Status {
		case StatusComplete:
			return wireResponse{OK: true, Done: true, Result: t.Result}
		case StatusFailed:
			return wireResponse{OK: true, Done: true, Failed: true, Error: t.ErrMsg}
		case StatusCanceled:
			return wireResponse{OK: true, Done: true, Failed: true, Error: "canceled"}
		default:
			return wireResponse{OK: true, Done: false}
		}
	case opcStats:
		st := s.db.Stats()
		return wireResponse{OK: true, Stats: &st}
	case opcWALFetch:
		if s.replWAL == nil {
			return wireResponse{Error: "emews: replication not enabled on this server"}
		}
		if req.Seg == 0 {
			// Bootstrap: newest snapshot (if any) plus the starting cursor.
			snap, seg, off, err := s.replWAL.ShipBootstrap()
			if err != nil {
				return wireResponse{Error: err.Error()}
			}
			return wireResponse{OK: true, Seg: seg, Off: off, Data: snap, Snapshot: snap != nil}
		}
		data, seg, off, err := s.replWAL.ReadAt(req.Seg, req.Off, 0)
		if err != nil {
			if errors.Is(err, wal.ErrCompacted) {
				// Seg 0 in a wal_fetch response is the re-bootstrap signal.
				return wireResponse{OK: true, Seg: 0}
			}
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, Seg: seg, Off: off, Data: data}
	default:
		return wireResponse{Error: "unknown op " + opName(req.Op)}
	}
}

// popCtx runs a blocking pop under the request's timeout. A nil result
// with nil error never happens: pop returns a claim or an error.
func (s *Server) popCtx(ctx context.Context, req wireRequest, pop func(context.Context) (any, error)) (any, error) {
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	return pop(ctx)
}

// popWaitResponse maps the terminal conditions of a blocking pop wait to a
// response. A deadline is the normal empty-poll outcome; cancellation
// means the server is shutting down (or the connection died), which a
// well-behaved worker should also see as a clean empty poll rather than a
// scary error string — it re-polls and then observes the close properly.
func popWaitResponse(err error) wireResponse {
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return wireResponse{OK: true, Empty: true}
	}
	return wireResponse{Error: err.Error()}
}

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
// that are safe to re-send are retried. pop/pop_batch/result/stats are
// always safe: a pop whose response was lost is requeued by the server's
// connection-scoped claim cleanup. complete/fail (and finish_batch) are
// safe only when fenced with an attempt epoch, because duplicate fenced
// resolutions are idempotent; unfenced (epoch-0) resolutions are NOT
// retried once the request may have reached the server — a retry could
// land on a different attempt. submit is likewise not retried; callers
// see ErrTransport and decide.
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
	case opcPop, opcPopBatch, opcResult, opcStats, opcWALFetch:
		return true
	case opcComplete, opcFail:
		return req.Epoch > 0
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
	if req.Op == opcPop || req.Op == opcPopBatch {
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
	if resp.Error != "" && !resp.OK {
		if resp.WrongShard {
			return &WrongShardError{Shard: resp.Shard, Msg: resp.Error}
		}
		if resp.Stale {
			return &staleRemoteError{msg: resp.Error}
		}
		return errors.New(resp.Error)
	}
	return nil
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
	resp, err := c.roundTrip(wireRequest{Op: opcSubmit, Type: taskType, Priority: priority, Payload: payload})
	if err != nil {
		return 0, err
	}
	return resp.TaskID, nil
}

// SubmitRetry inserts a task remotely with a retry budget: a failed
// attempt requeues the task until maxAttempts is exhausted. Like Submit,
// it is not transport-retried once the request may have been applied.
func (c *Client) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (int64, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcSubmit, Type: taskType, Priority: priority, Payload: payload, MaxAttempts: maxAttempts})
	if err != nil {
		return 0, err
	}
	return resp.TaskID, nil
}

// SubmitKeyedRetry is SubmitRetry with an explicit shard-routing key: a
// server that is part of a shard group verifies the key against its hash
// ring and answers *WrongShardError when it routes elsewhere (the op is
// not applied). Unsharded servers ignore the key.
func (c *Client) SubmitKeyedRetry(taskType string, priority int, payload, key string, maxAttempts int) (int64, error) {
	resp, err := c.roundTrip(wireRequest{Op: opcSubmit, Type: taskType, Priority: priority, Payload: payload, Key: key, MaxAttempts: maxAttempts})
	if err != nil {
		return 0, err
	}
	return resp.TaskID, nil
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
	resp, err := c.roundTrip(wireRequest{Op: opcPop, Type: taskType, TimeoutMS: popTimeoutMS(timeout)})
	if err != nil {
		return RemoteTask{}, false, err
	}
	if resp.Empty {
		return RemoteTask{}, false, nil
	}
	return RemoteTask{ID: resp.TaskID, Epoch: resp.Epoch, Payload: resp.Payload}, true, nil
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
	if resp.Empty || len(resp.Tasks) == 0 {
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
	_, err := c.roundTrip(wireRequest{Op: opcComplete, TaskID: taskID, Epoch: epoch, Result: result})
	return err
}

// Fail reports a failed evaluation of the claimed attempt.
func (c *Client) Fail(taskID, epoch int64, errMsg string) error {
	_, err := c.roundTrip(wireRequest{Op: opcFail, TaskID: taskID, Epoch: epoch, ErrMsg: errMsg})
	return err
}

// FinishBatch resolves many claimed attempts in one round trip. The
// returned slice has one entry per op, in order: nil for an accepted
// resolution, an ErrStaleClaim-matching error for a superseded claim, or
// the server's rejection. The second return value reports a failure of
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
		switch {
		case r.OK:
		case r.Stale:
			errs[i] = &staleRemoteError{msg: r.Error}
		default:
			errs[i] = errors.New(r.Error)
		}
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
