// TCP wire protocol for the EMEWS task database, mirroring EMEWS's
// separation of ME algorithm processes from worker pools running on other
// resources.
//
// Two framings share one dispatch layer:
//
//   - v2 (default): length-prefixed binary frames with request ids, so a
//     connection can pipeline many ops and the server answers out of
//     order. See wirev2.go for the frame layout and the connect-time
//     negotiation; netv2.go holds the server reader/dispatcher/writer
//     split and the client session demux.
//   - v1 (legacy): newline-delimited JSON request/response, one op in
//     flight per connection. New servers detect a JSON client by its
//     first byte and fall back; new clients detect a JSON-only server by
//     its handshake reply and fall back. Old and new deployments mix
//     freely.
//
// Request ops and their fields (JSON names; the binary codec carries the
// same fields positionally):
//
//	submit       {op, type, priority, payload[, max_attempts]}   -> {ok, task_id}
//	pop          {op, type, timeout_ms}                          -> {ok, task_id, epoch, payload} | {ok, empty:true}
//	complete     {op, task_id, epoch, result}                    -> {ok} | {error, stale?}
//	fail         {op, task_id, epoch, err_msg}                   -> {ok} | {error, stale?}
//	result       {op, task_id}                                   -> {ok, done, failed?, result|error}
//	stats        {op}                                            -> {ok, stats}
//	submit_batch {op, type, priority, payloads[, max_attempts]}  -> {ok, task_ids}
//	pop_batch    {op, type, max, timeout_ms}                     -> {ok, tasks} | {ok, empty:true}
//	finish_batch {op, finishes:[{task_id, epoch, failed, ...}]}  -> {ok, results:[{ok, stale?, error?}]}
//
// Claim fencing: every pop response carries the attempt epoch assigned by
// the database. complete/fail must echo it back; a resolution whose epoch
// no longer matches the task's current attempt (the lease expired and the
// task was requeued/re-popped) is rejected with stale=true in the
// response. epoch 0 on complete/fail is accepted for legacy clients and
// falls back to the unfenced status-only check. Fenced complete/fail are
// idempotent per attempt: re-sending the same resolution (e.g. after a
// lost response) succeeds without effect.
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
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"osprey/internal/wal"
)

type wireRequest struct {
	Op        string `json:"op"`
	Type      string `json:"type,omitempty"`
	Priority  int    `json:"priority,omitempty"`
	Payload   string `json:"payload,omitempty"`
	TaskID    int64  `json:"task_id,omitempty"`
	Epoch     int64  `json:"epoch,omitempty"`
	Result    string `json:"result,omitempty"`
	ErrMsg    string `json:"err_msg,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	// MaxAttempts > 0 on submit/submit_batch enables automatic
	// requeue-on-failure up to that many attempts (DB.SubmitRetry
	// semantics); 0 keeps the single-attempt default.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Max bounds how many tasks one pop_batch may lease.
	Max      int          `json:"max,omitempty"`
	Payloads []string     `json:"payloads,omitempty"` // submit_batch
	Finishes []wireFinish `json:"finishes,omitempty"` // finish_batch
	// Key is the shard-routing key of a submit. A server with a shard
	// identity verifies it against its own ring and answers a wrong_shard
	// redirect when the key belongs elsewhere; an empty key skips the
	// check (unsharded and legacy clients).
	Key string `json:"key,omitempty"`
	// Seg/Off are the WAL shipping cursor of a wal_fetch (replication).
	// Seg 0 requests the bootstrap state (snapshot + starting cursor).
	Seg int   `json:"seg,omitempty"`
	Off int64 `json:"off,omitempty"`
}

// wireFinish is one resolution inside a finish_batch.
type wireFinish struct {
	TaskID int64  `json:"task_id"`
	Epoch  int64  `json:"epoch,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Result string `json:"result,omitempty"`
	ErrMsg string `json:"err_msg,omitempty"`
}

// wireTask is one claim inside a pop_batch response.
type wireTask struct {
	ID      int64  `json:"id"`
	Epoch   int64  `json:"epoch"`
	Payload string `json:"payload,omitempty"`
}

// wireResult is one per-op outcome inside a finish_batch response.
type wireResult struct {
	OK    bool   `json:"ok"`
	Stale bool   `json:"stale,omitempty"`
	Error string `json:"error,omitempty"`
}

type wireResponse struct {
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Stale   bool   `json:"stale,omitempty"` // Error is a stale-claim rejection
	TaskID  int64  `json:"task_id,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	Payload string `json:"payload,omitempty"`
	Result  string `json:"result,omitempty"`
	Done    bool   `json:"done,omitempty"`
	// Failed marks a result response for a task that terminated
	// unsuccessfully. Clients must key on this, not on Error being
	// non-empty: a task can fail with an empty message.
	Failed  bool         `json:"failed,omitempty"`
	Empty   bool         `json:"empty,omitempty"`
	Tasks   []wireTask   `json:"tasks,omitempty"`    // pop_batch
	TaskIDs []int64      `json:"task_ids,omitempty"` // submit_batch
	Results []wireResult `json:"results,omitempty"`  // finish_batch
	Stats   *Stats       `json:"stats,omitempty"`
	// WrongShard marks a redirect: the op was sent to the wrong member of
	// a shard group and Shard names the owner. The op was NOT applied.
	WrongShard bool `json:"wrong_shard,omitempty"`
	Shard      int  `json:"shard,omitempty"`
	// wal_fetch: the next shipping cursor, the shipped framed records,
	// and whether Data is a bootstrap snapshot instead. Seg 0 in a
	// wal_fetch response means the requested cursor was compacted away
	// and the follower must re-bootstrap.
	Seg      int    `json:"seg,omitempty"`
	Off      int64  `json:"off,omitempty"`
	Snapshot bool   `json:"snapshot,omitempty"`
	Data     []byte `json:"data,omitempty"`
}

// connClaims tracks task attempts popped on one connection and not yet
// resolved (taskID -> attempt epoch). The binary handler dispatches
// requests concurrently, so access is locked.
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

// WithLegacyOnlyFraming makes the server speak only the v1 JSON framing,
// as a pre-v2 server would: a v2 client's handshake is answered with a
// JSON error line, driving the client down its fallback path. Useful for
// cross-version testing.
func WithLegacyOnlyFraming() ServerOption {
	return func(s *Server) { s.legacyOnly = true }
}

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
	legacyOnly bool
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

// handle sniffs the framing and runs the matching per-connection loop.
func (s *Server) handle(conn net.Conn) {
	claims := newConnClaims()
	mNetConns.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		mNetConns.Dec()
		// The connection is gone; its worker can no longer resolve its
		// claims. Fail them so tasks with retry budget are requeued for
		// other workers. The epoch fence makes this a no-op for any claim
		// a lease reaper already reclaimed.
		for id, epoch := range claims.drain() {
			_, _ = s.db.finish(id, epoch, StatusFailed, "", "connection lost (remote worker gone)")
			mNetLostClaims.Inc()
			mNetClaims.Dec()
		}
	}()
	br := bufio.NewReader(conn)
	if s.legacyOnly {
		s.handleLegacy(conn, br, claims)
		return
	}
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == '{' {
		// v1 JSON client: no hello line, requests start immediately.
		s.handleLegacy(conn, br, claims)
		return
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	if line != clientHello {
		enc := json.NewEncoder(conn)
		_ = enc.Encode(wireResponse{Error: fmt.Sprintf("bad preamble %q", line)})
		return
	}
	if _, err := conn.Write([]byte(serverHelloAck)); err != nil {
		return
	}
	s.handleBinary(conn, br, claims)
}

// handleLegacy is the v1 loop: one newline-delimited JSON request at a
// time, processed synchronously.
func (s *Server) handleLegacy(conn net.Conn, r *bufio.Reader, claims *connClaims) {
	enc := json.NewEncoder(conn)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		var req wireRequest
		if err := json.Unmarshal(line, &req); err != nil {
			_ = enc.Encode(wireResponse{Error: "bad request: " + err.Error()})
			continue
		}
		mNetRequests.Inc()
		reqStart := time.Now()
		if !s.beginDispatch() {
			return
		}
		resp := s.dispatch(s.ctx, req, claims)
		mNetRequest.ObserveSince(reqStart)
		err = enc.Encode(resp)
		s.dispatchWG.Done()
		if err != nil {
			return
		}
	}
}

// dispatch executes one request against the DB. It is codec-agnostic:
// both the JSON loop and the binary handler feed it, so every op
// (including the batch ops) works over either framing. ctx bounds
// blocking pops: it is the server context, additionally canceled when the
// requesting connection dies (binary path).
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

func (s *Server) dispatch(ctx context.Context, req wireRequest, claims *connClaims) wireResponse {
	switch req.Op {
	case "submit":
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
	case "submit_batch":
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
	case "pop":
		claim, err := s.popCtx(ctx, req, func(pctx context.Context) (any, error) {
			return s.db.Pop(pctx, req.Type)
		})
		if err != nil || claim == nil {
			return popWaitResponse(err)
		}
		c := claim.(*Claim)
		claims.add(c.Task.ID, c.Task.Epoch)
		return wireResponse{OK: true, TaskID: c.Task.ID, Epoch: c.Task.Epoch, Payload: c.Task.Payload}
	case "pop_batch":
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
	case "complete":
		if r := s.wrongShardTask(req.TaskID); r != nil {
			return *r
		}
		claims.release(req.TaskID)
		if _, err := s.db.finish(req.TaskID, req.Epoch, StatusComplete, req.Result, ""); err != nil {
			return wireResponse{Error: err.Error(), Stale: errors.Is(err, ErrStaleClaim)}
		}
		return wireResponse{OK: true}
	case "fail":
		if r := s.wrongShardTask(req.TaskID); r != nil {
			return *r
		}
		claims.release(req.TaskID)
		if _, err := s.db.finish(req.TaskID, req.Epoch, StatusFailed, "", req.ErrMsg); err != nil {
			return wireResponse{Error: err.Error(), Stale: errors.Is(err, ErrStaleClaim)}
		}
		return wireResponse{OK: true}
	case "finish_batch":
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
	case "result":
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
	case "stats":
		st := s.db.Stats()
		return wireResponse{OK: true, Stats: &st}
	case "wal_fetch":
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
		return wireResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
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

// WithLegacyFraming skips the v2 handshake and speaks the v1 JSON framing
// unconditionally, behaving exactly like a pre-v2 client. Useful for
// cross-version testing.
func WithLegacyFraming() ClientOption {
	return func(c *Client) { c.forceLegacy = true }
}

// Client is a TCP client for a remote task DB. Methods are safe for
// concurrent use. Against a v2 server, concurrent ops are pipelined on
// one connection (matched by request id); against a legacy server they
// are serialized.
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
	forceLegacy bool

	closeCh chan struct{} // closed by Close; interrupts backoff waits and pending ops

	// dialMu serializes connect attempts (including the backoff sleep),
	// deliberately separate from mu so Close and established-connection
	// ops never wait behind a redial in progress.
	dialMu sync.Mutex

	// legacyMu serializes request/response exchanges on a legacy (JSON)
	// connection, which supports only one op in flight.
	legacyMu sync.Mutex

	mu      sync.Mutex
	closed  bool
	conn    net.Conn
	r       *bufio.Reader  // legacy framing only
	enc     *json.Encoder  // legacy framing only
	sess    *clientSession // binary framing only (nil on a legacy conn)
	backoff time.Duration  // next redial delay; 0 after a healthy connect
}

// connHandle is a stable snapshot of the live connection for one exchange.
type connHandle struct {
	conn net.Conn
	sess *clientSession
	r    *bufio.Reader
	enc  *json.Encoder
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
	conn, sess := c.conn, c.sess
	c.conn, c.r, c.enc, c.sess = nil, nil, nil, nil
	c.mu.Unlock()
	if sess != nil {
		sess.shutdown()
		return nil
	}
	if conn != nil {
		return conn.Close()
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

// ensureConn returns the live connection, dialing (with handshake and
// interruptible backoff) if there is none. The backoff sleep happens
// under dialMu only, so Close and ops on an established connection are
// never blocked behind it.
func (c *Client) ensureConn() (connHandle, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return connHandle{}, closedClientErr()
	}
	if c.conn != nil {
		h := connHandle{conn: c.conn, sess: c.sess, r: c.r, enc: c.enc}
		c.mu.Unlock()
		return h, nil
	}
	c.mu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Another op may have finished connecting while we waited for dialMu.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return connHandle{}, closedClientErr()
	}
	if c.conn != nil {
		h := connHandle{conn: c.conn, sess: c.sess, r: c.r, enc: c.enc}
		c.mu.Unlock()
		return h, nil
	}
	backoff := c.backoff
	c.mu.Unlock()

	if backoff > 0 {
		t := time.NewTimer(backoff)
		select {
		case <-c.closeCh:
			t.Stop()
			return connHandle{}, closedClientErr()
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
		return connHandle{}, fmt.Errorf("%w: dial %s: %v", ErrTransport, c.addr, err)
	}
	r := bufio.NewReader(conn)
	binaryOK, err := c.handshake(conn, r, dialTimeout)
	if err != nil {
		conn.Close()
		c.mu.Lock()
		c.bumpBackoffLocked()
		c.mu.Unlock()
		return connHandle{}, fmt.Errorf("%w: handshake %s: %v", ErrTransport, c.addr, err)
	}
	var sess *clientSession
	var enc *json.Encoder
	if binaryOK {
		sess = newClientSession(conn, r)
	} else {
		enc = json.NewEncoder(conn)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if sess != nil {
			sess.shutdown()
		} else {
			conn.Close()
		}
		return connHandle{}, closedClientErr()
	}
	c.backoff = 0
	c.conn, c.r, c.enc, c.sess = conn, r, enc, sess
	h := connHandle{conn: conn, sess: sess, r: r, enc: enc}
	c.mu.Unlock()
	return h, nil
}

// handshake negotiates the framing on a fresh connection. It returns
// binaryOK=false when the server only speaks the v1 JSON framing (its
// reply to the hello starts with '{').
func (c *Client) handshake(conn net.Conn, r *bufio.Reader, timeout time.Duration) (binaryOK bool, err error) {
	if c.forceLegacy {
		return false, nil
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	if _, err := conn.Write([]byte(clientHello)); err != nil {
		return false, err
	}
	first, err := r.Peek(1)
	if err != nil {
		return false, err
	}
	if first[0] == '{' {
		// Legacy server: it read the hello as one bad JSON request and
		// answered an error line. Consume it and fall back to v1 framing.
		if _, err := r.ReadBytes('\n'); err != nil {
			return false, err
		}
		return false, nil
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return false, err
	}
	if line != serverHelloAck {
		return false, fmt.Errorf("unexpected handshake reply %q", line)
	}
	return true, nil
}

// drop discards conn if it is still the client's current connection and
// arms the reconnect backoff. Safe to call from several ops that failed
// on the same connection.
func (c *Client) drop(conn net.Conn) {
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		conn.Close()
		return
	}
	sess := c.sess
	c.conn, c.r, c.enc, c.sess = nil, nil, nil, nil
	if c.backoff == 0 {
		c.backoff = c.baseBackoff
	}
	c.mu.Unlock()
	if sess != nil {
		sess.shutdown()
	} else {
		conn.Close()
	}
}

// retrySafe reports whether req may be re-sent even though the previous
// attempt may have reached the server (see the Client doc comment).
// Resolutions are only retry-safe when fenced: the epoch makes a
// duplicate delivery idempotent, while an unfenced retry could resolve a
// different attempt than the one the caller observed.
func retrySafe(req *wireRequest) bool {
	switch req.Op {
	case "pop", "pop_batch", "result", "stats", "wal_fetch":
		return true
	case "complete", "fail":
		return req.Epoch > 0
	case "finish_batch":
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
	if req.Op == "pop" || req.Op == "pop_batch" {
		if req.TimeoutMS == 0 {
			return 0
		}
		d += time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return d
}

// exchange performs one request/response on the given connection.
func (c *Client) exchange(h connHandle, req *wireRequest) (wireResponse, error) {
	if h.sess != nil {
		return h.sess.do(req, c.exchangeTimeout(req), c.closeCh)
	}
	return c.legacyExchange(h, req)
}

// legacyExchange is the v1 path: one JSON line out, one JSON line back,
// serialized with other ops on this client.
func (c *Client) legacyExchange(h connHandle, req *wireRequest) (wireResponse, error) {
	c.legacyMu.Lock()
	defer c.legacyMu.Unlock()
	var deadline time.Time
	if d := c.exchangeTimeout(req); d > 0 {
		deadline = time.Now().Add(d)
	}
	_ = h.conn.SetDeadline(deadline)
	if err := h.enc.Encode(req); err != nil {
		return wireResponse{}, fmt.Errorf("%w: write: %v", ErrTransport, err)
	}
	line, err := h.r.ReadBytes('\n')
	if err != nil {
		return wireResponse{}, fmt.Errorf("%w: read: %v", ErrTransport, err)
	}
	var resp wireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return wireResponse{}, fmt.Errorf("%w: decode: %v", ErrTransport, err)
	}
	if err := respError(&resp); err != nil {
		return resp, err
	}
	return resp, nil
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
		h, err := c.ensureConn()
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
		resp, err := c.exchange(h, &req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrTransport) {
			// Server-side rejection (stale claim, unknown task, ...):
			// the connection is fine, the request was refused.
			return resp, err
		}
		c.drop(h.conn)
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
	resp, err := c.roundTrip(wireRequest{Op: "submit", Type: taskType, Priority: priority, Payload: payload})
	if err != nil {
		return 0, err
	}
	return resp.TaskID, nil
}

// SubmitRetry inserts a task remotely with a retry budget: a failed
// attempt requeues the task until maxAttempts is exhausted. Like Submit,
// it is not transport-retried once the request may have been applied.
func (c *Client) SubmitRetry(taskType string, priority int, payload string, maxAttempts int) (int64, error) {
	resp, err := c.roundTrip(wireRequest{Op: "submit", Type: taskType, Priority: priority, Payload: payload, MaxAttempts: maxAttempts})
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
	resp, err := c.roundTrip(wireRequest{Op: "submit", Type: taskType, Priority: priority, Payload: payload, Key: key, MaxAttempts: maxAttempts})
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
	resp, err := c.roundTrip(wireRequest{Op: "submit_batch", Type: taskType, Priority: priority, Payloads: payloads, Key: key, MaxAttempts: maxAttempts})
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
	resp, err := c.roundTrip(wireRequest{Op: "pop", Type: taskType, TimeoutMS: popTimeoutMS(timeout)})
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
	resp, err := c.roundTrip(wireRequest{Op: "pop_batch", Type: taskType, Max: max, TimeoutMS: popTimeoutMS(timeout)})
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
	_, err := c.roundTrip(wireRequest{Op: "complete", TaskID: taskID, Epoch: epoch, Result: result})
	return err
}

// Fail reports a failed evaluation of the claimed attempt.
func (c *Client) Fail(taskID, epoch int64, errMsg string) error {
	_, err := c.roundTrip(wireRequest{Op: "fail", TaskID: taskID, Epoch: epoch, ErrMsg: errMsg})
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
	resp, err := c.roundTrip(wireRequest{Op: "finish_batch", Finishes: fins})
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
	resp, err := c.roundTrip(wireRequest{Op: "result", TaskID: taskID})
	if err != nil {
		return "", false, err
	}
	if !resp.Done {
		return "", false, nil
	}
	// Failed is authoritative (a task can fail with an empty message);
	// the Error check keeps compatibility with pre-v2 servers that only
	// signal failure through a non-empty message.
	if resp.Failed || resp.Error != "" {
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
	resp, err := c.roundTrip(wireRequest{Op: "stats"})
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
	resp, err := c.roundTrip(wireRequest{Op: "wal_fetch", Seg: seg, Off: off})
	if err != nil {
		return WALChunk{}, err
	}
	return WALChunk{Data: resp.Data, Seg: resp.Seg, Off: resp.Off, Snapshot: resp.Snapshot}, nil
}
