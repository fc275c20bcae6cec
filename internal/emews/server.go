// Wire server: Serve exposes a DB over TCP. Each connection's reader runs
// and answers every op that cannot wait; only a pop_batch that must wait
// gets a goroutine. The frame codec lives in wire.go.
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

// connClaims tracks task attempts popped on one connection and not yet
// resolved (taskID -> attempt epoch). A connection's waiting pops run
// beside its reader, so access is locked.
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

// wrongShardTask returns a redirect when a task-addressed op reached a
// shard that does not own the task's strided ID; nil means the op may
// proceed (including always on an unsharded server).
func (s *Server) wrongShardTask(id int64) *WrongShardError {
	if s.shardCount <= 1 || id < 1 {
		return nil
	}
	if want := ShardOfTask(id, s.shardCount); want != s.shardIndex {
		return &WrongShardError{Shard: want, Msg: fmt.Sprintf("emews: task %d belongs to shard %d, not %d", id, want, s.shardIndex)}
	}
	return nil
}

// wrongShardKey returns a redirect when a keyed submit's ring owner is
// another shard. An empty key skips the check.
func (s *Server) wrongShardKey(key string) *WrongShardError {
	if s.shardCount <= 1 || key == "" || s.ring == nil {
		return nil
	}
	if want := s.ring.Lookup(key); want != s.shardIndex {
		return &WrongShardError{Shard: want, Msg: fmt.Sprintf("emews: key routes to shard %d, not %d", want, s.shardIndex)}
	}
	return nil
}

// redirect answers a whole op with a wrong_shard response.
func redirect(ws *WrongShardError) wireResponse {
	return wireResponse{Error: ws.Msg, WrongShard: true, Shard: ws.Shard}
}

// popBatch answers a pop_batch, or reports false if wait is false and the
// pop would have to wait. ctx bounds a waiting pop: it is the server
// context, additionally canceled when the requesting connection dies.
func (s *Server) popBatch(ctx context.Context, req *wireRequest, claims *connClaims, wait bool) (wireResponse, bool) {
	if wait && req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// The lease is capped at what the client's decoder accepts.
	cs, err := s.db.popBatch(ctx, req.Type, min(req.Max, maxWireBatch), wait)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// A deadline is the normal empty poll. Cancellation means the
		// server is closing (or the connection died), which a worker
		// should also see as a clean empty poll rather than a scary
		// error string: it re-polls and then observes the close.
		return wireResponse{OK: true}, true
	case err != nil:
		return wireResponse{Error: err.Error()}, true
	case len(cs) == 0:
		return wireResponse{}, false
	}
	tasks := make([]wireTask, len(cs))
	for i, c := range cs {
		claims.add(c.Task.ID, c.Task.Epoch)
		tasks[i] = wireTask{ID: c.Task.ID, Epoch: c.Task.Epoch, Payload: c.Task.Payload}
	}
	return wireResponse{OK: true, Tasks: tasks}, true
}

// dispatch executes one request other than pop_batch against the DB.
// None of them waits, so the connection's reader runs them inline.
func (s *Server) dispatch(req *wireRequest, claims *connClaims) wireResponse {
	switch req.Op {
	case opcSubmitBatch:
		if ws := s.wrongShardKey(req.Key); ws != nil {
			return redirect(ws)
		}
		// Refuse what no pop_batch response could deliver.
		for _, p := range req.Payloads {
			if len(p) > maxTaskPayload {
				return wireResponse{Error: fmt.Sprintf("emews: task payload of %d bytes exceeds the %d-byte limit", len(p), maxTaskPayload)}
			}
		}
		fs, err := s.db.SubmitBatchRetry(req.Type, req.Priority, req.Payloads, req.MaxAttempts)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		ids := make([]int64, len(fs))
		for i, f := range fs {
			ids[i] = f.TaskID
		}
		return wireResponse{OK: true, TaskIDs: ids}
	case opcFinishBatch:
		// The accepted resolutions are one commit (see DB.finishBatch).
		ops := make([]resolution, len(req.Finishes))
		for i, fin := range req.Finishes {
			if ws := s.wrongShardTask(fin.TaskID); ws != nil {
				// Per-op redirect: the entry is not applied and its result
				// names the owner.
				ops[i].Err = ws
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
			results[i] = resultOf(op.Err)
		}
		return wireResponse{OK: true, Results: results}
	case opcResult:
		if ws := s.wrongShardTask(req.TaskID); ws != nil {
			return redirect(ws)
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

// maxInflightPerConn bounds the pops one connection may have waiting:
// enough to keep a batched worker's pipeline full, small enough that one
// connection cannot monopolize the goroutine budget.
const maxInflightPerConn = 64

// handleBinary runs the frame loop on one connection (handshake already
// done). The reader decodes each request and answers it itself, in
// arrival order, unless it is a pop_batch with nothing to lease yet: that
// one waits on its own goroutine (at most maxInflightPerConn at a time)
// and writes its own answer, so later requests on the connection are not
// stuck behind it. Answers are buffered and sent together whenever the
// reader is about to block: on the socket (nothing left to read) or on a
// pop that has to wait. Waiting pops are canceled when the reader exits,
// so a dead worker's unbounded pop cannot linger past the connection.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader, claims *connClaims) {
	connCtx, cancelConn := context.WithCancel(s.ctx)
	defer cancelConn()
	var wmu sync.Mutex // one writer at a time: the reader or a waiting pop
	bw := bufio.NewWriter(conn)
	unflushed := 0 // answers in bw; each keeps its dispatchWG count until flushed
	respond := func(code byte, id uint64, resp *wireResponse, start time.Time) {
		mNetRequest.ObserveSince(start)
		buf := appendResponseFrame(getWireBuf(), code, id, resp)
		wmu.Lock()
		_, _ = bw.Write(buf) // an error is sticky in bw: flush reports it
		unflushed++
		wmu.Unlock()
		putWireBuf(buf)
	}
	// flush sends the buffered answers, and only then releases their
	// counts, so Close's drain waits for the bytes. A write error closes
	// the connection, ending the reader.
	flush := func() {
		wmu.Lock()
		err := bw.Flush()
		s.dispatchWG.Add(-unflushed)
		unflushed = 0
		wmu.Unlock()
		if err != nil {
			conn.Close()
		}
	}

	sem := make(chan struct{}, maxInflightPerConn)
	var popWG sync.WaitGroup
	for {
		if br.Buffered() == 0 {
			// The next read waits on the peer. (A partly buffered frame
			// does not: a client writes each frame whole, in one Write.)
			flush()
		}
		code, id, payload, err := readFrame(br)
		if err != nil {
			break
		}
		mNetRequests.Inc()
		req, derr := decodeRequestPayload(code, payload)
		putWireBuf(payload)
		if !s.beginDispatch() {
			break
		}
		start := time.Now()
		var resp wireResponse
		switch {
		case derr != nil:
			resp = wireResponse{Error: "bad request: " + derr.Error()}
		case req.Op == opcPopBatch:
			var answered bool
			if resp, answered = s.popBatch(connCtx, &req, claims, false); !answered {
				// Nothing answered may wait behind this pop, nor behind a
				// full sem.
				flush()
				sem <- struct{}{}
				popWG.Add(1)
				go func() {
					defer popWG.Done()
					resp, _ := s.popBatch(connCtx, &req, claims, true)
					respond(code, id, &resp, start)
					flush()
					<-sem
				}()
				continue
			}
		default:
			resp = s.dispatch(&req, claims)
		}
		respond(code, id, &resp, start)
	}
	// Reader is done (connection dead or closing): release the waiting
	// pops this connection owns, wait for their answers, then send what
	// the reader left buffered.
	cancelConn()
	popWG.Wait()
	flush()
}
