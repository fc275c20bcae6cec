// Binary (wire protocol v2) connection handling: the server side splits
// each connection into a reader loop, concurrent dispatch goroutines, and
// a writer goroutine; the client side runs one pipelined session per
// connection, matching responses to in-flight requests by id. The frame
// codec itself lives in wirev2.go; the op semantics in net.go's dispatch.
package emews

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// maxInflightPerConn bounds concurrent dispatches per connection: enough
// to keep a batched worker's pipeline full, small enough that one
// connection cannot monopolize the DB lock or goroutine budget.
const maxInflightPerConn = 64

// respFrame is one encoded response awaiting the writer.
type respFrame struct{ buf []byte }

// handleBinary runs the v2 loop on one connection (handshake already
// done). The reader decodes frames and hands each request to its own
// dispatch goroutine (bounded by maxInflightPerConn); responses funnel
// through a single writer goroutine that coalesces flushes. Blocking
// pops are additionally canceled when the connection's reader exits, so
// a dead worker's unbounded pop cannot linger past the connection.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader, claims *connClaims) {
	connCtx, cancelConn := context.WithCancel(s.ctx)
	defer cancelConn()

	out := make(chan respFrame, maxInflightPerConn)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		bw := bufio.NewWriter(conn)
		broken := false
		for rf := range out {
			if !broken {
				if _, err := bw.Write(rf.buf); err != nil {
					broken = true
				} else if len(out) == 0 {
					// Nothing queued behind us: flush now. Otherwise let
					// the next frame piggyback on this buffer.
					if err := bw.Flush(); err != nil {
						broken = true
					}
				}
				if broken {
					conn.Close() // unblock the reader; keep draining for the WG accounting
				}
			}
			putWireBuf(rf.buf)
			s.dispatchWG.Done()
		}
		if !broken {
			_ = bw.Flush()
		}
	}()

	sem := make(chan struct{}, maxInflightPerConn)
	var reqWG sync.WaitGroup
	for {
		code, id, payload, err := readFrame(br)
		if err != nil {
			break
		}
		mNetRequests.Inc()
		req, derr := decodeRequestPayload(code, payload)
		putWireBuf(payload)
		if derr != nil {
			if !s.beginDispatch() {
				break
			}
			out <- respFrame{buf: appendResponseFrame(getWireBuf(), code, id, &wireResponse{Error: "bad request: " + derr.Error()})}
			continue
		}
		if !s.beginDispatch() {
			break
		}
		sem <- struct{}{}
		reqWG.Add(1)
		go func(code byte, id uint64, req wireRequest) {
			defer reqWG.Done()
			defer func() { <-sem }()
			reqStart := time.Now()
			resp := s.dispatch(connCtx, req, claims)
			mNetRequest.ObserveSince(reqStart)
			out <- respFrame{buf: appendResponseFrame(getWireBuf(), code, id, &resp)}
		}(code, id, req)
	}
	// Reader is done (connection dead or closing): release any blocking
	// pops this connection owns, wait out in-flight dispatches, then let
	// the writer drain and exit.
	cancelConn()
	reqWG.Wait()
	close(out)
	writerWG.Wait()
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
