// TCP wire protocol for the EMEWS task database, mirroring EMEWS's
// separation of ME algorithm processes from worker pools running on other
// resources.
//
// Every connection opens with a version hello and speaks length-prefixed
// binary frames with request ids, so a connection can pipeline many ops
// and the server answers out of order. This file holds the wire types,
// the op table, the hello and the frame codec; server.go holds the server
// reader/dispatcher/writer split and client.go the client session demux.
//
// Request ops and their fields (the codec carries them positionally). The
// three batch ops are the only way to submit, lease and resolve tasks; a
// singleton client call is a batch of one.
//
//	submit_batch {type, priority, payloads[, max_attempts, key]} -> {ok, task_ids}
//	pop_batch    {type, max, timeout_ms}                         -> {ok, tasks} (none on timeout)
//	finish_batch {finishes:[{task_id, epoch, failed, ...}]}      -> {ok, results:[{ok, stale?, wrong_shard?, shard, error?}]}
//	result       {task_id}                                       -> {ok, done, failed?, result|error}
//	stats        {}                                              -> {ok, stats}
//	wal_fetch    {seg, off}                                      -> {ok, seg, off, data, snapshot?}
//
// Claim fencing: every leased task carries the attempt epoch assigned by
// the database. Its finish_batch entry must echo it back; a resolution
// whose epoch no longer matches the task's current attempt (the lease
// expired and the task was requeued/re-popped) is rejected with stale=true
// in its result. Epoch 0 is the unfenced path: it falls back to the
// status-only check. Fenced resolutions are idempotent per attempt:
// re-sending the same resolution (e.g. after a lost response) succeeds
// without effect.
//
// Connection-scoped claims: the server remembers which task attempts each
// connection has popped but not yet resolved. When the connection drops —
// the remote worker crashed, its node was reclaimed, or the network
// partitioned — those claims are automatically failed, which requeues the
// task if it has retry budget left. A remote worker's death therefore
// cannot leak a task in StatusRunning forever, even with no lease reaper
// configured.
//
// Every frame is a fixed 16-byte header followed by a payload:
//
//	offset 0   magic      0xF7
//	offset 1   version    0x03
//	offset 2   op code    (request: the op; response: echoes the request op)
//	offset 3   flags      reserved, 0
//	offset 4   request id uint64 big-endian (pipelining correlation token)
//	offset 12  length     uint32 big-endian payload byte count
//
// Payloads are a compact field encoding (uvarint/varint integers,
// length-prefixed strings) of the wireRequest/wireResponse structs.
// Request ids let a connection carry many ops in flight: the server
// dispatches frames concurrently and responses may return out of order.
//
// Hello: the client opens every connection with clientHello and the
// server answers serverHelloAck, after which both sides speak frames.
// Each side reads exactly the other's fixed-length line, so the hello is
// the version check and bounds what a peer can make the server buffer.
// A server closes a connection whose hello does not match without a
// reply. The ack also proves the peer live before any op is written.
package emews

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	frameMagic      = 0xF7
	frameVersion    = 0x03
	frameHeaderLen  = 16
	maxFramePayload = 16 << 20 // decoder refuses larger claimed payloads
	maxWireBatch    = 1 << 16  // decoder cap on any list length
)

// A pop_batch response must fit in one frame. popFrameBudget bounds the
// tasks one lease carries, counting each task's payload plus
// wireTaskOverhead (its id, epoch and length prefix), with headroom below
// maxFramePayload for the response's other fields. maxTaskPayload is the
// largest payload submit_batch accepts, so a lease of one always fits.
const (
	wireTaskOverhead = 3 * binary.MaxVarintLen64
	popFrameBudget   = maxFramePayload - 1024
	maxTaskPayload   = popFrameBudget - wireTaskOverhead
)

// Hello lines, read back as exact byte counts.
const (
	clientHello    = "OSPREY-WIRE/3\n"
	serverHelloAck = "OSPREY-WIRE/3 OK\n"
)

// Request op codes. Responses echo the request's code.
const (
	opcResult byte = iota + 1
	opcStats
	opcSubmitBatch
	opcPopBatch
	opcFinishBatch
	opcWALFetch
)

// opNames names the op codes for messages; a code outside it is unknown
// to the decoder.
var opNames = [...]string{
	opcResult:      "result",
	opcStats:       "stats",
	opcSubmitBatch: "submit_batch",
	opcPopBatch:    "pop_batch",
	opcFinishBatch: "finish_batch",
	opcWALFetch:    "wal_fetch",
}

func knownOp(code byte) bool { return int(code) < len(opNames) && opNames[code] != "" }

// opName names an op code for messages.
func opName(code byte) string {
	if knownOp(code) {
		return opNames[code]
	}
	return fmt.Sprintf("code %d", code)
}

type wireRequest struct {
	Op        byte // opcSubmitBatch, opcPopBatch, ...
	Type      string
	Priority  int
	TaskID    int64 // result
	TimeoutMS int
	// MaxAttempts > 0 on submit_batch enables automatic
	// requeue-on-failure up to that many attempts (DB.SubmitRetry
	// semantics); 0 keeps the single-attempt default.
	MaxAttempts int
	// Max bounds how many tasks one pop_batch may lease.
	Max      int
	Payloads []string     // submit_batch
	Finishes []wireFinish // finish_batch
	// Key is the shard-routing key of a submit_batch. A server with a shard
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

// wireResult is one per-op outcome inside a finish_batch response. A
// WrongShard entry was not applied: Shard owns the task.
type wireResult struct {
	OK         bool
	Stale      bool
	WrongShard bool
	Shard      int
	Error      string
}

// err converts a rejected outcome into an error: *WrongShardError for a
// redirect, an ErrStaleClaim match for a superseded claim, else the
// server's message. An accepted outcome is nil.
func (r wireResult) err() error {
	switch {
	case r.OK:
		return nil
	case r.WrongShard:
		return &WrongShardError{Shard: r.Shard, Msg: r.Error}
	case r.Stale:
		return &staleRemoteError{msg: r.Error}
	}
	return errors.New(r.Error)
}

// resultOf is the wire outcome of one resolution.
func resultOf(err error) wireResult {
	var ws *WrongShardError
	switch {
	case err == nil:
		return wireResult{OK: true}
	case errors.As(err, &ws):
		return wireResult{WrongShard: true, Shard: ws.Shard, Error: ws.Msg}
	}
	return wireResult{Stale: errors.Is(err, ErrStaleClaim), Error: err.Error()}
}

type wireResponse struct {
	OK     bool
	Error  string
	Result string
	Done   bool
	// Failed marks a result response for a task that terminated
	// unsuccessfully. Clients must key on this, not on Error being
	// non-empty: a task can fail with an empty message.
	Failed  bool
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

// errBadFrame is wrapped by every decode error of a wire frame or a log
// record (record.go).
var errBadFrame = errors.New("emews: malformed frame or record")

// wireBufPool recycles encode/decode buffers end-to-end: frame assembly on
// the send side, payload reads on the receive side.
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getWireBuf() []byte {
	return (*wireBufPool.Get().(*[]byte))[:0]
}

func putWireBuf(b []byte) {
	if cap(b) > 1<<20 {
		return // don't let one huge payload pin memory in the pool
	}
	wireBufPool.Put(&b)
}

// ---- encoding ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// appendRequestPayload encodes every wireRequest field in a fixed order.
// All ops share the layout; unused fields cost one zero byte each.
func appendRequestPayload(b []byte, req *wireRequest) []byte {
	b = appendString(b, req.Type)
	b = appendString(b, req.Key)
	b = binary.AppendVarint(b, int64(req.Priority))
	b = binary.AppendVarint(b, int64(req.TimeoutMS))
	b = binary.AppendVarint(b, int64(req.MaxAttempts))
	b = binary.AppendVarint(b, int64(req.Max))
	b = binary.AppendVarint(b, int64(req.Seg))
	b = binary.AppendVarint(b, req.Off)
	b = binary.AppendUvarint(b, uint64(req.TaskID))
	b = binary.AppendUvarint(b, uint64(len(req.Payloads)))
	for _, p := range req.Payloads {
		b = appendString(b, p)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Finishes)))
	for _, f := range req.Finishes {
		b = binary.AppendUvarint(b, uint64(f.TaskID))
		b = binary.AppendUvarint(b, uint64(f.Epoch))
		b = appendBool(b, f.Failed)
		b = appendString(b, f.Result)
		b = appendString(b, f.ErrMsg)
	}
	return b
}

// Response flag bits. respStale is only set on a finish_batch entry.
const (
	respOK         = 1 << 0
	respStale      = 1 << 1
	respDone       = 1 << 2
	respFailed     = 1 << 3
	respHasStats   = 1 << 4
	respWrongShard = 1 << 5
	respSnapshot   = 1 << 6
)

func appendResponsePayload(b []byte, resp *wireResponse) []byte {
	var flags byte
	if resp.OK {
		flags |= respOK
	}
	if resp.Done {
		flags |= respDone
	}
	if resp.Failed {
		flags |= respFailed
	}
	if resp.Stats != nil {
		flags |= respHasStats
	}
	if resp.WrongShard {
		flags |= respWrongShard
	}
	if resp.Snapshot {
		flags |= respSnapshot
	}
	b = append(b, flags)
	b = appendString(b, resp.Error)
	b = appendString(b, resp.Result)
	b = binary.AppendVarint(b, int64(resp.Shard))
	b = binary.AppendVarint(b, int64(resp.Seg))
	b = binary.AppendVarint(b, resp.Off)
	b = appendBytes(b, resp.Data)
	b = binary.AppendUvarint(b, uint64(len(resp.Tasks)))
	for _, t := range resp.Tasks {
		b = binary.AppendUvarint(b, uint64(t.ID))
		b = binary.AppendUvarint(b, uint64(t.Epoch))
		b = appendString(b, t.Payload)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.TaskIDs)))
	for _, id := range resp.TaskIDs {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Results)))
	for _, r := range resp.Results {
		var rf byte
		if r.OK {
			rf |= respOK
		}
		if r.Stale {
			rf |= respStale
		}
		if r.WrongShard {
			rf |= respWrongShard
		}
		b = append(b, rf)
		b = appendString(b, r.Error)
		b = binary.AppendVarint(b, int64(r.Shard))
	}
	if resp.Stats != nil {
		b = appendStats(b, resp.Stats)
	}
	return b
}

// appendFrame reserves a header, appends the payload via encode, and
// back-patches the header with the final length.
func appendFrame(b []byte, code byte, id uint64, encode func([]byte) []byte) ([]byte, error) {
	start := len(b)
	var hdr [frameHeaderLen]byte
	b = append(b, hdr[:]...)
	b = encode(b)
	n := len(b) - start - frameHeaderLen
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds limit", errBadFrame, n)
	}
	h := b[start:]
	h[0] = frameMagic
	h[1] = frameVersion
	h[2] = code
	h[3] = 0
	binary.BigEndian.PutUint64(h[4:12], id)
	binary.BigEndian.PutUint32(h[12:16], uint32(n))
	return b, nil
}

func appendRequestFrame(b []byte, id uint64, req *wireRequest) ([]byte, error) {
	return appendFrame(b, req.Op, id, func(b []byte) []byte { return appendRequestPayload(b, req) })
}

func appendResponseFrame(b []byte, code byte, id uint64, resp *wireResponse) []byte {
	out, err := appendFrame(b, code, id, func(b []byte) []byte { return appendResponsePayload(b, resp) })
	if err != nil {
		// Oversized response (a task result can exceed the frame limit):
		// degrade to an error response the peer can still parse.
		out, _ = appendFrame(b[:0], code, id, func(b []byte) []byte {
			return appendResponsePayload(b, &wireResponse{Error: err.Error()})
		})
	}
	return out
}

// readFrame reads one frame header + payload. The returned payload buffer
// comes from wireBufPool; the caller must putWireBuf it after decoding.
func readFrame(r io.Reader) (code byte, id uint64, payload []byte, err error) {
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, 0, nil, err
	}
	if h[0] != frameMagic || h[1] != frameVersion {
		return 0, 0, nil, fmt.Errorf("%w: magic=%#x version=%#x", errBadFrame, h[0], h[1])
	}
	n := binary.BigEndian.Uint32(h[12:16])
	if n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("%w: payload length %d exceeds limit", errBadFrame, n)
	}
	id = binary.BigEndian.Uint64(h[4:12])
	buf := getWireBuf()
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		putWireBuf(buf)
		return 0, 0, nil, err
	}
	return h[2], id, buf, nil
}

// ---- decoding ----

// wireReader is a bounds-checked cursor over a frame payload or a log
// record (record.go). Every accessor is a no-op once an error is
// recorded, so call sites can decode straight through and check err once.
// It accepts only what the encoders write: minimal varints and 0/1 flags.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errBadFrame, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *wireReader) fail(what string) { r.failf("truncated %s", what) }

// minimal checks that the n-byte varint at r.off has no redundant
// high-order zero group, so it re-encodes to the same bytes.
func (r *wireReader) minimal(what string, n int) bool {
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.failf("non-minimal varint %s", what)
		return false
	}
	r.off += n
	return true
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	if !r.minimal(what, n) {
		return 0
	}
	return v
}

func (r *wireReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	if !r.minimal(what, n) {
		return 0
	}
	return v
}

func (r *wireReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)]) // copies out of the pooled buffer
	r.off += int(n)
	return s
}

// bytes reads a length-prefixed byte run, copying out of the pooled
// buffer. A zero length decodes as nil.
func (r *wireReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *wireReader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) boolByte(what string) bool {
	v := r.u8(what)
	if v > 1 {
		r.failf("flag %s is %d", what, v)
	}
	return v == 1
}

// count validates a list length against both the batch cap and the bytes
// actually present.
func (r *wireReader) count(what string) int { return r.listLen(what, maxWireBatch) }

// listLen reads a list length and bounds it by limit and by the bytes
// actually present (each element needs at least one byte), so a hostile
// length cannot force a huge allocation.
func (r *wireReader) listLen(what string, limit uint64) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > limit || n > uint64(len(r.b)-r.off) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// appendStats writes the occupancy counters in a fixed order.
func appendStats(b []byte, st *Stats) []byte {
	for _, v := range [...]int{st.Queued, st.Running, st.Complete, st.Failed, st.Canceled, st.Submitted} {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func (r *wireReader) stats() Stats {
	var st Stats
	st.Queued = int(r.varint("stats queued"))
	st.Running = int(r.varint("stats running"))
	st.Complete = int(r.varint("stats complete"))
	st.Failed = int(r.varint("stats failed"))
	st.Canceled = int(r.varint("stats canceled"))
	st.Submitted = int(r.varint("stats submitted"))
	return st
}

func decodeRequestPayload(code byte, payload []byte) (wireRequest, error) {
	if !knownOp(code) {
		return wireRequest{}, fmt.Errorf("%w: unknown op code %d", errBadFrame, code)
	}
	r := &wireReader{b: payload}
	req := wireRequest{Op: code}
	req.Type = r.str("type")
	req.Key = r.str("key")
	req.Priority = int(r.varint("priority"))
	req.TimeoutMS = int(r.varint("timeout_ms"))
	req.MaxAttempts = int(r.varint("max_attempts"))
	req.Max = int(r.varint("max"))
	req.Seg = int(r.varint("seg"))
	req.Off = r.varint("off")
	req.TaskID = int64(r.uvarint("task_id"))
	if n := r.count("payloads"); n > 0 {
		req.Payloads = make([]string, 0, n)
		for i := 0; i < n; i++ {
			req.Payloads = append(req.Payloads, r.str("payloads"))
		}
	}
	if n := r.count("finishes"); n > 0 {
		req.Finishes = make([]wireFinish, 0, n)
		for i := 0; i < n; i++ {
			var f wireFinish
			f.TaskID = int64(r.uvarint("finish task_id"))
			f.Epoch = int64(r.uvarint("finish epoch"))
			f.Failed = r.boolByte("finish failed")
			f.Result = r.str("finish result")
			f.ErrMsg = r.str("finish err_msg")
			req.Finishes = append(req.Finishes, f)
		}
	}
	if r.err != nil {
		return wireRequest{}, r.err
	}
	return req, nil
}

func decodeResponsePayload(code byte, payload []byte) (wireResponse, error) {
	if !knownOp(code) {
		return wireResponse{}, fmt.Errorf("%w: unknown op code %d", errBadFrame, code)
	}
	r := &wireReader{b: payload}
	var resp wireResponse
	if len(payload) == 0 {
		r.fail("flags")
	} else {
		flags := payload[0]
		r.off = 1
		resp.OK = flags&respOK != 0
		resp.Done = flags&respDone != 0
		resp.Failed = flags&respFailed != 0
		resp.WrongShard = flags&respWrongShard != 0
		resp.Snapshot = flags&respSnapshot != 0
		resp.Error = r.str("error")
		resp.Result = r.str("result")
		resp.Shard = int(r.varint("shard"))
		resp.Seg = int(r.varint("seg"))
		resp.Off = r.varint("off")
		resp.Data = r.bytes("data")
		if n := r.count("tasks"); n > 0 {
			resp.Tasks = make([]wireTask, 0, n)
			for i := 0; i < n; i++ {
				var t wireTask
				t.ID = int64(r.uvarint("task id"))
				t.Epoch = int64(r.uvarint("task epoch"))
				t.Payload = r.str("task payload")
				resp.Tasks = append(resp.Tasks, t)
			}
		}
		if n := r.count("task_ids"); n > 0 {
			resp.TaskIDs = make([]int64, 0, n)
			for i := 0; i < n; i++ {
				resp.TaskIDs = append(resp.TaskIDs, int64(r.uvarint("task_ids")))
			}
		}
		if n := r.count("results"); n > 0 {
			resp.Results = make([]wireResult, 0, n)
			for i := 0; i < n; i++ {
				var res wireResult
				rf := r.u8("result flags")
				res.OK = rf&respOK != 0
				res.Stale = rf&respStale != 0
				res.WrongShard = rf&respWrongShard != 0
				res.Error = r.str("result error")
				res.Shard = int(r.varint("result shard"))
				resp.Results = append(resp.Results, res)
			}
		}
		if flags&respHasStats != 0 {
			st := r.stats()
			resp.Stats = &st
		}
	}
	if r.err != nil {
		return wireResponse{}, r.err
	}
	return resp, nil
}
