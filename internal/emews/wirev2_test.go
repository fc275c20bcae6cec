package emews

import (
	"bytes"
	"reflect"
	"testing"
)

// fullRequest populates every wireRequest field the codec carries.
func fullRequest() wireRequest {
	return wireRequest{
		Op:          opcFinishBatch,
		Type:        "sim",
		Priority:    -3,
		Payload:     "payload with \x00 bytes and unicode ✓",
		TaskID:      1 << 40,
		Epoch:       7,
		Result:      "r",
		ErrMsg:      "boom",
		TimeoutMS:   250,
		MaxAttempts: 5,
		Max:         64,
		Key:         "route-key ✓",
		Seg:         12,
		Off:         1 << 33,
		Payloads:    []string{"", "a", "bb"},
		Finishes: []wireFinish{
			{TaskID: 1, Epoch: 2, Failed: true, Result: "", ErrMsg: "e"},
			{TaskID: 3, Epoch: 0, Failed: false, Result: "ok", ErrMsg: ""},
		},
	}
}

func fullResponse() wireResponse {
	return wireResponse{
		OK:      true,
		Error:   "partial",
		Stale:   true,
		TaskID:  99,
		Epoch:   3,
		Payload: "p",
		Result:  "res",
		Done:    true,
		Failed:  true,
		Empty:   true,
		Tasks: []wireTask{
			{ID: 1, Epoch: 1, Payload: "x"},
			{ID: 2, Epoch: 5, Payload: ""},
		},
		TaskIDs: []int64{10, 11, 12},
		Results: []wireResult{
			{OK: true},
			{OK: false, Stale: true, Error: "stale claim"},
			{OK: false, Error: "nope"},
		},
		Stats:      &Stats{Queued: 1, Running: 2, Complete: 3, Failed: -4, Canceled: 5, Submitted: 7},
		WrongShard: true,
		Shard:      2,
		Seg:        4,
		Off:        513,
		Snapshot:   true,
		Data:       []byte{0x00, 0xff, 0x7f, 0x01},
	}
}

// Every field must survive an encode/decode round trip through the binary
// frame codec, for both directions of the protocol.
func TestWireV2RoundTrip(t *testing.T) {
	req := fullRequest()
	buf, err := appendRequestFrame(nil, 42, &req)
	if err != nil {
		t.Fatal(err)
	}
	code, id, payload, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || code != opcFinishBatch {
		t.Fatalf("frame header: code=%d id=%d", code, id)
	}
	got, err := decodeRequestPayload(code, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", got, req)
	}

	resp := fullResponse()
	rbuf := appendResponseFrame(nil, opcPopBatch, 7, &resp)
	code, id, payload, err = readFrame(bytes.NewReader(rbuf))
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || code != opcPopBatch {
		t.Fatalf("frame header: code=%d id=%d", code, id)
	}
	gotResp, err := decodeResponsePayload(code, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("response round trip:\n got %+v\nwant %+v", gotResp, resp)
	}

	// A zero-value request (all fields empty) must round-trip too.
	minimal := wireRequest{Op: opcStats}
	buf, err = appendRequestFrame(nil, 1, &minimal)
	if err != nil {
		t.Fatal(err)
	}
	code, _, payload, err = readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeRequestPayload(code, payload); err != nil || !reflect.DeepEqual(got, minimal) {
		t.Fatalf("minimal round trip: %+v, %v", got, err)
	}
}

// Malformed frames must be rejected with errBadFrame, never accepted or
// panicked on.
func TestWireV2RejectsBadFrames(t *testing.T) {
	good, err := appendRequestFrame(nil, 1, &wireRequest{Op: opcPop, Type: "m"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 0x00
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted frame with bad magic")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[1] = 0x01
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted frame with bad version")
		}
	})
	t.Run("oversized-length", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted frame with oversized payload length")
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if _, _, _, err := readFrame(bytes.NewReader(good[:len(good)-1])); err == nil {
			t.Fatal("accepted truncated frame")
		}
	})
	t.Run("unknown-op", func(t *testing.T) {
		code, _, payload, err := readFrame(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		defer putWireBuf(payload)
		if _, err := decodeRequestPayload(code+100, payload); err == nil {
			t.Fatal("accepted unknown op code")
		}
	})
	t.Run("truncated-fields", func(t *testing.T) {
		full := fullRequest()
		buf, err := appendRequestFrame(nil, 1, &full)
		if err != nil {
			t.Fatal(err)
		}
		code, _, payload, err := readFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer putWireBuf(payload)
		// Chopping the payload at any prefix must yield an error, not a
		// partial struct silently missing fields.
		for n := 0; n < len(payload); n++ {
			if _, err := decodeRequestPayload(code, payload[:n]); err == nil {
				t.Fatalf("accepted payload truncated to %d/%d bytes", n, len(payload))
			}
		}
	})
	t.Run("hostile-list-count", func(t *testing.T) {
		// A payload claiming 2^40 finishes with no bytes behind it must be
		// rejected by the count bound, not trigger a huge allocation.
		payload := make([]byte, 0, 64)
		for i := 0; i < 4; i++ { // type, payload, result, err_msg
			payload = append(payload, 0)
		}
		for i := 0; i < 4; i++ { // priority, timeout_ms, max_attempts, max
			payload = append(payload, 0)
		}
		payload = append(payload, 0, 0) // task_id, epoch
		payload = append(payload, 0)    // payloads count = 0
		payload = append(payload, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
		if _, err := decodeRequestPayload(opcFinishBatch, payload); err == nil {
			t.Fatal("accepted hostile finish count")
		}
	})
}

// The frame decoder must never panic or over-allocate on arbitrary input.
func FuzzDecodeFrame(f *testing.F) {
	if buf, err := appendRequestFrame(nil, 3, &wireRequest{Op: opcPop, Type: "m", TimeoutMS: 5}); err == nil {
		f.Add(buf)
	}
	full := fullRequest()
	if buf, err := appendRequestFrame(nil, 9, &full); err == nil {
		f.Add(buf)
	}
	resp := fullResponse()
	f.Add(appendResponseFrame(nil, opcPop, 1, &resp))
	f.Add([]byte{frameMagic, frameVersion})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		code, _, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = decodeRequestPayload(code, payload)
		_, _ = decodeResponsePayload(code, payload)
		putWireBuf(payload)
	})
}
