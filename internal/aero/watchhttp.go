package aero

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Streaming watch over HTTP: GET /watch delivers DataUpdate events for
// the request's tenant namespace as a Server-Sent Events stream. The
// request must accept text/event-stream; any other Accept gets 406.
//
// Query parameters:
//
//	uuid=     watch one identity (default: the whole namespace)
//	buffer=   per-subscriber queue bound (default 64, cap 4096;
//	          drop-oldest past it)
//	timeout=  keep-alive interval (default 30s, cap 5m)
//
// Frames:
//
//	event: ready              sent once, before any update — subscribers
//	data: {"dropped":0}       that need every event wait for it before
//	                          causing the writes they want to observe
//	event: update
//	data: {"uuid":...,"version":N,"time":...,"seq":S,"dropped":D}
//
// where dropped is the subscription's cumulative drop-oldest count — the
// honest record of what a slow consumer missed.

// Bounds of a subscriber queue: the default when buffer= is absent, and
// the cap that keeps one slow reader from holding unbounded server memory.
const (
	watchDefaultBuffer = 64
	watchMaxBuffer     = 4096
)

// sseUpdate is the wire form of one update event.
type sseUpdate struct {
	UUID    string    `json:"uuid"`
	Version int       `json:"version"`
	Time    time.Time `json:"time"`
	Seq     int64     `json:"seq"`
	Dropped int64     `json:"dropped"`
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		http.Error(w, "aero: /watch is a text/event-stream endpoint", http.StatusNotAcceptable)
		return
	}
	q := r.URL.Query()
	buffer := watchDefaultBuffer
	if b, err := strconv.Atoi(q.Get("buffer")); err == nil && b > 0 {
		buffer = min(b, watchMaxBuffer)
	}
	keepAlive := 30 * time.Second
	if d, err := time.ParseDuration(q.Get("timeout")); err == nil && d > 0 {
		keepAlive = min(d, 5*time.Minute)
	}
	s.watchSSE(w, r, tenantFrom(r), q.Get("uuid"), buffer, keepAlive)
}

// watchSSE streams updates until the client disconnects. The subscription
// lives exactly as long as the connection.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, tenant, uuid string, buffer int, keepAlive time.Duration) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	sub, err := s.store.SubscribeUpdates(tenant, uuid, buffer)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// The ready frame commits the subscription: every update published
	// after the client reads it is either delivered or counted dropped.
	fmt.Fprintf(w, "event: ready\ndata: {\"dropped\":0}\n\n")
	flusher.Flush()

	ctx := r.Context()
	// Wake at least this often to notice client disconnects and to send
	// keep-alive comments through idle proxies.
	wait := keepAlive
	if wait > time.Second {
		wait = time.Second
	}
	idle := time.Duration(0)
	for {
		events, dropped, ok := sub.Next(wait)
		if ctx.Err() != nil || !ok {
			return
		}
		if len(events) == 0 {
			idle += wait
			if idle >= keepAlive {
				fmt.Fprint(w, ": keep-alive\n\n")
				flusher.Flush()
				idle = 0
			}
			continue
		}
		idle = 0
		for _, u := range events {
			b, err := json.Marshal(sseUpdate{UUID: u.UUID, Version: u.Version, Time: u.Time, Seq: u.Seq, Dropped: dropped})
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: update\ndata: %s\n\n", b)
		}
		flusher.Flush()
	}
}
