package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"osprey/internal/obs"
)

// span is one timed layer call, in nanoseconds since the tracer's origin.
type span struct {
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"`
}

// tracer records the bench's own spans around every layer call, plus the
// program's obs spans drained after each op. A nil *tracer records nothing:
// the untraced runs that give the end-to-end metrics pass nil.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span

	// The obs ring holds spans in finish order, while IDs follow start
	// order, so drains tell new spans by the IDs of the previous drain's
	// ring contents. obsLost counts spans evicted from the 512-span ring
	// before a drain reached them.
	obsIDs   map[uint64]bool
	obsTotal uint64
	obsLost  uint64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.skipObs()
	return t
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// record adds a span of layer from start to now.
func (t *tracer) record(layer string, start time.Time) {
	if t == nil {
		return
	}
	t.recordAt(layer, start, time.Now(), "")
}

func (t *tracer) recordAt(layer string, start, end time.Time, detail string) {
	if t == nil {
		return
	}
	s := span{Layer: layer, Start: t.ns(start), End: t.ns(end), Detail: detail}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drainObs copies the obs spans finished since the last drain. Call it
// after every op so the 512-span ring never evicts an unread span.
func (t *tracer) drainObs() {
	if t != nil {
		t.drain(true)
	}
}

// skipObs marks every obs span finished so far as drained without
// recording it: work outside the measured ops (set-up) neither enters the
// trace nor counts as lost.
func (t *tracer) skipObs() {
	if t != nil {
		t.drain(false)
	}
}

// drain reads the ring. Drains run between ops, when no span is in
// flight, so the ring and its total are read consistently.
func (t *tracer) drain(keep bool) {
	tr := obs.DefaultTracer()
	recs := tr.Snapshot()
	total := tr.Total()
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[uint64]bool, len(recs))
	fresh := 0
	for _, r := range recs {
		ids[r.ID] = true
		if t.obsIDs[r.ID] {
			continue
		}
		fresh++
		if keep {
			end := r.Start.Add(time.Duration(r.DurationMS * float64(time.Millisecond)))
			t.spans = append(t.spans, span{Layer: r.Name, Start: t.ns(r.Start), End: t.ns(end), Detail: r.Detail})
		}
	}
	if finished := total - t.obsTotal; keep && finished > uint64(fresh) {
		t.obsLost += finished - uint64(fresh)
	}
	t.obsIDs = ids
	t.obsTotal = total
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// clip keeps the parts of spans inside the wall-clock window [from, to).
func clip(spans []span, t *tracer, from, to time.Time) []span {
	if t == nil {
		return nil
	}
	lo, hi := t.ns(from), t.ns(to)
	var out []span
	for _, s := range spans {
		s.Start, s.End = max(s.Start, lo), min(s.End, hi)
		if s.End > s.Start {
			out = append(out, s)
		}
	}
	return out
}

// spansOf filters spans by layer.
func spansOf(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the lengths of spans.
func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.End - s.Start)
	}
	return out
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
