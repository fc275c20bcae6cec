package aero

import (
	"sync"
	"time"
)

// DataUpdate is delivered to subscribers when a data identity gains a new
// version — the push-style counterpart of registering an analysis flow,
// used by dashboards, streaming /watch clients, and external notification
// hooks. Seq is a per-hub monotone publish sequence (assigned under the
// hub lock, so sequence order matches version-append order); subscribers
// use it to reconcile delivery against drops.
type DataUpdate struct {
	UUID    string    `json:"uuid"`
	Version int       `json:"version"`
	Time    time.Time `json:"time"`
	Seq     int64     `json:"seq"`
}

// Subscription is one streaming watch: a bounded queue of updates drained
// by Next. Publishing never blocks — when the queue is full the OLDEST
// queued update is discarded to make room (drop-oldest backpressure), the
// drop is counted on the subscription and on aero.watch.dropped, and the
// newest update always lands. A slow consumer therefore converges to the
// most recent events plus an honest count of what it missed, instead of
// stalling the platform or silently losing the tail.
type Subscription struct {
	hub    *watchHub
	id     int
	uuid   string // empty = all data the subscription's tenant can see
	tenant string // only updates whose UUID belongs to tenant are delivered

	mu      sync.Mutex
	queue   []DataUpdate
	cap     int
	dropped int64
	closed  bool
	notify  chan struct{} // 1-buffered wakeup for Next
}

func (s *Subscription) matches(u DataUpdate) bool {
	if s.uuid != "" && s.uuid != u.UUID {
		return false
	}
	return tenantOf(u.UUID) == s.tenant
}

// offer enqueues u, dropping the oldest queued update when full. Never
// blocks; called by the hub under its own lock (ordering), taking only the
// subscription lock inside.
func (s *Subscription) offer(u DataUpdate) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if len(s.queue) >= s.cap {
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.dropped++
		mWatchDropped.Inc()
	}
	s.queue = append(s.queue, u)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next drains the queue: it returns every queued update (delivery order)
// plus the cumulative drop count, waiting up to timeout for the first one.
// A non-positive timeout polls without waiting. ok is false once the
// subscription is canceled and its queue has fully drained.
func (s *Subscription) Next(timeout time.Duration) (events []DataUpdate, dropped int64, ok bool) {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
			events = s.queue
			s.queue = nil
			dropped = s.dropped
			s.mu.Unlock()
			return events, dropped, true
		}
		closed := s.closed
		dropped = s.dropped
		s.mu.Unlock()
		if closed {
			return nil, dropped, false
		}
		if timeout <= 0 {
			return nil, dropped, true
		}
		select {
		case <-s.notify:
		case <-deadline:
			return nil, dropped, true
		}
	}
}

// Dropped reports how many updates this subscription discarded under
// backpressure.
func (s *Subscription) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cancel releases the subscription. Queued updates remain readable via
// Next until drained; further publishes are discarded without counting.
func (s *Subscription) Cancel() {
	s.hub.unsubscribe(s.id)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// watchHub fans data-update events out to bounded-queue subscriptions and
// assigns the publish sequence.
type watchHub struct {
	mu   sync.Mutex
	subs map[int]*Subscription
	next int
	seq  int64
}

func newWatchHub() *watchHub { return &watchHub{subs: map[int]*Subscription{}} }

func (h *watchHub) subscribe(tenant, uuid string, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 16
	}
	s := &Subscription{
		hub: h, uuid: uuid, tenant: tenant,
		cap: buffer, notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	h.next++
	s.id = h.next
	h.subs[s.id] = s
	h.mu.Unlock()
	mWatchSubscribers.Inc()
	return s
}

func (h *watchHub) unsubscribe(id int) {
	h.mu.Lock()
	_, ok := h.subs[id]
	delete(h.subs, id)
	h.mu.Unlock()
	if ok {
		mWatchSubscribers.Dec()
	}
}

// publish assigns the next sequence number and fans u out. Holding the hub
// lock across the fan-out keeps sequence order and delivery order aligned
// for every subscriber; each offer is non-blocking, so the hold is bounded.
func (h *watchHub) publish(u DataUpdate) {
	mWatchPublished.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	u.Seq = h.seq
	for _, s := range h.subs {
		if s.matches(u) {
			s.offer(u)
		}
	}
}
