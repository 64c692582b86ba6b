// Package admission implements overload protection for the replication
// middleware: per-cluster and per-user concurrency limits with a bounded
// priority wait queue, typed retryable errors, and slow-query accounting.
//
// The paper's thesis is that middleware replication fails in production for
// operational reasons; its flash-crowd discussion (the §1 ticket-broker
// scenario) is the load shape this package defends against. A fixed number
// of slots bounds concurrent work; requests beyond that wait in a bounded
// queue whose per-class allowances form a graceful degradation ladder:
// ANY-consistency reads are shed first, SESSION reads queue longer, and
// writes are rejected last. Queue overflow surfaces as ErrOverloaded and
// wait-deadline expiry as ErrDeadlineExceeded — both typed and retryable,
// so the wire layer classifies them and pooled drivers back off and retry
// instead of hammering a saturated cluster.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Class orders request priorities for the degradation ladder: the lower the
// class, the earlier it is shed under overload.
type Class int

// Request classes, in shed-first order.
const (
	// ClassReadAny is a read with no freshness guarantee: the cheapest
	// work to shed — the client tolerates staleness, so it tolerates a
	// retry even better.
	ClassReadAny Class = iota
	// ClassReadSession is a read carrying a session guarantee
	// (read-your-writes / monotonic reads): queued under pressure.
	ClassReadSession
	// ClassWrite is a write or transaction statement: rejected last.
	ClassWrite

	// NumClasses is the number of request classes.
	NumClasses = int(ClassWrite) + 1
)

// String names the class for metrics output.
func (c Class) String() string {
	switch c {
	case ClassReadAny:
		return "read_any"
	case ClassReadSession:
		return "read_session"
	case ClassWrite:
		return "write"
	}
	return "unknown"
}

// ErrOverloaded is returned when a request cannot be admitted or queued:
// the slots are busy and the wait queue is past this class's allowance (or
// the user is past its per-user limit). It is retryable — the cluster may
// well admit a later attempt — and the wire layer carries that
// classification to pooled drivers.
var ErrOverloaded = errors.New("admission: overloaded — concurrency slots and wait queue are full (retryable)")

// ErrDeadlineExceeded is returned when a queued request's wait deadline
// expires before a slot frees. It wraps context.DeadlineExceeded so one
// errors.Is check classifies deadline expiry from every layer.
var ErrDeadlineExceeded = fmt.Errorf("admission: queue wait deadline exceeded: %w", context.DeadlineExceeded)

// Config sizes a Controller.
type Config struct {
	// Slots is the number of requests executing concurrently; must be > 0.
	Slots int
	// PerUser caps concurrently admitted requests per user; 0 = unlimited.
	PerUser int
	// Queue bounds the total number of waiting requests; 0 means 4×Slots.
	// Per-class allowances derive from it: a write may queue while fewer
	// than Queue requests wait, a SESSION read while fewer than Queue/2,
	// an ANY read while fewer than Queue/4 — the degradation ladder.
	Queue int
	// MaxWait bounds the queue wait of requests that carry no deadline of
	// their own; 0 means 1 s. A bounded wait is what turns a saturated
	// cluster into fast typed rejections instead of a convoy.
	MaxWait time.Duration
	// SlowThreshold classifies a statement as slow for the slow-query
	// counters; 0 means 100 ms. Latency is measured from Acquire entry
	// (queue wait included — that is what the client experienced).
	SlowThreshold time.Duration
	// HistCap bounds per-class histogram samples; 0 uses the metrics
	// package default.
	HistCap int
}

// waiter is one queued request.
type waiter struct {
	user    string
	class   Class
	ready   chan struct{} // closed on grant
	granted bool
}

// Controller is the admission gate a cluster routes every statement
// through. Safe for concurrent use. A nil *Controller is valid and admits
// everything (admission off).
type Controller struct {
	cfg Config

	mu           sync.Mutex
	active       int
	activeByUser map[string]int
	queues       [NumClasses][]*waiter // FIFO per class
	waiting      int

	admitted metrics.Counter
	queued   metrics.Counter
	expired  metrics.Counter
	shed     [NumClasses]metrics.Counter
	slow     [NumClasses]metrics.Counter
	hist     [NumClasses]*metrics.Histogram
}

// NewController builds a controller; cfg.Slots must be positive.
func NewController(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		cfg.Slots = 64
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Slots
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = time.Second
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	c := &Controller{cfg: cfg, activeByUser: make(map[string]int)}
	for i := range c.hist {
		c.hist[i] = metrics.NewHistogram(cfg.HistCap)
	}
	return c
}

// allowance is the queue occupancy below which the class may still enqueue:
// the ladder. Writes use the whole queue, SESSION reads half, ANY reads a
// quarter (each at least 1, so a tiny queue still admits every class when
// idle).
func (c *Controller) allowance(class Class) int {
	var a int
	switch class {
	case ClassWrite:
		a = c.cfg.Queue
	case ClassReadSession:
		a = c.cfg.Queue / 2
	default:
		a = c.cfg.Queue / 4
	}
	if a < 1 {
		a = 1
	}
	return a
}

// Slot is one admitted request's hold on the controller. Release it exactly
// once via Done (or Release). A nil *Slot is valid and does nothing — the
// shape Acquire returns when admission is off.
type Slot struct {
	c     *Controller
	user  string
	class Class
	start time.Time
	once  sync.Once
}

// Acquire admits a request, queueing it (bounded, prioritized) when all
// slots are busy. deadline bounds the queue wait; zero falls back to the
// controller's MaxWait. Returns ErrOverloaded when the request is shed and
// ErrDeadlineExceeded when the wait deadline expires — in both cases no
// slot is held. Safe on a nil controller (admission off: returns a nil
// slot and no error).
func (c *Controller) Acquire(user string, class Class, deadline time.Time) (*Slot, error) {
	if c == nil {
		return nil, nil
	}
	start := time.Now()
	c.mu.Lock()
	if c.cfg.PerUser > 0 && c.activeByUser[user] >= c.cfg.PerUser {
		c.mu.Unlock()
		c.shed[class].Inc()
		return nil, fmt.Errorf("user %q at per-user limit %d: %w", user, c.cfg.PerUser, ErrOverloaded)
	}
	if c.active < c.cfg.Slots {
		c.active++
		c.activeByUser[user]++
		c.mu.Unlock()
		c.admitted.Inc()
		return &Slot{c: c, user: user, class: class, start: start}, nil
	}
	if c.waiting >= c.allowance(class) {
		c.mu.Unlock()
		c.shed[class].Inc()
		return nil, ErrOverloaded
	}
	w := &waiter{user: user, class: class, ready: make(chan struct{})}
	c.queues[class] = append(c.queues[class], w)
	c.waiting++
	c.mu.Unlock()
	c.queued.Inc()

	if deadline.IsZero() {
		deadline = start.Add(c.cfg.MaxWait)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-w.ready:
		c.admitted.Inc()
		return &Slot{c: c, user: user, class: class, start: start}, nil
	case <-timer.C:
	}
	c.mu.Lock()
	if w.granted {
		// The grant raced the timer; the slot is ours — keep it. (The
		// releaser already transferred it, so dropping it here would leak.)
		c.mu.Unlock()
		c.admitted.Inc()
		return &Slot{c: c, user: user, class: class, start: start}, nil
	}
	c.removeWaiterLocked(w)
	c.mu.Unlock()
	c.expired.Inc()
	return nil, ErrDeadlineExceeded
}

// removeWaiterLocked takes an unexpired waiter out of its class queue.
func (c *Controller) removeWaiterLocked(w *waiter) {
	q := c.queues[w.class]
	for i, cand := range q {
		if cand == w {
			c.queues[w.class] = append(q[:i], q[i+1:]...)
			c.waiting--
			return
		}
	}
}

// release frees a slot, handing it to the highest-priority eligible waiter
// (writes first — they are rejected last, so they are served first when
// capacity frees). Waiters whose user is at its per-user limit are skipped,
// not dropped: a release by that user will reach them.
func (c *Controller) release(user string) {
	c.mu.Lock()
	if n := c.activeByUser[user]; n <= 1 {
		delete(c.activeByUser, user)
	} else {
		c.activeByUser[user] = n - 1
	}
	for class := Class(NumClasses - 1); class >= 0; class-- {
		for _, w := range c.queues[class] {
			if c.cfg.PerUser > 0 && c.activeByUser[w.user] >= c.cfg.PerUser {
				continue
			}
			c.removeWaiterLocked(w)
			w.granted = true
			c.activeByUser[w.user]++
			close(w.ready) // slot transfers: active count is unchanged
			c.mu.Unlock()
			return
		}
	}
	c.active--
	c.mu.Unlock()
}

// Done releases the slot and records the statement's latency (queue wait
// included) against its class, counting it as slow when it crossed the
// threshold. err is accepted for call-site symmetry; failed statements are
// observed too — a timeout is precisely the latency worth accounting.
func (s *Slot) Done(err error) {
	if s == nil {
		return
	}
	s.once.Do(func() {
		d := time.Since(s.start)
		s.c.release(s.user)
		s.c.hist[s.class].Observe(d)
		if d >= s.c.cfg.SlowThreshold {
			s.c.slow[s.class].Inc()
		}
		_ = err
	})
}

// Release frees the slot without an error to report.
func (s *Slot) Release() { s.Done(nil) }

// Shedding reports whether the controller is under enough pressure that
// ANY-consistency reads are being shed (queue occupancy at or past their
// allowance). Routers use it to degrade gracefully — relax freshness so
// lagging replicas and cache hits absorb reads the queue would reject.
func (c *Controller) Shedding() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active >= c.cfg.Slots && c.waiting >= c.allowance(ClassReadAny)
}

// Stats is a counters snapshot.
type Stats struct {
	// Active and Waiting are the instantaneous slot and queue occupancy.
	Active  int
	Waiting int
	// Admitted counts requests that got a slot (with or without waiting);
	// Queued counts those that waited; Expired counts wait-deadline
	// expiries; Shed counts rejections (per class, in Class order).
	Admitted uint64
	Queued   uint64
	Expired  uint64
	Shed     [NumClasses]uint64
	// Slow counts statements at or past the slow threshold, per class.
	Slow [NumClasses]uint64
}

// ShedTotal sums rejections across classes.
func (st Stats) ShedTotal() uint64 {
	var n uint64
	for _, s := range st.Shed {
		n += s
	}
	return n
}

// SlowTotal sums slow statements across classes.
func (st Stats) SlowTotal() uint64 {
	var n uint64
	for _, s := range st.Slow {
		n += s
	}
	return n
}

// Stats snapshots the controller's counters. Safe on nil (all zero).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	st := Stats{Active: c.active, Waiting: c.waiting}
	c.mu.Unlock()
	st.Admitted = c.admitted.Load()
	st.Queued = c.queued.Load()
	st.Expired = c.expired.Load()
	for i := 0; i < NumClasses; i++ {
		st.Shed[i] = c.shed[i].Load()
		st.Slow[i] = c.slow[i].Load()
	}
	return st
}

// Latency returns the class's latency histogram (nil on a nil controller).
func (c *Controller) Latency(class Class) *metrics.Histogram {
	if c == nil {
		return nil
	}
	return c.hist[class]
}

// Config returns the controller's effective configuration.
func (c *Controller) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}
