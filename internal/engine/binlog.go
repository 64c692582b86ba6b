package engine

import (
	"sync"
)

// Event is one committed transaction (or DDL statement) in the binlog: the
// unit slaves apply and the recovery log records. A DDL event carries its one
// statement in Stmts and is applied by executing it. Every other event
// carries no statement text: it is applied from its write set, whose rows
// are the values the origin computed (§4.3.2).
type Event struct {
	Seq      uint64 // position in the binlog, 1-based, dense
	CommitTS uint64
	TxnID    uint64
	Stmts    []string
	WriteSet *WriteSet
	DDL      bool
	User     string
	Database string
}

// Tables returns the distinct db-qualified tables the event touches.
func (ev Event) Tables() []string {
	if ev.WriteSet != nil && len(ev.WriteSet.Ops) > 0 {
		return ev.WriteSet.Tables()
	}
	return nil
}

// subscriber is an unbounded buffered fan-out target. The queue is unbounded
// on purpose: a lagging slave accumulates backlog rather than throttling the
// master, exactly the behaviour behind the paper's multi-hour failover
// horror stories (§2.2).
type subscriber struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Event
	ch     chan Event
	closed bool
}

func newSubscriber(buf int) *subscriber {
	s := &subscriber{ch: make(chan Event, buf)}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

func (s *subscriber) push(ev Event) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, ev)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
}

// pump forwards queued events to the channel, closing it when the
// subscription ends and the queue drains.
func (s *subscriber) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			close(s.ch)
			return
		}
		ev := s.queue[0]
		s.queue = s.queue[1:]
		closed := s.closed
		s.mu.Unlock()
		if closed {
			// Drop remaining backlog quickly once unsubscribed.
			continue
		}
		s.ch <- ev
	}
}

// Binlog is an append-only in-memory log of committed events with
// subscription support. It is safe for concurrent use.
type Binlog struct {
	mu       sync.Mutex
	events   []Event
	base     uint64 // seq of events[0] minus 1 (events trimmed below base)
	capacity int
	subs     map[int]*subscriber
	nextSub  int
}

func newBinlog(capacity int) *Binlog {
	return &Binlog{capacity: capacity, subs: make(map[int]*subscriber)}
}

// append adds an event, assigning its sequence number, and fans it out to
// subscribers without blocking.
func (b *Binlog) append(ev Event) uint64 {
	b.mu.Lock()
	ev.Seq = b.base + uint64(len(b.events)) + 1
	b.events = append(b.events, ev)
	if b.capacity > 0 && len(b.events) > b.capacity {
		drop := len(b.events) - b.capacity
		b.base += uint64(drop)
		b.events = append([]Event(nil), b.events[drop:]...)
	}
	for _, s := range b.subs {
		s.push(ev)
	}
	b.mu.Unlock()
	return ev.Seq
}

// Head returns the sequence number of the latest event (0 when empty).
func (b *Binlog) Head() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.base + uint64(len(b.events))
}

// ReadFrom returns up to max events with Seq > after. max <= 0 means all.
// The second result reports whether events at or below `after` have been
// trimmed (the subscriber must resynchronize from a backup instead, §4.4.2).
func (b *Binlog) ReadFrom(after uint64, max int) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after < b.base {
		return nil, true
	}
	idx := int(after - b.base)
	if idx >= len(b.events) {
		return nil, false
	}
	out := b.events[idx:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return append([]Event(nil), out...), false
}

// Reset discards all events and restarts the sequence space so the next
// append is assigned base+1. Recovery uses it after restoring a backup into
// a replica: the restored engine's future commits must continue the
// cluster's replication position space from the snapshot's position, not
// from whatever this engine's previous life had appended.
func (b *Binlog) Reset(base uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = nil
	b.base = base
}

// Subscribe returns a channel receiving every event appended after the call,
// plus an unsubscribe function. Events queue without bound between the
// append and the receiver; the returned channel carries them in order.
func (b *Binlog) Subscribe(buf int) (<-chan Event, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextSub
	b.nextSub++
	s := newSubscriber(buf)
	b.subs[id] = s
	return s.ch, func() {
		b.mu.Lock()
		sub, ok := b.subs[id]
		if ok {
			delete(b.subs, id)
		}
		b.mu.Unlock()
		if ok {
			sub.close()
		}
	}
}

// emitDDLLocked records a DDL statement in the binlog with its own commit
// timestamp. Caller holds e.mu.
func (e *Engine) emitDDLLocked(sql string, s *Session) {
	e.clock++
	user, db := "", ""
	if s != nil {
		user, db = s.user, s.currentDB
	}
	e.binlog.append(Event{
		CommitTS: e.clock,
		Stmts:    []string{sql},
		WriteSet: &WriteSet{},
		DDL:      true,
		User:     user,
		Database: db,
	})
}
