// Package core is the replication middleware itself: the software layer
// between applications and database replicas (§1, footnote 1). It provides
// master-slave replication with 1-safe/2-safe commit, hot standby failover,
// certification multi-master replication (write sets for DML, ordered
// statements for DDL) on top of totally-ordered broadcast, partitioned
// replication, WAN multi-way master/slave, pluggable load balancing levels
// and policies, a Sequoia-style recovery log with online replica
// provisioning, cluster-consistent backup, and a divergence detector.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// ReplicaConfig describes one backend replica.
type ReplicaConfig struct {
	// Name identifies the replica in logs and balancing decisions.
	Name string
	// Engine configures the underlying database engine.
	Engine engine.Config
	// Concurrency is the number of statements the replica executes at
	// once (worker slots); zero means 8.
	Concurrency int
	// Weight is the load balancing weight (0 means 1).
	Weight float64
}

// Replica wraps an engine with a bounded worker pool, health state, the
// stall and degradation faults, and replication progress counters.
type Replica struct {
	name   string
	eng    *engine.Engine
	cfg    ReplicaConfig
	sem    chan struct{}
	queued lb.Counter

	healthy atomic.Bool
	// degradeRead and degradeWrite are the extra time (ns) each client
	// read or write, and each applied replication event, spends on a
	// degraded replica — the "RAID controller loses its battery" anomaly
	// of §4.1.3. Zero on a healthy replica.
	degradeRead  atomic.Int64
	degradeWrite atomic.Int64

	// stallCh gates client statements while the replica is stalled
	// (responding to nothing, crashed for nobody — the gray failure the
	// Stall injector models). Non-nil while stalled; closed on unstall so
	// every parked statement wakes at once.
	stallMu sync.Mutex
	stallCh chan struct{}

	// snapMu makes a sampled position exact with respect to engine state:
	// appliers hold it across {apply, appliedSeq.Store} and sessions hold
	// it across {BEGIN/read, AppliedSeq sample}, so a sample can never run
	// behind state the engine already showed the session (the store would
	// otherwise race the sample by a hair — enough for a certification
	// snapshot to overstate what it read, or for a session's observed-
	// version floor to understate it).
	snapMu sync.Mutex
	// appliedSeq is the last replication-stream position applied here.
	appliedSeq atomic.Uint64
	// receivedSeq is the last position received (≥ appliedSeq); 2-safe
	// commits wait on it.
	receivedSeq atomic.Uint64

	// execs counts statements executed on this replica through the router
	// hot path (ExecStmtOn); the query-cache threshold test uses it to
	// prove a cache hit costs zero backend executions.
	execs atomic.Uint64

	// applyEvents and applyBatches count write-set apply work: events
	// applied and engine lock round-trips used for them. Their ratio is the
	// group-commit amortization a lagging slave achieved while draining
	// backlog. DDL events are not counted — they take several lock
	// acquisitions each inside the session.
	applyEvents  atomic.Uint64
	applyBatches atomic.Uint64
}

// NewReplica builds a replica from its configuration.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	r := &Replica{
		name: cfg.Name,
		eng:  engine.New(cfg.Engine),
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.Concurrency),
	}
	r.healthy.Store(true)
	return r
}

// Name implements lb.Target.
func (r *Replica) Name() string { return r.name }

// Pending implements lb.Target.
func (r *Replica) Pending() int { return r.queued.Load() }

// Weight implements lb.Target.
func (r *Replica) Weight() float64 { return r.cfg.Weight }

// Healthy implements lb.Target.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Engine exposes the underlying engine (management operations need it).
func (r *Replica) Engine() *engine.Engine { return r.eng }

// AppliedSeq returns the replication position applied on this replica.
func (r *Replica) AppliedSeq() uint64 { return r.appliedSeq.Load() }

// ReceivedSeq returns the replication position received by this replica.
func (r *Replica) ReceivedSeq() uint64 { return r.receivedSeq.Load() }

// noteApplied records replication apply progress: events applied and the
// number of engine lock acquisitions they cost.
func (r *Replica) noteApplied(events, batches int) {
	if events <= 0 {
		return
	}
	r.applyEvents.Add(uint64(events))
	r.applyBatches.Add(uint64(batches))
}

// ApplyStats returns how many write-set replication events this replica
// has applied and how many engine lock round-trips (group-commit batches)
// they took. events/batches > 1 means backlog was drained in batches.
// DDL events are excluded.
func (r *Replica) ApplyStats() (events, batches uint64) {
	return r.applyEvents.Load(), r.applyBatches.Load()
}

// Fail marks the replica down (crash injection).
func (r *Replica) Fail() { r.healthy.Store(false) }

// Recover marks the replica healthy again (and clears any stall — a
// restarted process is by definition responding again).
func (r *Replica) Recover() {
	r.SetStalled(false)
	r.healthy.Store(true)
}

// SetStalled makes the replica stop serving client statements without
// reporting unhealthy (on=true), or resume (on=false). Unlike Fail, health
// checks still pass — this is the gray-failure mode where only a request
// deadline saves the client.
func (r *Replica) SetStalled(on bool) {
	r.stallMu.Lock()
	defer r.stallMu.Unlock()
	if on && r.stallCh == nil {
		r.stallCh = make(chan struct{})
	} else if !on && r.stallCh != nil {
		close(r.stallCh)
		r.stallCh = nil
	}
}

// Stalled reports whether the replica is currently stalled.
func (r *Replica) Stalled() bool { return r.stallGate() != nil }

func (r *Replica) stallGate() chan struct{} {
	r.stallMu.Lock()
	defer r.stallMu.Unlock()
	return r.stallCh
}

// Degrade makes every client read take `read` longer and every client
// write, and every replication event the replica applies, take `write`
// longer: degraded hardware that still answers health checks (§4.1.3).
// Degrade(0, 0) restores full speed.
func (r *Replica) Degrade(read, write time.Duration) {
	r.degradeRead.Store(int64(read))
	r.degradeWrite.Store(int64(write))
}

// ErrReplicaDown is returned when executing against a failed replica.
var ErrReplicaDown = fmt.Errorf("core: replica is down")

// ErrDeadlineExceeded is returned when a statement's deadline expires while
// waiting for a worker slot, a stall or a degradation delay. It wraps
// context.DeadlineExceeded so one errors.Is check classifies deadline
// expiry from every layer of the stack.
var ErrDeadlineExceeded = fmt.Errorf("core: replica wait deadline exceeded: %w", context.DeadlineExceeded)

// acquire takes a worker slot, counting queue depth for LPRF.
func (r *Replica) acquire() error {
	if !r.healthy.Load() {
		return ErrReplicaDown
	}
	r.queued.Inc()
	r.sem <- struct{}{}
	if !r.healthy.Load() {
		<-r.sem
		r.queued.Dec()
		return ErrReplicaDown
	}
	return nil
}

// acquireDeadline is acquire with a bound on the wait: a statement that
// cannot get a worker slot before its deadline gives up without the slot —
// no leak to release later.
func (r *Replica) acquireDeadline(deadline time.Time) error {
	if deadline.IsZero() {
		return r.acquire()
	}
	if !r.healthy.Load() {
		return ErrReplicaDown
	}
	r.queued.Inc()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r.sem <- struct{}{}:
	case <-timer.C:
		r.queued.Dec()
		return ErrDeadlineExceeded
	}
	if !r.healthy.Load() {
		<-r.sem
		r.queued.Dec()
		return ErrReplicaDown
	}
	return nil
}

func (r *Replica) release() {
	<-r.sem
	r.queued.Dec()
}

// applyDelay charges a degraded replica's write delay to one applied
// replication event. Appliers have no deadline and ignore stalls (a
// stalled replica stops answering clients; its replication stream keeps
// draining).
func (r *Replica) applyDelay() {
	if d := time.Duration(r.degradeWrite.Load()); d > 0 {
		time.Sleep(d)
	}
}

// serviceWait gates a client statement: it parks while the replica is
// stalled, then pays a degraded replica's delay, truncated at the
// statement's deadline (zero deadline = unbounded).
func (r *Replica) serviceWait(isRead bool, deadline time.Time) error {
	for stall := r.stallGate(); stall != nil; stall = r.stallGate() {
		if deadline.IsZero() {
			<-stall
			continue
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-stall:
			timer.Stop()
		case <-timer.C:
			return ErrDeadlineExceeded
		}
	}
	d := time.Duration(r.degradeWrite.Load())
	if isRead {
		d = time.Duration(r.degradeRead.Load())
	}
	if d <= 0 {
		return nil
	}
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem < d {
			// The statement cannot finish inside its budget: pay only the
			// remaining budget, then time out.
			if rem > 0 {
				time.Sleep(rem)
			}
			return ErrDeadlineExceeded
		}
	}
	time.Sleep(d)
	return nil
}

// ExecOn runs one SQL-text statement on the given session through the
// replica's worker pool: a convenience wrapper over ExecStmtOn,
// which every router uses directly with its already-parsed AST.
func (r *Replica) ExecOn(s *engine.Session, sql string, isRead bool) (*engine.Result, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	return r.ExecStmtOn(s, st, isRead)
}

// ExecStmtOn runs a pre-parsed statement on the given session through the
// replica's worker pool. This is the router hot path: the
// middleware parses (or cache-hits) once and the backend executes the same
// AST, instead of re-serializing to SQL text and parsing again.
func (r *Replica) ExecStmtOn(s *engine.Session, st sqlparse.Statement, isRead bool) (*engine.Result, error) {
	return r.ExecStmtArgsOn(s, st, isRead, nil)
}

// ExecStmtArgsOn is ExecStmtOn with ? bind arguments: the prepared-statement
// hot path, where the shared AST never changes and only the argument vector
// varies per call.
func (r *Replica) ExecStmtArgsOn(s *engine.Session, st sqlparse.Statement, isRead bool, args []sqltypes.Value) (*engine.Result, error) {
	return r.ExecStmtArgsDeadlineOn(s, st, isRead, args, time.Time{})
}

// ExecStmtArgsDeadlineOn is the deadline-aware hot path: the absolute
// deadline bounds the worker-slot wait, any stall or degradation delay,
// and — via Session.SetDeadline — the engine execution itself,
// so one budget covers the whole statement no matter where it spends it.
func (r *Replica) ExecStmtArgsDeadlineOn(s *engine.Session, st sqlparse.Statement, isRead bool, args []sqltypes.Value, deadline time.Time) (*engine.Result, error) {
	if err := r.acquireDeadline(deadline); err != nil {
		return nil, err
	}
	defer r.release()
	r.execs.Add(1)
	if err := r.serviceWait(isRead, deadline); err != nil {
		return nil, err
	}
	s.SetDeadline(deadline)
	defer s.SetDeadline(time.Time{})
	return s.ExecStmtArgs(st, args...)
}

// Execs returns how many statements the routers have executed on this
// replica. A query-cache hit leaves it untouched.
func (r *Replica) Execs() uint64 { return r.execs.Load() }

// sessionPool hands out per-replica engine sessions for middleware client
// sessions, keeping USE and isolation state in sync lazily.
type sessionPool struct {
	mu       sync.Mutex
	sessions map[*Replica]*engine.Session
	db       string
	iso      *sqlparse.SetIsolation // announced level, applied to every session
	user     string
}

func newSessionPool(user string) *sessionPool {
	return &sessionPool{sessions: make(map[*Replica]*engine.Session), user: user}
}

// get returns (creating if needed) this client's session on the replica.
func (p *sessionPool) get(r *Replica) (*engine.Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[r]
	if !ok {
		s = r.eng.NewSession(p.user)
		if p.db != "" {
			if _, err := s.ExecStmt(&sqlparse.UseDatabase{Name: p.db}); err != nil {
				s.Close()
				return nil, err
			}
		}
		if p.iso != nil {
			if _, err := s.ExecStmt(p.iso); err != nil {
				s.Close()
				return nil, err
			}
		}
		p.sessions[r] = s
	}
	return s, nil
}

// currentDB returns the session's current database ("" when none).
func (p *sessionPool) currentDB() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.db
}

// announce records a USE or SET ISOLATION and runs it on every backend
// session already open, so a re-routed statement runs in the database and
// at the level the client announced, whichever replica serves it. Other
// statements are ignored.
func (p *sessionPool) announce(st sqlparse.Statement) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch s := st.(type) {
	case *sqlparse.UseDatabase:
		p.db = s.Name
	case *sqlparse.SetIsolation:
		p.iso = s
	default:
		return nil
	}
	for r, s := range p.sessions {
		if _, err := s.ExecStmt(st); err != nil {
			return fmt.Errorf("core: %s on replica %s: %w", st.SQL(), r.Name(), err)
		}
	}
	return nil
}

// tempHome returns the replica whose backend session holds a temp table
// st names (see engine.Session.ReadsTemp), or nil.
func (p *sessionPool) tempHome(st sqlparse.Statement) *Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	for r, s := range p.sessions {
		if s.ReadsTemp(st) {
			return r
		}
	}
	return nil
}

// drop discards the session for a replica (after failover).
func (p *sessionPool) drop(r *Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.sessions[r]; ok {
		s.Close()
		delete(p.sessions, r)
	}
}

// closeAll releases every session.
func (p *sessionPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sessions {
		s.Close()
	}
	p.sessions = make(map[*Replica]*engine.Session)
}
