package core

import (
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// This file holds, once, the parts of a client session that all four
// topologies share: the Conn methods that only restate a statement, the
// settings path (USE, SET ISOLATION, SET CONSISTENCY, SET DEADLINE) with
// the statement deadline and admission it governs, and the read pipeline
// of the two topologies that route reads over replicas themselves
// (master-slave and multi-master). Each session type keeps only its own
// routing in ExecStmtArgs.

// executor is the one statement entry point each topology session
// implements: its routing. connFront derives the rest of Conn from it, and
// a prepared Stmt executes through it.
type executor interface {
	ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error)
}

// connFront implements the Conn methods that only restate a statement —
// parse SQL text, or build a transaction bracket or a settings statement —
// and hand it to the session's ExecStmtArgs, so the text form and the
// method form of a statement route alike (admission included).
type connFront struct{ x executor }

// Exec parses (through the process-wide statement cache) and routes one
// statement with optional ? bind arguments.
func (f connFront) Exec(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	return f.x.ExecStmtArgs(st, args...)
}

// Query implements Conn; routing is decided by the statement itself.
func (f connFront) Query(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	return f.Exec(sql, args...)
}

// ExecStmt routes a pre-parsed statement.
func (f connFront) ExecStmt(st sqlparse.Statement) (*engine.Result, error) {
	return f.x.ExecStmtArgs(st)
}

// Prepare implements Conn: parse once, execute many with fresh bindings.
func (f connFront) Prepare(sql string) (*Stmt, error) { return newStmt(f.x, sql) }

// Begin implements Conn.
func (f connFront) Begin() error { return f.run(&sqlparse.BeginTxn{}) }

// Commit implements Conn.
func (f connFront) Commit() error { return f.run(&sqlparse.CommitTxn{}) }

// Rollback implements Conn.
func (f connFront) Rollback() error { return f.run(&sqlparse.RollbackTxn{}) }

// SetIsolation implements Conn: the level holds on every backend the
// session reaches, now or later.
func (f connFront) SetIsolation(level string) error {
	lv, err := normalizeIsolation(level)
	if err != nil {
		return err
	}
	return f.run(&sqlparse.SetIsolation{Level: lv})
}

// SetConsistency implements Conn: a per-session read-guarantee override.
func (f connFront) SetConsistency(c Consistency) error {
	return f.run(&sqlparse.SetConsistency{Level: c.String()})
}

func (f connFront) run(st sqlparse.Statement) error {
	_, err := f.x.ExecStmtArgs(st)
	return err
}

// sessionCore is the state every topology session carries: who it is, the
// admission controller that gates it, and what the client announced.
type sessionCore struct {
	connFront
	user string
	adm  *admission.Controller
	// cons is the session's read guarantee: the cluster configuration's
	// until SET CONSISTENCY overrides it.
	cons Consistency
	// stmtTimeout is the SET DEADLINE budget (0 = none): each statement
	// gets now+stmtTimeout as its absolute deadline, covering the
	// admission-queue wait, replica worker wait, any stall or degradation
	// delay and engine execution together.
	stmtTimeout time.Duration
	// serializable tracks the announced isolation level: serializable reads
	// take 2PL table locks, which a result-cache hit would silently skip,
	// so they bypass the cache.
	serializable bool
	// announced keeps the latest USE, SET ISOLATION, SET CONSISTENCY and
	// SET DEADLINE, in that order, for replay onto sessions opened later.
	announced [4]sqlparse.Statement
}

func newSessionCore(x executor, user string, adm *admission.Controller, cons Consistency, timeout time.Duration) sessionCore {
	return sessionCore{connFront: connFront{x}, user: user, adm: adm, cons: cons, stmtTimeout: timeout}
}

// setting applies a settings statement: it records it and hands it to
// propagate, which carries it to the backend sessions already open. ok is
// false, and nothing happens, for any other statement. Settings are never
// admitted: they do no backend work of their own.
func (c *sessionCore) setting(st sqlparse.Statement, propagate func(sqlparse.Statement) error) (res *engine.Result, ok bool, err error) {
	var slot int
	switch s := st.(type) {
	case *sqlparse.UseDatabase:
		slot = 0
	case *sqlparse.SetIsolation:
		c.serializable, slot = s.Level == "SERIALIZABLE", 1
	case *sqlparse.SetConsistency:
		cons, err := ParseConsistency(s.Level)
		if err != nil {
			return nil, true, err
		}
		c.cons, slot = cons, 2
	case *sqlparse.SetDeadline:
		c.stmtTimeout, slot = s.D, 3
	default:
		return nil, false, nil
	}
	c.announced[slot] = st
	if err := propagate(st); err != nil {
		return nil, true, err
	}
	return &engine.Result{}, true, nil
}

// class is a statement's admission class. Writes, and anything inside a
// transaction (it holds locks), are the last class shed; an ANY-consistency
// read is the first.
func (c *sessionCore) class(st sqlparse.Statement, inTxn bool) admission.Class {
	switch {
	case inTxn || !st.IsRead():
		return admission.ClassWrite
	case c.cons == ReadAny:
		return admission.ClassReadAny
	}
	return admission.ClassReadSession
}

// admit takes an admission slot of the given class for a statement
// starting now (a nil controller admits everything with a nil slot) and
// returns the statement's absolute deadline (zero when the session has no
// budget), which bounded the wait for the slot too. The caller hands the
// slot back with Done once the statement ends.
func (c *sessionCore) admit(class admission.Class) (*admission.Slot, time.Time, error) {
	var deadline time.Time
	if c.stmtTimeout > 0 {
		deadline = time.Now().Add(c.stmtTimeout)
	}
	slot, err := c.adm.Acquire(c.user, class, deadline)
	return slot, deadline, err
}

// routedSession is the part of a partitioned or WAN session that reaches
// its sub-clusters through master-slave sessions, one per sub-cluster,
// opened lazily (a migration can add partitions mid-session).
type routedSession struct {
	sessionCore
	subs map[*MasterSlave]*MSSession
}

func newRoutedSession(x executor, user string, adm *admission.Controller, cfg MasterSlaveConfig) routedSession {
	return routedSession{
		sessionCore: newSessionCore(x, user, adm, cfg.Consistency, cfg.StatementTimeout),
		subs:        make(map[*MasterSlave]*MSSession),
	}
}

// sub returns the session on sub-cluster p, opening it on first use with
// every setting announced so far replayed onto it.
func (rs *routedSession) sub(p *MasterSlave) (*MSSession, error) {
	if s := rs.subs[p]; s != nil {
		return s, nil
	}
	s := p.NewSession(rs.user)
	for _, st := range rs.announced {
		if st == nil {
			continue
		}
		if _, err := s.ExecStmt(st); err != nil {
			s.Close()
			return nil, err
		}
	}
	rs.subs[p] = s
	return s, nil
}

// forward runs a settings statement on every sub-session already open.
func (rs *routedSession) forward(st sqlparse.Statement) error {
	for _, s := range rs.subs {
		if _, err := s.ExecStmt(st); err != nil {
			return err
		}
	}
	return nil
}

// closeSubs releases every sub-session.
func (rs *routedSession) closeSubs() {
	for p, s := range rs.subs {
		s.Close()
		delete(rs.subs, p)
	}
}

// bindArgs inlines ? arguments into the AST: the partition and geo routers
// read literal key values, and the sub-clusters then see standalone
// statements.
func bindArgs(st sqlparse.Statement, args []sqltypes.Value) (sqlparse.Statement, error) {
	if len(args) == 0 {
		return st, nil
	}
	return sqlparse.BindParams(st, args)
}

// readTopology is what the read pipeline asks of a cluster that routes
// reads over its replicas.
type readTopology interface {
	// pickRead chooses a healthy replica that satisfies cons for a session
	// whose read floor is floor.
	pickRead(cons Consistency, floor uint64) (*Replica, error)
	// replicaFresh reports whether r still satisfies cons at floor: the
	// check a pinned replica passes before it serves another read.
	replicaFresh(r *Replica, cons Consistency, floor uint64) bool
	// readPos is a sound lower bound on the state a read on r reflects
	// when sampled before it, and a ceiling when sampled after.
	readPos(r *Replica) uint64
	// latest is the newest committed position: what a strong read must
	// reach, and where a failover clamps the monotonic-reads floor.
	latest() uint64
	// pinnable reports whether a connection-level pin may hold r.
	pinnable(r *Replica) bool
	// incarnation changes when a failover or retirement reshapes the
	// replica set; a read pin does not survive the change.
	incarnation() uint64
}

// replicaSession is the part of a master-slave or multi-master session
// that talks to replicas itself: its backend sessions, its consistency
// floors and read pin, and the read pipeline over them.
type replicaSession struct {
	sessionCore
	pool  *sessionPool
	topo  readTopology
	qc    *qcache.Scope
	level lb.Level
	// skipInval is the master-slave cluster's InjectSkipCacheInvalidation
	// fault (nil on multi-master): while set, cache probes ignore the
	// session's position floor too.
	skipInval *atomic.Bool

	lastWriteSeq uint64
	// lastReadSeq is the highest replication position any state this
	// session has already observed could reflect. Under session
	// consistency, reads are only routed to replicas at or past
	// max(lastWriteSeq, lastReadSeq): lastWriteSeq alone gives
	// read-your-writes but not monotonic reads — after a failover (or a
	// pinned replica dying) the session would be re-routed to any replica
	// that merely covered its own writes, and could observe a version
	// OLDER than one it already read. A master-slave session starts it
	// at the master's newest DDL when it opens.
	lastReadSeq uint64
	pinned      *Replica // connection-level read pin
	pinEpoch    uint64
}

// readFloor is the lowest replication position a read may be served from.
// Session consistency covers both the session's own writes
// (read-your-writes) and the freshest state it has already observed
// (monotonic reads); the other levels derive their bound from
// lastWriteSeq or the head alone.
func (rs *replicaSession) readFloor() uint64 {
	if rs.cons == SessionConsistent && rs.lastReadSeq > rs.lastWriteSeq {
		return rs.lastReadSeq
	}
	return rs.lastWriteSeq
}

// bumpReadSeq advances the monotonic-reads floor to pos.
func (rs *replicaSession) bumpReadSeq(pos uint64) {
	if pos > rs.lastReadSeq {
		rs.lastReadSeq = pos
	}
}

// cacheMinPos is the lowest position a cached result must carry to satisfy
// the session's read guarantee: the cache-side mirror of replicaFresh.
func (rs *replicaSession) cacheMinPos() uint64 {
	switch {
	case rs.skipInval != nil && rs.skipInval.Load():
		// With write-side invalidation off, stop honoring the floor too,
		// so an acked write can be followed by a stale cached read — the
		// anomaly the certification harness must catch.
		return 0
	case rs.cons == SessionConsistent:
		return rs.readFloor()
	case rs.cons == StrongConsistent:
		return rs.topo.latest()
	}
	return 0
}

// execRead serves a read outside a transaction. An eligible read
// (deterministic, not serializable, no temp table) probes the query cache
// first — before admission, because a hit consumes no backend capacity and
// so must not consume (or be refused) a slot — and a miss fills the cache
// with the result tagged with the serving replica's positions. Bind
// arguments are part of the cache key. The backend gets the already-parsed
// AST, never re-serialized text.
func (rs *replicaSession) execRead(st sqlparse.Statement, args []sqltypes.Value) (res *engine.Result, err error) {
	// A session's temp table exists only in its backend session on the
	// replica that created it. Writes to it log no event, so nothing would
	// invalidate a cached result either.
	target := rs.pool.tempHome(st)
	cached := target == nil && rs.qc != nil && !rs.serializable && engine.CacheableRead(st)
	var db, text string
	if cached {
		db, text = rs.pool.currentDB(), st.SQL()
		if res, posHi, ok := rs.qc.GetPos(rs.user, db, text, args, rs.cacheMinPos()); ok {
			rs.bumpReadSeq(posHi)
			return res, nil
		}
	}
	slot, deadline, err := rs.admit(rs.class(st, false))
	if err != nil {
		return nil, err
	}
	defer func() { slot.Done(err) }()
	if target == nil {
		if target, err = rs.routeRead(); err != nil {
			return nil, err
		}
	}
	sess, err := rs.pool.get(target)
	if err != nil {
		return nil, err
	}
	var pos uint64
	if cached {
		pos = rs.topo.readPos(target)
	}
	if res, err = target.ExecStmtArgsDeadlineOn(sess, st, true, args, deadline); err != nil {
		return nil, err
	}
	posHi := rs.topo.readPos(target)
	rs.bumpReadSeq(posHi)
	if cached {
		rs.qc.PutAt(rs.user, db, text, args, st.Tables(), pos, posHi, res)
	}
	return res, nil
}

// routeRead picks the replica for a read. A connection-level pin is honored
// only while the pinned replica still satisfies the session's consistency
// guarantee — serving a pinned but lagging replica would silently break
// read-your-writes.
func (rs *replicaSession) routeRead() (*Replica, error) {
	// A failover may have promoted the pinned replica; drop the pin on any
	// epoch change. The failover also truncated the lost suffix: a read
	// floor pointing into the lost region would send this session to the
	// master forever, since no replica can reach a position that no longer
	// exists. State observed beyond the new head was lost with the old
	// master (1-safe loss is the paper's accepted exposure, §2.2).
	if e := rs.topo.incarnation(); e != rs.pinEpoch {
		rs.pinEpoch = e
		rs.pinned = nil
		if head := rs.topo.latest(); rs.lastReadSeq > head {
			rs.lastReadSeq = head
		}
	}
	floor := rs.readFloor()
	pin := rs.level == lb.ConnectionLevel
	if pin && rs.pinned != nil && rs.pinned.Healthy() && rs.topo.replicaFresh(rs.pinned, rs.cons, floor) {
		return rs.pinned, nil
	}
	target, err := rs.topo.pickRead(rs.cons, floor)
	if err != nil {
		return nil, err
	}
	if pin && rs.topo.pinnable(target) {
		rs.pinned = target
	}
	return target, nil
}

// fresh reports whether a replica at applied satisfies cons for a session
// whose read floor is floor, head being the newest committed position.
func fresh(cons Consistency, applied, floor, head uint64) bool {
	switch cons {
	case SessionConsistent:
		return applied >= floor
	case StrongConsistent:
		return applied >= head
	}
	return true
}
