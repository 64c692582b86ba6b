package core

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// MMSession is a client session on a multi-master cluster. Reads execute on
// a load-balanced replica; writes go through total order. A transaction
// runs under SNAPSHOT isolation on the session's home replica (so reads see
// its own writes); at commit its write set is captured, the local run is
// rolled back, and the write set is certified in total order and applied as
// row images on every replica — so RAND(), NOW() and other non-determinism
// are evaluated once, at the home.
type MMSession struct {
	mm   *MultiMaster
	pool *sessionPool
	user string

	home         *Replica
	db           string
	lastWriteSeq uint64
	// lastReadSeq is the monotonic-reads floor: the highest ordered
	// position any state this session already observed could reflect.
	// Mirrors MSSession.lastReadSeq — lastWriteSeq alone gives
	// read-your-writes but lets a re-routed read go backward.
	lastReadSeq uint64
	// openSeq is the cluster's ordered head when the session opened. The
	// home must reach it before the session's first transaction, at every
	// consistency level: DML executes there, and a home still missing
	// DDL another connection committed would fail it with "unknown table".
	openSeq    uint64
	pinnedRead *Replica
	// cons is the session's read guarantee; it defaults to the cluster
	// configuration and can be overridden per session (SET CONSISTENCY).
	cons Consistency

	// stmtTimeout is the per-statement deadline budget (SET DEADLINE); it
	// bounds admission wait, replica queueing, and read/dry-run execution.
	// Ordered commits stay bounded by CommitTimeout: aborting a transaction
	// after it has been ordered would be unsafe.
	stmtTimeout time.Duration

	inTxn   bool
	dryRun  *engine.Session
	snapSeq uint64 // home position at BEGIN
	// serializable tracks the announced isolation level; serializable
	// reads take 2PL locks and must bypass the result cache.
	serializable bool
}

// NewSession opens a session. The home replica (where transactions execute
// before ordering) is picked by the balancing policy.
func (mm *MultiMaster) NewSession(user string) (*MMSession, error) {
	home, err := mm.pickHome()
	if err != nil {
		return nil, err
	}
	return &MMSession{
		mm: mm, pool: newSessionPool(user), user: user, home: home,
		openSeq:      mm.head.Load(),
		cons:         mm.cfg.Consistency,
		stmtTimeout:  mm.cfg.StatementTimeout,
		serializable: home.Engine().Profile().DefaultIsolation == engine.Serializable,
	}, nil
}

// stmtDeadline converts the session's statement-timeout budget into an
// absolute deadline for the statement starting now; zero means unbounded.
func (s *MMSession) stmtDeadline() time.Time {
	if s.stmtTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.stmtTimeout)
}

// readClass maps the session's read guarantee onto an admission class: ANY
// reads are shed first under the degradation ladder, SESSION/STRONG reads
// queue longer.
func (s *MMSession) readClass() admission.Class {
	if s.cons == ReadAny {
		return admission.ClassReadAny
	}
	return admission.ClassReadSession
}

// admit acquires an admission slot (nil slot when admission is off).
func (s *MMSession) admit(class admission.Class, deadline time.Time) (*admission.Slot, error) {
	return s.mm.cfg.Admission.Acquire(s.user, class, deadline)
}

// Home returns the session's home replica.
func (s *MMSession) Home() *Replica { return s.home }

// Close releases the session.
func (s *MMSession) Close() {
	if s.dryRun != nil {
		s.dryRun.Rollback()
		s.dryRun = nil
	}
	s.pool.closeAll()
}

// Exec parses and routes one statement with optional ? bind arguments
// (through the statement cache).
func (s *MMSession) Exec(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtArgs(st, args...)
}

// Query implements Conn; routing is decided by the statement itself.
func (s *MMSession) Query(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	return s.Exec(sql, args...)
}

// ExecStmt routes a pre-parsed statement.
func (s *MMSession) ExecStmt(st sqlparse.Statement) (*engine.Result, error) {
	return s.ExecStmtArgs(st)
}

// ExecStmtArgs routes a pre-parsed statement with bind arguments. Writes
// bind them at the home replica's run and ship row images.
func (s *MMSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error) {
	switch stmt := st.(type) {
	case *sqlparse.UseDatabase:
		s.db = stmt.Name
		if err := s.pool.setDB(stmt.Name); err != nil {
			return nil, err
		}
		return &engine.Result{}, nil
	case *sqlparse.BeginTxn:
		// Transaction brackets hold write-class admission for their own
		// duration only; the statements inside admit individually (a slot
		// held across an interactive transaction would let one slow client
		// starve the cluster).
		slot, err := s.admit(admission.ClassWrite, s.stmtDeadline())
		if err != nil {
			return nil, err
		}
		res, err := s.begin()
		slot.Done(err)
		return res, err
	case *sqlparse.CommitTxn:
		slot, err := s.admit(admission.ClassWrite, s.stmtDeadline())
		if err != nil {
			return nil, err
		}
		res, err := s.commit()
		slot.Done(err)
		return res, err
	case *sqlparse.RollbackTxn:
		// Rollback discards local state only — never shed it: refusing a
		// rollback under overload would strand open transactions.
		return s.rollback()
	case *sqlparse.SetDeadline:
		s.stmtTimeout = stmt.D
		return &engine.Result{}, nil
	case *sqlparse.SetConsistency:
		c, err := ParseConsistency(stmt.Level)
		if err != nil {
			return nil, err
		}
		s.cons = c
		return &engine.Result{}, nil
	case *sqlparse.SetIsolation:
		// Track and propagate, as in the master-slave router: the level
		// must hold on whichever replica serves this session's reads.
		if !s.inTxn {
			s.serializable = stmt.Level == "SERIALIZABLE"
			if err := s.pool.setIsolation(stmt); err != nil {
				return nil, err
			}
			return &engine.Result{}, nil
		}
	}
	if s.inTxn {
		deadline := s.stmtDeadline()
		slot, err := s.admit(admission.ClassWrite, deadline)
		if err != nil {
			return nil, err
		}
		res, err := s.execInTxn(st, args, deadline)
		slot.Done(err)
		return res, err
	}
	if st.IsRead() {
		return s.execRead(st, args)
	}
	deadline := s.stmtDeadline()
	slot, err := s.admit(admission.ClassWrite, deadline)
	if err != nil {
		return nil, err
	}
	res, err := s.execAutocommitWrite(st, args, deadline)
	slot.Done(err)
	return res, err
}

func (s *MMSession) begin() (*engine.Result, error) {
	if s.inTxn {
		return nil, fmt.Errorf("%w: transaction already in progress", ErrTxnState)
	}
	if !s.home.Healthy() {
		// The home replica executes this session's transactions; starting
		// one against a dead home would only fail later, at first write.
		// Failing BEGIN lets pooled drivers discard the connection and
		// retry on a fresh one (homed on a healthy replica).
		return nil, ErrReplicaDown
	}
	// Session/strong guarantees extend into explicit transactions, but the
	// dry run's snapshot is taken on the home engine with no routing in
	// between — so the home must first catch up to the session's floors
	// (own writes + previously observed state). Without this wait a
	// version the session just observed through a routed read can vanish
	// inside the next BEGIN: a monotonic-reads anomaly. It precedes the
	// home session's creation, whose USE needs the session's database.
	if err := s.waitHomeFloor(); err != nil {
		return nil, err
	}
	sess, err := s.pool.get(s.home)
	if err != nil {
		return nil, err
	}
	if !sess.InTxn() && sess.Isolation() != engine.Snapshot {
		if _, err := sess.Exec("SET ISOLATION LEVEL SNAPSHOT"); err != nil {
			return nil, err
		}
	}
	// {BEGIN, sample} under snapMu pins snapSeq to exactly the snapshot's
	// position: nothing past it is in the snapshot (certification stays
	// sound) and everything up to it is (no spurious conflict aborts, and
	// the position doubles as the session's observed floor).
	s.home.snapMu.Lock()
	_, err = sess.Exec("BEGIN")
	pos := s.home.AppliedSeq()
	s.home.snapMu.Unlock()
	if err != nil {
		return nil, err
	}
	s.snapSeq = pos
	s.bumpReadSeq(pos)
	s.inTxn = true
	s.dryRun = sess
	return &engine.Result{}, nil
}

// execInTxn runs a statement inside the interactive transaction; the ?
// arguments bind at the home replica and the write set carries row images.
func (s *MMSession) execInTxn(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time) (*engine.Result, error) {
	if sqlparse.IsDDL(st) {
		// DDL is non-transactional (§4.1.2) and cannot ride in a write set.
		return nil, fmt.Errorf("%w: DDL inside explicit transactions on multi-master clusters", ErrUnsupportedStatement)
	}
	return s.home.ExecStmtArgsDeadlineOn(s.dryRun, st, st.IsRead(), args, deadline)
}

func (s *MMSession) commit() (*engine.Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("%w: no transaction in progress", ErrTxnState)
	}
	defer func() {
		s.inTxn = false
		s.dryRun = nil
	}()
	ws, _, err := s.dryRun.PendingWriteSet()
	s.dryRun.Rollback()
	if err != nil {
		return nil, err
	}
	if len(ws.Ops) == 0 {
		return &engine.Result{}, nil
	}
	return s.submit(mmTxn{WS: ws, Snapshot: s.snapSeq})
}

func (s *MMSession) rollback() (*engine.Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("%w: no transaction in progress", ErrTxnState)
	}
	s.dryRun.Rollback()
	s.inTxn = false
	s.dryRun = nil
	return &engine.Result{}, nil
}

// execAutocommitWrite orders a single write statement: DDL as its text,
// anything else as a one-statement certified transaction.
func (s *MMSession) execAutocommitWrite(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time) (*engine.Result, error) {
	if sqlparse.IsDDL(st) {
		// Write sets cannot carry DDL (§4.3.2): schema changes replicate as
		// ordered statements.
		return s.submit(mmTxn{DDL: st.SQL()})
	}
	// The caller's admission slot covers the whole begin/execute/commit
	// composition.
	if _, err := s.begin(); err != nil {
		return nil, err
	}
	if _, err := s.execInTxn(st, args, deadline); err != nil {
		_, _ = s.rollback()
		return nil, err
	}
	return s.commit()
}

// submit orders txn (a write set or one DDL statement) from this session's
// home replica and waits for its outcome there.
func (s *MMSession) submit(txn mmTxn) (*engine.Result, error) {
	if !s.home.Healthy() {
		// Refuse BEFORE ordering: once submitted, the transaction commits
		// cluster-wide even though this session (whose dead home applier
		// can never acknowledge it) would report failure — and a pooled
		// driver's retry would then double-apply a non-idempotent write.
		return nil, ErrReplicaDown
	}
	txn.ID = s.mm.nextTxn.Add(1)
	txn.Origin = s.home.Name()
	txn.Database = s.db
	txn.User = s.user
	res, err := s.mm.submitAndWait(s.mm.ordererFor(s.home), s.home, txn)
	if err == nil {
		s.lastWriteSeq = s.home.AppliedSeq()
		if res != nil && res.AtSeq == 0 {
			res.AtSeq = s.lastWriteSeq
		}
	}
	return res, err
}

// execRead balances a read per level/policy/consistency, serving
// cache-eligible statements from the cluster's query result cache when one
// is configured (entries are tagged with the serving replica's applied
// position, so the session-consistency re-validation below applies to
// cached results exactly as it does to replicas).
// readFloor is the lowest ordered position a read may be served from;
// session consistency covers own writes and previously observed state.
func (s *MMSession) readFloor() uint64 {
	if s.cons == SessionConsistent && s.lastReadSeq > s.lastWriteSeq {
		return s.lastReadSeq
	}
	return s.lastWriteSeq
}

// bumpReadSeq advances the monotonic-reads floor to pos.
func (s *MMSession) bumpReadSeq(pos uint64) {
	if pos > s.lastReadSeq {
		s.lastReadSeq = pos
	}
}

// waitHomeFloor blocks until the home replica's applied position reaches
// the session's open position and the freshness floor its consistency
// level demands of a BEGIN, bounded by the commit timeout (a lagging or
// partitioned home fails the BEGIN so pooled drivers retry on a fresh
// connection).
func (s *MMSession) waitHomeFloor() error {
	floor := s.openSeq
	switch s.cons {
	case StrongConsistent:
		floor = s.mm.head.Load()
	case SessionConsistent:
		floor = max(floor, s.readFloor())
	}
	if s.home.AppliedSeq() >= floor {
		return nil
	}
	deadline := time.Now().Add(s.mm.cfg.CommitTimeout)
	for s.home.AppliedSeq() < floor {
		if !s.home.Healthy() {
			return ErrReplicaDown
		}
		if time.Now().After(deadline) {
			// A stuck freshness wait is a deadline, not a hard failure: the
			// read never executed, so wrapping the deadline sentinel lets
			// pooled drivers back off and retry on a fresh connection
			// (likely homed on a replica that has caught up).
			return fmt.Errorf("%w: home %s stuck at position %d, session requires %d",
				ErrDeadlineExceeded, s.home.Name(), s.home.AppliedSeq(), floor)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *MMSession) execRead(st sqlparse.Statement, args []sqltypes.Value) (*engine.Result, error) {
	deadline := s.stmtDeadline()
	// Under sustained overload ANY-consistency reads shed first (ladder
	// rung 1): serve them from the cache or any healthy replica, however
	// stale, before spending a slot.
	relaxed := s.cons == ReadAny && s.mm.cfg.Admission.Shedding()
	qc := s.mm.qc
	if qc == nil || s.serializable || !engine.CacheableRead(st) || s.pool.readsTemp(st) {
		slot, err := s.admit(s.readClass(), deadline)
		if err != nil {
			return nil, err
		}
		res, err := s.execReadRouted(st, args, deadline, relaxed)
		slot.Done(err)
		return res, err
	}
	user := s.user
	db := s.db
	text := st.SQL()
	minPos := s.mm.cacheMinPos(s.cons, s.readFloor())
	if relaxed {
		minPos = 0 // shedding: any cached result beats queueing for a slot
	}
	// Probe the cache BEFORE admission: hits cost no slot, so under
	// overload the cache keeps absorbing read traffic at full speed.
	if res, posHi, ok := qc.GetPos(user, db, text, args, minPos); ok {
		s.bumpReadSeq(posHi)
		return res, nil
	}
	slot, err := s.admit(s.readClass(), deadline)
	if err != nil {
		return nil, err
	}
	res, err := s.execReadCacheFill(st, args, deadline, relaxed, qc, user, db, text)
	slot.Done(err)
	return res, err
}

// execReadCacheFill routes a cache-miss read and installs the result.
func (s *MMSession) execReadCacheFill(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time, relaxed bool, qc *qcache.Scope, user, db, text string) (*engine.Result, error) {
	target, err := s.routeRead(relaxed)
	if err != nil {
		return nil, err
	}
	sess, err := s.pool.get(target)
	if err != nil {
		return nil, err
	}
	pos := target.AppliedSeq()
	res, err := target.ExecStmtArgsDeadlineOn(sess, st, true, args, deadline)
	if err != nil {
		return nil, err
	}
	posHi := sampleApplied(target)
	s.bumpReadSeq(posHi)
	qc.PutAt(user, db, text, args, st.Tables(), pos, posHi, res)
	return res, nil
}

// sampleApplied reads the replica's applied position under snapMu so it is
// an exact ceiling for state a read just observed: if an applier has made a
// write set visible but not yet stored its position, the sample waits out
// the store instead of running a hair behind what was read.
func sampleApplied(r *Replica) uint64 {
	r.snapMu.Lock()
	pos := r.AppliedSeq()
	r.snapMu.Unlock()
	return pos
}

// execReadRouted executes a read on a routed replica with no caching.
func (s *MMSession) execReadRouted(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time, relaxed bool) (*engine.Result, error) {
	target, err := s.routeRead(relaxed)
	if err != nil {
		return nil, err
	}
	sess, err := s.pool.get(target)
	if err != nil {
		return nil, err
	}
	res, err := target.ExecStmtArgsDeadlineOn(sess, st, true, args, deadline)
	if err != nil {
		return nil, err
	}
	s.bumpReadSeq(sampleApplied(target))
	return res, nil
}

// routeRead picks the replica for a read. As in the master-slave router, a
// connection-level pin is only honored while the pinned replica still
// satisfies the session's consistency guarantee (or the read is relaxed by
// overload shedding, which waives freshness).
func (s *MMSession) routeRead(relaxed bool) (*Replica, error) {
	floor := s.readFloor()
	if s.mm.cfg.ReadLevel == lb.ConnectionLevel && s.pinnedRead != nil && s.pinnedRead.Healthy() &&
		(relaxed || s.mm.replicaFresh(s.pinnedRead, s.cons, floor)) {
		return s.pinnedRead, nil
	}
	target, err := s.mm.pickRead(s.cons, floor, relaxed)
	if err != nil {
		return nil, err
	}
	if s.mm.cfg.ReadLevel == lb.ConnectionLevel {
		s.pinnedRead = target
	}
	return target, nil
}

// Prepare implements Conn: parse once, execute many with fresh bindings.
func (s *MMSession) Prepare(sql string) (*Stmt, error) { return newStmt(s, sql) }

// Begin implements Conn. It routes through ExecStmt so transaction
// brackets pass admission control exactly like their SQL-text form.
func (s *MMSession) Begin() error {
	_, err := s.ExecStmt(&sqlparse.BeginTxn{})
	return err
}

// Commit implements Conn.
func (s *MMSession) Commit() error {
	_, err := s.ExecStmt(&sqlparse.CommitTxn{})
	return err
}

// Rollback implements Conn.
func (s *MMSession) Rollback() error {
	_, err := s.ExecStmt(&sqlparse.RollbackTxn{})
	return err
}

// SetIsolation implements Conn, propagating the level across the session's
// whole backend pool.
func (s *MMSession) SetIsolation(level string) error {
	lv, err := normalizeIsolation(level)
	if err != nil {
		return err
	}
	_, err = s.ExecStmt(&sqlparse.SetIsolation{Level: lv})
	return err
}

// SetConsistency implements Conn: a per-session read-guarantee override.
func (s *MMSession) SetConsistency(c Consistency) error {
	s.cons = c
	return nil
}
