package core

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
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
	replicaSession
	mm   *MultiMaster
	home *Replica
	// openSeq is the cluster's ordered head when the session opened. The
	// home must reach it before the session's first transaction, at every
	// consistency level: DML executes there, and a home still missing
	// DDL another connection committed would fail it with "unknown table".
	openSeq uint64

	inTxn   bool
	dryRun  *engine.Session
	snapSeq uint64 // home position at BEGIN
}

// NewSession opens a session. The home replica (where transactions execute
// before ordering) is picked by the balancing policy.
func (mm *MultiMaster) NewSession(user string) (*MMSession, error) {
	home, err := mm.pickHome()
	if err != nil {
		return nil, err
	}
	s := &MMSession{mm: mm, home: home, openSeq: mm.head.Load()}
	s.replicaSession = replicaSession{
		sessionCore: newSessionCore(s, user, mm.cfg.Admission, mm.cfg.Consistency, mm.cfg.StatementTimeout),
		pool:        newSessionPool(user),
		topo:        mm,
		qc:          mm.qc,
		level:       mm.cfg.ReadLevel,
	}
	s.serializable = home.Engine().Profile().DefaultIsolation == engine.Serializable
	return s, nil
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

// ExecStmtArgs routes a pre-parsed statement with bind arguments. Writes
// bind them at the home replica's run and ship row images. The ordered
// statement stays bounded by CommitTimeout, not the session's deadline:
// aborting a transaction after it has been ordered would be unsafe.
func (s *MMSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (res *engine.Result, err error) {
	switch st.(type) {
	case *sqlparse.RollbackTxn:
		// Rollback discards local state only — never shed it: refusing a
		// rollback under overload would strand open transactions.
		return s.rollback()
	case *sqlparse.BeginTxn, *sqlparse.CommitTxn:
	default:
		// Inside a transaction SET ISOLATION goes to the home's dry run,
		// which rejects it like the engine would.
		if _, iso := st.(*sqlparse.SetIsolation); !iso || !s.inTxn {
			if res, ok, err := s.setting(st, s.pool.announce); ok {
				return res, err
			}
		}
		if !s.inTxn && st.IsRead() {
			return s.execRead(st, args)
		}
	}
	// Transaction brackets hold write-class admission for their own
	// duration only; the statements inside admit individually (a slot held
	// across an interactive transaction would let one slow client starve
	// the cluster).
	slot, deadline, err := s.admit(admission.ClassWrite)
	if err != nil {
		return nil, err
	}
	defer func() { slot.Done(err) }()
	switch st.(type) {
	case *sqlparse.BeginTxn:
		return s.begin()
	case *sqlparse.CommitTxn:
		return s.commit()
	}
	if s.inTxn {
		return s.execInTxn(st, args, deadline)
	}
	return s.execAutocommitWrite(st, args, deadline)
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
	if ct, ok := st.(*sqlparse.CreateTable); ok && ct.Temp {
		// Ordered DDL runs in a throwaway session on every replica, so the
		// table would exist in no client session; temp tables are
		// master-slave only.
		return nil, fmt.Errorf("%w: temp tables on multi-master clusters", ErrUnsupportedStatement)
	}
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
	txn.Database = s.pool.currentDB()
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
