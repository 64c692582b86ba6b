package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// Result is the outcome of executing one statement.
type Result struct {
	Columns      []string
	Rows         []sqltypes.Row
	RowsAffected int64
	LastInsertID int64
	// AtSeq is the binlog position of the commit this statement produced:
	// set on autocommit writes and on COMMIT, zero for reads, statements
	// inside a still-open transaction, and read-only commits. Middleware
	// layers use it to tag the exact position a write became visible at
	// (session-consistency bookkeeping, history recording) instead of
	// re-reading the binlog head, which may already include later commits
	// from concurrent sessions.
	AtSeq uint64
}

// varEntry is a session variable or procedure parameter binding.
type varEntry struct{ val sqltypes.Value }

// Session is a client connection to one engine. Sessions are not safe for
// concurrent use, matching real driver connections.
type Session struct {
	eng       *Engine
	id        int64
	user      string
	currentDB string
	iso       IsolationLevel
	txn       *Txn
	vars      map[string]varEntry
	// tempTables is the session-private temp namespace (§4.1.4).
	tempTables map[string]*Table
	closed     bool
	// stmtTimeout is the session's SET DEADLINE value: a per-statement
	// execution budget (0 = none). deadline is the externally imposed
	// absolute deadline for the CURRENT statement (set by the router via
	// SetDeadline so queue wait upstream and execution here share one
	// budget); effDeadline is the min of both, computed per statement.
	stmtTimeout time.Duration
	deadline    time.Time
	effDeadline time.Time
	// paramScope holds procedure parameter bindings during CALL.
	paramScope []map[string]sqltypes.Value
	// scanBufs is a free list of the buffers statements collect their
	// matching rows in, to cut per-statement allocations (pkindex.go).
	scanBufs [][]scanRow
}

// ErrNoDatabase is returned for table references with no current database.
var ErrNoDatabase = errors.New("engine: no database selected")

// ErrDeadlineExceeded is returned when a statement's deadline (SET DEADLINE
// or a router-imposed absolute deadline) expires before or during
// execution. It wraps context.DeadlineExceeded so one errors.Is check
// classifies deadline expiry from every layer of the stack.
var ErrDeadlineExceeded = fmt.Errorf("engine: statement deadline exceeded: %w", context.DeadlineExceeded)

// SetDeadline imposes an absolute deadline on subsequent statements (zero
// clears it). Routers use it to hand the engine whatever remains of a
// statement's budget after admission-queue and replica-semaphore waits.
func (s *Session) SetDeadline(t time.Time) { s.deadline = t }

// StmtTimeout returns the session's SET DEADLINE per-statement budget.
func (s *Session) StmtTimeout() time.Duration { return s.stmtTimeout }

// ID returns the session id.
func (s *Session) ID() int64 { return s.id }

// User returns the authenticated user name.
func (s *Session) User() string { return s.user }

// CurrentDatabase returns the USE'd database ("" when none).
func (s *Session) CurrentDatabase() string { return s.currentDB }

// Isolation returns the session's isolation level.
func (s *Session) Isolation() IsolationLevel { return s.iso }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.txn != nil }

// Close rolls back any open transaction and drops the session's temporary
// tables ("most applications ... rather drop the connection, allowing the
// database to automatically free the corresponding resources" — §4.1.4).
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if s.txn != nil {
		s.eng.rollbackLocked(s.txn)
		s.txn = nil
	}
	s.tempTables = make(map[string]*Table)
	s.closed = true
}

// Exec parses and executes one statement, binding ? placeholders to args.
// The signature is the uniform client contract shared by engine sessions,
// every router session and the wire driver.
func (s *Session) Exec(sql string, args ...sqltypes.Value) (*Result, error) {
	return s.ExecArgs(sql, args...)
}

// ExecArgs parses and executes one statement with ? parameters bound to
// args. Parsing goes through the process-wide statement cache, so repeated
// texts skip the parser; Prepare avoids even the cache probe.
func (s *Session) ExecArgs(sql string, args ...sqltypes.Value) (*Result, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		s.poisonOnError(err)
		return nil, err
	}
	return s.ExecStmtArgs(st, args...)
}

// ExecStmt executes a pre-parsed statement.
func (s *Session) ExecStmt(st sqlparse.Statement) (*Result, error) {
	return s.ExecStmtArgs(st)
}

// ExecStmtArgs executes a pre-parsed statement with bound parameters.
// Read-only statements (plain SELECT and SHOW under non-serializable
// isolation) run on the shared read path: they hold the engine lock as
// readers, so statements from different sessions scan in parallel. Write
// statements, DDL, FOR UPDATE, NEXTVAL and serializable sessions hold it
// exclusively.
func (s *Session) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: session closed")
	}
	if len(args) > 0 {
		// Enforce the argument count up front. Missing arguments would
		// surface lazily at evaluation, but SURPLUS ones would be dropped
		// silently — and a surplus argument almost always means the
		// statement has a literal where a ? was intended, i.e. it is about
		// to do the wrong thing without complaint.
		if n := sqlparse.CountParams(st); n != len(args) {
			return nil, fmt.Errorf("engine: statement has %d placeholders, got %d arguments", n, len(args))
		}
	}
	s.effDeadline = s.deadline
	if s.stmtTimeout > 0 {
		if d := time.Now().Add(s.stmtTimeout); s.effDeadline.IsZero() || d.Before(s.effDeadline) {
			s.effDeadline = d
		}
	}
	if s.sharedRead(st) {
		s.eng.mu.RLock()
		defer s.eng.mu.RUnlock()
		return s.execTopLocked(st, args)
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.execTopLocked(st, args)
}

// execTopLocked runs one top-level statement under whichever engine lock mode
// the caller chose, paying the configured per-statement service time.
// Deadlines are enforced at statement boundaries: a statement whose
// deadline expired while waiting for the engine lock fails before doing any
// work, and the modelled service time is truncated at the deadline.
func (s *Session) execTopLocked(st sqlparse.Statement, args []sqltypes.Value) (*Result, error) {
	if !s.effDeadline.IsZero() {
		rem := time.Until(s.effDeadline)
		if rem <= 0 {
			return nil, ErrDeadlineExceeded
		}
		if c := s.eng.cfg.ExecCost; c > 0 && rem < c {
			// The statement cannot finish inside its budget: pay only the
			// remaining budget, then time out.
			time.Sleep(rem)
			return nil, ErrDeadlineExceeded
		}
	}
	if c := s.eng.cfg.ExecCost; c > 0 {
		time.Sleep(c)
	}
	res, err := s.execLocked(st, args, 0)
	if err != nil {
		s.poisonOnErrorLocked(err)
	}
	return res, err
}

// ExecScript runs a multi-statement script, stopping at the first error.
func (s *Session) ExecScript(sql string) error {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := s.ExecStmt(st); err != nil {
			return err
		}
	}
	return nil
}

// poisonOnError implements the per-vendor error handling divergence
// (§4.1.2): Postgres-profile engines abort the whole transaction.
func (s *Session) poisonOnError(err error) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	s.poisonOnErrorLocked(err)
}

func (s *Session) poisonOnErrorLocked(err error) {
	if err == nil || s.txn == nil {
		return
	}
	if errors.Is(err, ErrTxnAborted) {
		return
	}
	if s.eng.cfg.Profile.AbortTxnOnError {
		s.txn.aborted = true
	}
}

// execLocked dispatches one statement. depth > 0 for trigger/procedure
// bodies; only depth-0 write statements are recorded for statement shipping.
func (s *Session) execLocked(st sqlparse.Statement, args []sqltypes.Value, depth int) (*Result, error) {
	if depth > 8 {
		return nil, fmt.Errorf("engine: trigger/procedure recursion limit exceeded")
	}
	if s.txn != nil && s.txn.aborted {
		if _, isRollback := st.(*sqlparse.RollbackTxn); !isRollback {
			return nil, ErrTxnAborted
		}
	}
	switch st := st.(type) {
	case *sqlparse.BeginTxn:
		return s.beginLocked()
	case *sqlparse.CommitTxn:
		return s.commitLocked()
	case *sqlparse.RollbackTxn:
		return s.rollbackLocked()
	case *sqlparse.SetIsolation:
		return s.setIsolationLocked(st)
	case *sqlparse.SetConsistency:
		// Read consistency is a middleware routing concept (§3.3); the
		// engine accepts the announcement so every layer speaks the same
		// SQL surface, but has nothing to do with it.
		return &Result{}, nil
	case *sqlparse.SetDeadline:
		// Routers normally intercept SET DEADLINE (so the budget also
		// covers admission-queue and replica waits); the engine honors it
		// directly for embedded single-node use.
		s.stmtTimeout = st.D
		return &Result{}, nil
	case *sqlparse.SetVar:
		v, err := newBinder(s, nil, args).constLocked(st.Value)
		if err != nil {
			return nil, err
		}
		s.vars[st.Name] = varEntry{val: v}
		return &Result{}, nil
	case *sqlparse.UseDatabase:
		if _, err := s.eng.database(st.Name); err != nil {
			return nil, err
		}
		if err := s.checkAccessLocked(st.Name); err != nil {
			return nil, err
		}
		s.currentDB = st.Name
		return &Result{}, nil
	case *sqlparse.Show:
		return s.showLocked(st)
	case *sqlparse.CreateDatabase:
		if err := s.eng.createDatabaseLocked(st.Name, st.IfNotExists); err != nil {
			return nil, err
		}
		s.eng.emitDDLLocked(st.SQL(), s)
		return &Result{}, nil
	case *sqlparse.DropDatabase:
		if _, ok := s.eng.databases[st.Name]; !ok {
			return nil, fmt.Errorf("engine: unknown database %q", st.Name)
		}
		delete(s.eng.databases, st.Name)
		if s.currentDB == st.Name {
			s.currentDB = ""
		}
		s.eng.emitDDLLocked(st.SQL(), s)
		return &Result{}, nil
	case *sqlparse.CreateTable:
		return s.createTableLocked(st)
	case *sqlparse.DropTable:
		return s.dropTableLocked(st)
	case *sqlparse.CreateSequence:
		return s.createSequenceLocked(st)
	case *sqlparse.DropSequence:
		return s.dropSequenceLocked(st)
	case *sqlparse.CreateTrigger:
		return s.createTriggerLocked(st)
	case *sqlparse.DropTrigger:
		return s.dropTriggerLocked(st)
	case *sqlparse.CreateProcedure:
		return s.createProcedureLocked(st)
	case *sqlparse.DropProcedure:
		return s.dropProcedureLocked(st)
	case *sqlparse.CreateUser:
		// Deliberately NOT recorded in the binlog: access control is
		// "orthogonal to database content" and gets lost by replication
		// and backups (§4.1.5).
		if _, ok := s.eng.users[st.Name]; ok {
			return nil, fmt.Errorf("engine: user %q already exists", st.Name)
		}
		s.eng.users[st.Name] = &User{Name: st.Name, Password: st.Password, Grants: make(map[string]bool)}
		return &Result{}, nil
	case *sqlparse.Grant:
		u, ok := s.eng.users[st.User]
		if !ok {
			return nil, fmt.Errorf("engine: unknown user %q", st.User)
		}
		u.Grants[st.Database] = true
		return &Result{}, nil
	case *sqlparse.Insert:
		return s.dmlLocked(st, args, depth)
	case *sqlparse.Update:
		return s.dmlLocked(st, args, depth)
	case *sqlparse.Delete:
		return s.dmlLocked(st, args, depth)
	case *sqlparse.Select:
		return s.dmlLocked(st, args, depth)
	case *sqlparse.Call:
		return s.callLocked(st, args, depth)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

func (s *Session) beginLocked() (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("engine: transaction already in progress")
	}
	s.txn = s.eng.beginTxnLocked(s.iso)
	return &Result{}, nil
}

func (s *Session) commitLocked() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	tx := s.txn
	s.txn = nil
	_, _, err := s.eng.commitLocked(tx, s, nil)
	if err != nil {
		return nil, err
	}
	s.dropCommitTempTables()
	return &Result{AtSeq: tx.commitSeq}, nil
}

func (s *Session) rollbackLocked() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	s.eng.rollbackLocked(s.txn)
	s.txn = nil
	s.dropCommitTempTables()
	return &Result{}, nil
}

// CommitWriteSet commits the open transaction and returns its write set —
// the hook transaction-based replication uses (functionally what trigger-
// based write-set extraction provides, §4.3.2).
func (s *Session) CommitWriteSet() (uint64, *WriteSet, error) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if s.txn == nil {
		return 0, nil, fmt.Errorf("engine: no transaction in progress")
	}
	tx := s.txn
	s.txn = nil
	ts, ws, err := s.eng.commitLocked(tx, s, nil)
	if err == nil {
		s.dropCommitTempTables()
	}
	return ts, ws, err
}

// dropCommitTempTables implements the drop-on-commit temp table profile.
func (s *Session) dropCommitTempTables() {
	if s.eng.cfg.Profile.TempTablesDropOnCommit {
		s.tempTables = make(map[string]*Table)
	}
}

func (s *Session) setIsolationLocked(st *sqlparse.SetIsolation) (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("engine: cannot change isolation level inside a transaction")
	}
	switch st.Level {
	case "READ COMMITTED":
		s.iso = ReadCommitted
	case "SNAPSHOT":
		if !s.eng.cfg.Profile.SupportsSnapshot {
			return nil, fmt.Errorf("engine: %s does not support snapshot isolation (§4.1.2)", s.eng.cfg.Profile.Name)
		}
		s.iso = Snapshot
	case "SERIALIZABLE":
		s.iso = Serializable
	default:
		return nil, fmt.Errorf("engine: unknown isolation level %q", st.Level)
	}
	return &Result{}, nil
}

func (s *Session) showLocked(st *sqlparse.Show) (*Result, error) {
	res := &Result{Columns: []string{"name"}}
	switch st.What {
	case "DATABASES":
		names := make([]string, 0, len(s.eng.databases))
		for n := range s.eng.databases {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(n)})
		}
	case "TABLES":
		if s.currentDB == "" {
			return nil, ErrNoDatabase
		}
		d, err := s.eng.database(s.currentDB)
		if err != nil {
			return nil, err
		}
		names := d.TableNames()
		for n := range s.tempTables {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(n)})
		}
	default:
		return nil, fmt.Errorf("engine: unknown SHOW %q", st.What)
	}
	return res, nil
}

// checkAccessLocked enforces per-database grants when auth is required.
// The "*" grant covers every database (the daemon's -auth principal uses
// it: databases are created over the wire after the grant is issued).
func (s *Session) checkAccessLocked(db string) error {
	if !s.eng.cfg.RequireAuth {
		return nil
	}
	u, ok := s.eng.users[s.user]
	if !ok {
		return fmt.Errorf("engine: unknown user %q", s.user)
	}
	if !u.Grants[db] && !u.Grants["*"] {
		return fmt.Errorf("engine: user %q has no access to database %q", s.user, db)
	}
	return nil
}

// resolveDB returns the database name a table reference targets.
func (s *Session) resolveDB(ref sqlparse.TableRef) (string, error) {
	if ref.Database != "" {
		return ref.Database, nil
	}
	if s.currentDB == "" {
		return "", ErrNoDatabase
	}
	return s.currentDB, nil
}

// lookupTableLocked resolves a table reference: session temp tables shadow
// permanent tables when the reference is unqualified.
func (s *Session) lookupTableLocked(ref sqlparse.TableRef) (*Table, tableKey, error) {
	if ref.Database == "" {
		if t, ok := s.tempTables[ref.Name]; ok {
			return t, tableKey{db: "", table: ref.Name}, nil
		}
	}
	dbName, err := s.resolveDB(ref)
	if err != nil {
		return nil, tableKey{}, err
	}
	if err := s.checkAccessLocked(dbName); err != nil {
		return nil, tableKey{}, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, tableKey{}, err
	}
	t, ok := d.tables[ref.Name]
	if !ok {
		return nil, tableKey{}, fmt.Errorf("engine: unknown table %q.%q", dbName, ref.Name)
	}
	return t, tableKey{db: dbName, table: ref.Name}, nil
}

func (s *Session) createTableLocked(st *sqlparse.CreateTable) (*Result, error) {
	cols := make([]Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = Column{
			Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey,
			Unique: c.Unique, AutoIncrement: c.AutoIncrement,
			NotNull: c.NotNull, Default: c.Default,
		}
	}
	if st.Temp {
		if st.Table.Database != "" {
			return nil, fmt.Errorf("engine: temporary tables cannot be database-qualified")
		}
		if _, ok := s.tempTables[st.Table.Name]; ok {
			if st.IfNotExists {
				return &Result{}, nil
			}
			return nil, fmt.Errorf("engine: temp table %q already exists", st.Table.Name)
		}
		s.tempTables[st.Table.Name] = newTable(st.Table.Name, cols, true)
		return &Result{}, nil
	}
	dbName, err := s.resolveDB(st.Table)
	if err != nil {
		return nil, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, err
	}
	if _, ok := d.tables[st.Table.Name]; ok {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: table %q.%q already exists", dbName, st.Table.Name)
	}
	d.tables[st.Table.Name] = newTable(st.Table.Name, cols, false)
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) dropTableLocked(st *sqlparse.DropTable) (*Result, error) {
	if st.Table.Database == "" {
		if _, ok := s.tempTables[st.Table.Name]; ok {
			delete(s.tempTables, st.Table.Name)
			return &Result{}, nil
		}
	}
	dbName, err := s.resolveDB(st.Table)
	if err != nil {
		return nil, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, err
	}
	if _, ok := d.tables[st.Table.Name]; !ok {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: unknown table %q.%q", dbName, st.Table.Name)
	}
	delete(d.tables, st.Table.Name)
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) createSequenceLocked(st *sqlparse.CreateSequence) (*Result, error) {
	dbName, err := s.resolveDB(st.Name)
	if err != nil {
		return nil, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, err
	}
	if _, ok := d.sequences[st.Name.Name]; ok {
		return nil, fmt.Errorf("engine: sequence %q already exists", st.Name.Name)
	}
	inc := st.Increment
	if inc == 0 {
		inc = 1
	}
	d.sequences[st.Name.Name] = &Sequence{Name: st.Name.Name, Next: st.Start, Increment: inc}
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) dropSequenceLocked(st *sqlparse.DropSequence) (*Result, error) {
	dbName, err := s.resolveDB(st.Name)
	if err != nil {
		return nil, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, err
	}
	if _, ok := d.sequences[st.Name.Name]; !ok {
		return nil, fmt.Errorf("engine: unknown sequence %q", st.Name.Name)
	}
	delete(d.sequences, st.Name.Name)
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) createTriggerLocked(st *sqlparse.CreateTrigger) (*Result, error) {
	dbName, err := s.resolveDB(st.Table)
	if err != nil {
		return nil, err
	}
	d, err := s.eng.database(dbName)
	if err != nil {
		return nil, err
	}
	if _, ok := d.tables[st.Table.Name]; !ok {
		return nil, fmt.Errorf("engine: unknown table %q.%q", dbName, st.Table.Name)
	}
	for _, tr := range d.triggers[st.Table.Name] {
		if tr.Name == st.Name {
			return nil, fmt.Errorf("engine: trigger %q already exists", st.Name)
		}
	}
	d.triggers[st.Table.Name] = append(d.triggers[st.Table.Name], &Trigger{
		Name: st.Name, Event: st.Event, Table: st.Table.Name, Body: st.Body,
	})
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) dropTriggerLocked(st *sqlparse.DropTrigger) (*Result, error) {
	if s.currentDB == "" {
		return nil, ErrNoDatabase
	}
	d, err := s.eng.database(s.currentDB)
	if err != nil {
		return nil, err
	}
	for table, trs := range d.triggers {
		for i, tr := range trs {
			if tr.Name == st.Name {
				d.triggers[table] = append(trs[:i], trs[i+1:]...)
				s.eng.emitDDLLocked(st.SQL(), s)
				return &Result{}, nil
			}
		}
	}
	return nil, fmt.Errorf("engine: unknown trigger %q", st.Name)
}

func (s *Session) createProcedureLocked(st *sqlparse.CreateProcedure) (*Result, error) {
	if s.currentDB == "" {
		return nil, ErrNoDatabase
	}
	d, err := s.eng.database(s.currentDB)
	if err != nil {
		return nil, err
	}
	if _, ok := d.procedures[st.Name]; ok {
		return nil, fmt.Errorf("engine: procedure %q already exists", st.Name)
	}
	d.procedures[st.Name] = &Procedure{Name: st.Name, Params: st.Params, Body: st.Body}
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

func (s *Session) dropProcedureLocked(st *sqlparse.DropProcedure) (*Result, error) {
	if s.currentDB == "" {
		return nil, ErrNoDatabase
	}
	d, err := s.eng.database(s.currentDB)
	if err != nil {
		return nil, err
	}
	if _, ok := d.procedures[st.Name]; !ok {
		return nil, fmt.Errorf("engine: unknown procedure %q", st.Name)
	}
	delete(d.procedures, st.Name)
	s.eng.emitDDLLocked(st.SQL(), s)
	return &Result{}, nil
}

// callLocked executes a stored procedure body (§4.2.1).
func (s *Session) callLocked(st *sqlparse.Call, args []sqltypes.Value, depth int) (*Result, error) {
	if s.currentDB == "" {
		return nil, ErrNoDatabase
	}
	d, err := s.eng.database(s.currentDB)
	if err != nil {
		return nil, err
	}
	proc, ok := d.procedures[st.Name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown procedure %q", st.Name)
	}
	if len(st.Args) != len(proc.Params) {
		return nil, fmt.Errorf("engine: procedure %q wants %d args, got %d", st.Name, len(proc.Params), len(st.Args))
	}
	scope := make(map[string]sqltypes.Value, len(proc.Params))
	b := newBinder(s, nil, args)
	for i, pname := range proc.Params {
		v, err := b.constLocked(st.Args[i])
		if err != nil {
			return nil, err
		}
		scope[pname] = v
	}
	s.paramScope = append(s.paramScope, scope)
	defer func() { s.paramScope = s.paramScope[:len(s.paramScope)-1] }()

	// Record the CALL itself for statement shipping at depth 0; the inner
	// statements run silently (the replica's copy of the procedure will
	// re-execute them — including any non-determinism, §4.2.1).
	if depth == 0 && s.txn != nil {
		s.txn.stmts = append(s.txn.stmts, recordSQL(st, args))
	}
	recordCall := depth == 0 && s.txn == nil

	var last *Result
	runBody := func() error {
		for _, body := range proc.Body {
			res, err := s.execLocked(body, nil, depth+1)
			if err != nil {
				return err
			}
			last = res
		}
		return nil
	}
	if recordCall {
		// Autocommit CALL: wrap the body in one implicit transaction whose
		// recorded statement is the CALL.
		s.txn = s.eng.beginTxnLocked(s.iso)
		s.txn.stmts = append(s.txn.stmts, recordSQL(st, args))
		if err := runBody(); err != nil {
			s.eng.rollbackLocked(s.txn)
			s.txn = nil
			return nil, err
		}
		tx := s.txn
		s.txn = nil
		if _, _, err := s.eng.commitLocked(tx, s, nil); err != nil {
			return nil, err
		}
	} else if err := runBody(); err != nil {
		return nil, err
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

// lookupParam resolves a procedure parameter from the innermost scope.
func (s *Session) lookupParam(name string) (sqltypes.Value, bool) {
	for i := len(s.paramScope) - 1; i >= 0; i-- {
		if v, ok := s.paramScope[i][name]; ok {
			return v, true
		}
	}
	return sqltypes.Null, false
}
