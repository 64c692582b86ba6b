package history

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// RecordedConn decorates a core.Conn so every statement the application
// executes is observed by a SessionRecorder. It implements core.Conn, so a
// recorded connection drops into any code written against the unified API
// — in-process topologies, the chaos harness, the wire server's backend.
type RecordedConn struct {
	conn core.Conn
	sr   *SessionRecorder
}

var _ core.Conn = (*RecordedConn)(nil)

// WrapConn registers a new recorded session for c. The wrapper assumes
// exclusive use of the underlying connection, matching core.Conn's own
// single-goroutine contract.
func WrapConn(c core.Conn, r *Recorder) *RecordedConn {
	return &RecordedConn{conn: c, sr: r.NewSession()}
}

// Session exposes the session recorder (tests use its ID).
func (rc *RecordedConn) Session() *SessionRecorder { return rc.sr }

// Unwrap returns the underlying connection.
func (rc *RecordedConn) Unwrap() core.Conn { return rc.conn }

func (rc *RecordedConn) observe(sql string, args []core.Value, res *engine.Result, err error, start int64) {
	var obs Observed
	if res != nil {
		obs = Observed{Columns: res.Columns, Rows: res.Rows, RowsAffected: res.RowsAffected, AtSeq: res.AtSeq}
	}
	rc.sr.Observe(start, Now(), sql, args, obs, err)
}

// Exec implements core.Conn.
func (rc *RecordedConn) Exec(sql string, args ...core.Value) (*engine.Result, error) {
	start := Now()
	res, err := rc.conn.Exec(sql, args...)
	rc.observe(sql, args, res, err, start)
	return res, err
}

// Query implements core.Conn.
func (rc *RecordedConn) Query(sql string, args ...core.Value) (*engine.Result, error) {
	start := Now()
	res, err := rc.conn.Query(sql, args...)
	rc.observe(sql, args, res, err, start)
	return res, err
}

// ExecStmt implements core.Conn.
func (rc *RecordedConn) ExecStmt(st sqlparse.Statement) (*engine.Result, error) {
	return rc.ExecStmtArgs(st)
}

// ExecStmtArgs implements core.Conn. The recorder re-parses the rendered
// SQL through the process-wide statement cache, so the prepared hot path
// stays allocation-light.
func (rc *RecordedConn) ExecStmtArgs(st sqlparse.Statement, args ...core.Value) (*engine.Result, error) {
	start := Now()
	res, err := rc.conn.ExecStmtArgs(st, args...)
	// Recording the executed text (with its argument vector alongside) is
	// the point of history capture; the checkers re-parse it in-process
	// with the same args.
	rc.observe(st.SQL(), args, res, err, start)
	return res, err
}

// Prepare implements core.Conn: the handle is bound to the wrapper so its
// Exec routes back through recording.
func (rc *RecordedConn) Prepare(sql string) (*core.Stmt, error) {
	return core.NewStmt(rc, sql)
}

// Begin implements core.Conn.
func (rc *RecordedConn) Begin() error {
	start := Now()
	err := rc.conn.Begin()
	rc.sr.Observe(start, Now(), "BEGIN", nil, Observed{}, err)
	return err
}

// Commit implements core.Conn.
func (rc *RecordedConn) Commit() error {
	start := Now()
	err := rc.conn.Commit()
	// Conn.Commit returns no result, so the commit position is unknown
	// here; SQL-level COMMIT via Exec carries it. Session-guarantee
	// checks simply skip seq-less writes.
	rc.sr.Observe(start, Now(), "COMMIT", nil, Observed{}, err)
	return err
}

// Rollback implements core.Conn.
func (rc *RecordedConn) Rollback() error {
	start := Now()
	err := rc.conn.Rollback()
	rc.sr.Observe(start, Now(), "ROLLBACK", nil, Observed{}, err)
	return err
}

// SetIsolation implements core.Conn.
func (rc *RecordedConn) SetIsolation(level string) error { return rc.conn.SetIsolation(level) }

// SetConsistency implements core.Conn.
func (rc *RecordedConn) SetConsistency(c core.Consistency) error { return rc.conn.SetConsistency(c) }

// Close implements core.Conn; an open transaction is recorded as aborted.
func (rc *RecordedConn) Close() {
	rc.sr.Close()
	rc.conn.Close()
}
