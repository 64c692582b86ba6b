package main

import (
	"context"
	"database/sql"
	"fmt"

	"repro/internal/engine"
	"repro/internal/sqltypes"
	"repro/internal/wire"
	"repro/replication"
)

// executor runs one generated request on one rung of the statement chain
// and checks its result; any error is a failed operation. Like the
// connections they wrap, executors serve one goroutine.
type executor interface {
	run(o op) error
	close()
}

// opSQL is each op kind's statement, indexed by opKind.
var opSQL = [...]string{opPointRead: sqlPointRead, opScanRead: sqlScanRead, opUpdate: sqlUpdate}

// checkResult is the per-operation correctness rule: a point read returns
// exactly the asked row, a scan exactly its group, an update changes one
// row. id(i) is row i's first column.
func checkResult(o op, ds dataset, rows int, id func(i int) int64, affected int64) error {
	switch o.kind {
	case opPointRead:
		if rows != 1 || id(0) != o.key {
			return fmt.Errorf("point read of id %d returned %d rows", o.key, rows)
		}
	case opScanRead:
		if rows != ds.groupRows() {
			return fmt.Errorf("scan of group %d returned %d rows, want %d", o.key, rows, ds.groupRows())
		}
		for i := 0; i < rows; i++ {
			if id(i)%scanGroups != o.key {
				return fmt.Errorf("scan of group %d returned id %d", o.key, id(i))
			}
		}
	case opUpdate:
		if affected != 1 {
			return fmt.Errorf("update of id %d affected %d rows", o.key, affected)
		}
	}
	return nil
}

// sqlExecutor is the top of the chain: prepared statements on one pooled
// database/sql connection.
type sqlExecutor struct {
	ctx   context.Context
	conn  *sql.Conn
	stmts [len(opSQL)]*sql.Stmt
	ds    dataset
	ids   []int64 // scratch for scanned ids
}

func newSQLExecutor(ctx context.Context, db *sql.DB, ds dataset) (*sqlExecutor, error) {
	conn, err := db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	e := &sqlExecutor{ctx: ctx, conn: conn, ds: ds}
	for k, q := range opSQL {
		if e.stmts[k], err = conn.PrepareContext(ctx, q); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *sqlExecutor) run(o op) error {
	st := e.stmts[o.kind]
	if o.kind == opUpdate {
		res, err := st.ExecContext(e.ctx, o.key)
		if err != nil {
			return err
		}
		n, err := res.RowsAffected()
		if err != nil {
			return err
		}
		return checkResult(o, e.ds, 0, nil, n)
	}
	var rows *sql.Rows
	var err error
	if o.kind == opScanRead {
		rows, err = st.QueryContext(e.ctx, o.key, o.nonce)
	} else {
		rows, err = st.QueryContext(e.ctx, o.key)
	}
	if err != nil {
		return err
	}
	defer rows.Close()
	e.ids = e.ids[:0]
	for rows.Next() {
		var id, stock int64
		var name sql.RawBytes
		if err := rows.Scan(&id, &name, &stock); err != nil {
			return err
		}
		e.ids = append(e.ids, id)
	}
	if err := rows.Err(); err != nil {
		return err
	}
	return checkResult(o, e.ds, len(e.ids), func(i int) int64 { return e.ids[i] }, 0)
}

func (e *sqlExecutor) close() {
	for _, st := range e.stmts {
		if st != nil {
			st.Close()
		}
	}
	e.conn.Close()
}

// valueStmt is a prepared statement of any rung below database/sql: those
// rungs all bind sqltypes values and return materialized rows.
type valueStmt func(args ...sqltypes.Value) (rows []sqltypes.Row, affected int64, err error)

// engineResultStmt adapts the Exec of an engine.Stmt or a router Stmt, which
// both return an engine result.
func engineResultStmt(exec func(args ...sqltypes.Value) (*engine.Result, error)) valueStmt {
	return func(args ...sqltypes.Value) ([]sqltypes.Row, int64, error) {
		res, err := exec(args...)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.RowsAffected, nil
	}
}

// valueExecutor drives one of the lower rungs.
type valueExecutor struct {
	stmts   [len(opSQL)]valueStmt
	ds      dataset
	closeFn func()
}

func (e *valueExecutor) run(o op) error {
	args := [2]sqltypes.Value{sqltypes.NewInt(o.key), sqltypes.NewInt(o.nonce)}
	n := 1
	if o.kind == opScanRead {
		n = 2
	}
	rows, affected, err := e.stmts[o.kind](args[:n]...)
	if err != nil {
		return err
	}
	return checkResult(o, e.ds, len(rows), func(i int) int64 { return rows[i][0].Int() }, affected)
}

func (e *valueExecutor) close() { e.closeFn() }

// newEngineExecutor prepares the statements on a bare engine session.
func newEngineExecutor(eng *engine.Engine, ds dataset) (*valueExecutor, error) {
	s := eng.NewSession(sutUser)
	e := &valueExecutor{ds: ds, closeFn: s.Close}
	if _, err := s.Exec("USE " + sutDatabase); err != nil {
		s.Close()
		return nil, err
	}
	for k, q := range opSQL {
		st, err := s.Prepare(q)
		if err != nil {
			s.Close()
			return nil, err
		}
		e.stmts[k] = engineResultStmt(st.Exec)
	}
	return e, nil
}

// newWireExecutor prepares the statements on one binary-protocol wire
// connection to addr, whatever backend the server there fronts.
func newWireExecutor(addr, user string, ds dataset) (*valueExecutor, error) {
	c, err := wire.Dial(addr, wire.DriverConfig{User: user, Database: sutDatabase, Protocol: wire.ProtocolBinary})
	if err != nil {
		return nil, err
	}
	e := &valueExecutor{ds: ds, closeFn: c.Close}
	for k, q := range opSQL {
		st, err := c.Prepare(q)
		if err != nil {
			c.Close()
			return nil, err
		}
		e.stmts[k] = func(args ...sqltypes.Value) ([]sqltypes.Row, int64, error) {
			resp, err := st.Exec(args...)
			if err != nil {
				return nil, 0, err
			}
			return resp.Rows, resp.RowsAffected, nil
		}
	}
	return e, nil
}

// newCoreExecutor prepares the statements on an in-process router
// connection: the cluster without the wire.
func newCoreExecutor(cluster replication.Cluster, user string, ds dataset) (*valueExecutor, error) {
	c, err := cluster.NewConn(user)
	if err != nil {
		return nil, err
	}
	e := &valueExecutor{ds: ds, closeFn: c.Close}
	if _, err := c.Exec("USE " + sutDatabase); err != nil {
		c.Close()
		return nil, err
	}
	for k, q := range opSQL {
		st, err := c.Prepare(q)
		if err != nil {
			c.Close()
			return nil, err
		}
		e.stmts[k] = engineResultStmt(st.Exec)
	}
	return e, nil
}
