package engine

import (
	"fmt"
	"sort"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// dmlLocked executes INSERT/UPDATE/DELETE/SELECT, wrapping autocommit
// statements in an implicit transaction.
func (s *Session) dmlLocked(st sqlparse.Statement, args []sqltypes.Value, depth int) (*Result, error) {
	implicit := false
	if s.txn == nil {
		s.txn = s.eng.beginTxnLocked(s.iso)
		implicit = true
	}
	tx := s.txn
	s.eng.refreshSnapshotLocked(tx)

	var res *Result
	var err error
	switch st := st.(type) {
	case *sqlparse.Insert:
		res, err = s.execInsertLocked(tx, st, args, depth)
	case *sqlparse.Update:
		res, err = s.execUpdateLocked(tx, st, args, depth)
	case *sqlparse.Delete:
		res, err = s.execDeleteLocked(tx, st, args, depth)
	case *sqlparse.Select:
		res, err = s.execSelectLocked(tx, st, args)
	default:
		err = fmt.Errorf("engine: not a DML statement: %T", st)
	}
	if implicit {
		s.txn = nil
		if err != nil {
			s.eng.rollbackLocked(tx)
			return nil, err
		}
		if _, _, cerr := s.eng.commitLocked(tx, s, nil); cerr != nil {
			return nil, cerr
		}
		s.dropCommitTempTables()
		if res != nil {
			res.AtSeq = tx.commitSeq
		}
	}
	return res, err
}

// checkTempUse enforces the Sybase-style "no temp tables inside explicit
// transactions" restriction (§4.1.4).
func (s *Session) checkTempUse(t *Table, implicitTx bool) error {
	if !t.Temp {
		return nil
	}
	if s.txn != nil && !implicitTx && !s.eng.cfg.Profile.TempTablesInTxn {
		return fmt.Errorf("engine: %s does not allow temporary tables inside transactions (§4.1.4)", s.eng.cfg.Profile.Name)
	}
	return nil
}

// dmlTableLocked resolves the table a DML statement targets, enforces the
// temp-table restriction and, for serializable sessions, takes the table lock.
func (s *Session) dmlTableLocked(tx *Txn, ref sqlparse.TableRef, exclusive bool) (*Table, tableKey, error) {
	t, key, err := s.lookupTableLocked(ref)
	if err != nil {
		return nil, key, err
	}
	if err := s.checkTempUse(t, false); err != nil {
		return nil, key, err
	}
	if s.iso == Serializable && !t.Temp {
		if err := s.eng.lockTable(tx, t, exclusive); err != nil {
			return nil, key, err
		}
	}
	return t, key, nil
}

// scanRow is one visible row during execution.
type scanRow struct {
	rowID int64
	data  sqltypes.Row
}

// filterLocked appends to out (typically a pooled buffer from getScanBuf)
// the rows of t visible to tx — with the transaction's own pending changes
// applied — that satisfy where; a nil where keeps every row. It is the one
// scan SELECT, UPDATE and DELETE share. A primary-key point predicate probes
// the pk index (O(1)); anything else walks rowOrder and tests each visible
// version where it is stored with the predicate kernel, so a row the
// predicate rejects costs neither a buffer slot nor an allocation.
func (s *Session) filterLocked(b *binder, tx *Txn, key tableKey, t *Table, where *bexpr, out []scanRow) ([]scanRow, error) {
	if v, ok := pkPointValue(t, where); ok {
		if v.IsNull() {
			return out, nil
		}
		return s.pkLookupLocked(tx, key, t, v, out), nil
	}
	ov := tx.overlay[key]
	for _, id := range t.rowOrder {
		var row sqltypes.Row
		var ent *overlayEntry
		if len(ov) != 0 { // most statements have no pending change to t
			ent = ov[id]
		}
		if ent != nil {
			if ent.deleted {
				continue
			}
			row = ent.data
		} else if v := t.chain(id).visible(tx.snapTS); v != nil {
			row = v.data
		} else {
			continue
		}
		if ok, err := b.matches(where, row); err != nil {
			return out, err
		} else if ok {
			out = append(out, scanRow{rowID: id, data: row})
		}
	}
	// Rows inserted by this transaction that are not yet in rowOrder.
	for _, op := range tx.ops {
		if op.key != key || op.kind != WriteInsert {
			continue
		}
		if t.chain(op.rowID) != nil {
			continue
		}
		if ent := ov[op.rowID]; ent != nil && !ent.deleted {
			if ok, err := b.matches(where, ent.data); err != nil {
				return out, err
			} else if ok {
				out = append(out, scanRow{rowID: op.rowID, data: ent.data})
			}
		}
	}
	return out, nil
}

// coerce converts v to the column kind, erroring on NOT NULL violations.
func coerce(col Column, v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() {
		if col.NotNull {
			return v, fmt.Errorf("engine: null value in column %q violates not-null constraint", col.Name)
		}
		return v, nil
	}
	switch col.Type {
	case sqltypes.KindInt:
		if v.Kind() == sqltypes.KindInt {
			return v, nil
		}
		return sqltypes.NewInt(v.Int()), nil
	case sqltypes.KindFloat:
		if v.Kind() == sqltypes.KindFloat {
			return v, nil
		}
		return sqltypes.NewFloat(v.Float()), nil
	case sqltypes.KindString:
		if v.Kind() == sqltypes.KindString {
			return v, nil
		}
		return sqltypes.NewString(v.Str()), nil
	case sqltypes.KindBool:
		if v.Kind() == sqltypes.KindBool {
			return v, nil
		}
		return sqltypes.NewBool(v.Bool()), nil
	case sqltypes.KindTime:
		if v.Kind() == sqltypes.KindTime {
			return v, nil
		}
		return sqltypes.Value{K: sqltypes.KindTime, I: v.Int()}, nil
	}
	return v, nil
}

// uniqueViolationLocked checks PK/unique constraints of candidate against rows
// visible to tx (excluding excludeID).
func (s *Session) uniqueViolationLocked(tx *Txn, key tableKey, t *Table, candidate sqltypes.Row, excludeID int64) error {
	if len(t.uniqueCols) == 0 {
		return nil
	}
	// When the primary key is the only uniqueness constraint, a point
	// lookup replaces the full visibility scan — this is what makes bulk
	// INSERT into a keyed table O(n) instead of O(n²).
	if t.pkOnlyUnique {
		pk := candidate[t.pkCol]
		if pk.IsNull() {
			return nil
		}
		for _, sr := range s.pkLookupLocked(tx, key, t, pk, nil) {
			if sr.rowID != excludeID {
				return fmt.Errorf("%w: %s.%s column %s value %v",
					ErrDuplicateKey, key.db, key.table, t.Columns[t.pkCol].Name, pk)
			}
		}
		return nil
	}
	rows, _ := s.filterLocked(nil, tx, key, t, nil, s.getScanBuf()) // no predicate, so no error
	defer s.putScanBuf(rows)
	for _, sr := range rows {
		if sr.rowID == excludeID {
			continue
		}
		for _, ci := range t.uniqueCols {
			if candidate[ci].IsNull() {
				continue
			}
			if sqltypes.Equal(sr.data[ci], candidate[ci]) {
				return fmt.Errorf("%w: %s.%s column %s value %v",
					ErrDuplicateKey, key.db, key.table, t.Columns[ci].Name, candidate[ci])
			}
		}
	}
	return nil
}

func (s *Session) execInsertLocked(tx *Txn, st *sqlparse.Insert, args []sqltypes.Value, depth int) (*Result, error) {
	t, key, err := s.dmlTableLocked(tx, st.Table, true)
	if err != nil {
		return nil, err
	}

	// Map the statement's column list to table positions.
	colIdx := make([]int, 0, len(st.Columns))
	if len(st.Columns) == 0 {
		for i := range t.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range st.Columns {
			ci := t.colIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in table %q", name, t.Name)
			}
			colIdx = append(colIdx, ci)
		}
	}

	res := &Result{}
	b := newBinder(s, tx, args)
	given := make([]bool, len(t.Columns))
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(exprRow), len(colIdx))
		}
		row := make(sqltypes.Row, len(t.Columns))
		for i := range given {
			given[i] = false
		}
		for vi, e := range exprRow {
			v, err := b.constLocked(e)
			if err != nil {
				return nil, err
			}
			row[colIdx[vi]] = v
			given[colIdx[vi]] = true
		}
		for i, c := range t.Columns {
			if given[i] && !row[i].IsNull() {
				continue
			}
			switch {
			case c.AutoIncrement:
				// Non-transactional counter: advanced even if the txn
				// later rolls back (§4.3.2).
				t.autoInc++
				row[i] = sqltypes.NewInt(t.autoInc)
				res.LastInsertID = t.autoInc
			case !given[i] && c.Default != nil:
				v, err := b.constLocked(c.Default)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		for i, c := range t.Columns {
			cv, err := coerce(c, row[i])
			if err != nil {
				return nil, err
			}
			row[i] = cv
		}
		if err := s.uniqueViolationLocked(tx, key, t, row, -1); err != nil {
			return nil, err
		}
		if t.Temp {
			// Temp tables are session-private and non-transactional in
			// this engine; apply immediately and skip the write set.
			id := t.nextRowID
			t.nextRowID++
			t.newChain(id, rowVersion{data: row})
			t.indexPK(row, id)
			tx.usedTempTables = true
		} else {
			id := t.nextRowID
			t.nextRowID++
			tx.ov(key)[id] = &overlayEntry{data: row, inserted: true}
			if t.pkCol >= 0 {
				tx.indexOverlayPK(key, id, row[t.pkCol])
			}
			tx.ops = append(tx.ops, pendingOp{key: key, rowID: id, kind: WriteInsert})
		}
		res.RowsAffected++
		if err := s.fireTriggersLocked(tx, key, "INSERT", depth); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (s *Session) execUpdateLocked(tx *Txn, st *sqlparse.Update, args []sqltypes.Value, depth int) (*Result, error) {
	t, key, err := s.dmlTableLocked(tx, st.Table, true)
	if err != nil {
		return nil, err
	}
	b := newBinder(s, tx, args)
	b.addTable(t, "", st.Table.Name)
	where, err := b.bindOptLocked(st.Where)
	if err != nil {
		return nil, err
	}
	setIdx := make([]int, len(st.Set))
	setVal := make([]*bexpr, len(st.Set))
	changedKey := false // re-check uniqueness if a key column changes
	for i, a := range st.Set {
		ci := t.colIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in table %q", a.Column, t.Name)
		}
		setIdx[i] = ci
		changedKey = changedKey || t.Columns[ci].PrimaryKey || t.Columns[ci].Unique
		if setVal[i], err = b.bindLocked(a.Value); err != nil {
			return nil, err
		}
	}

	// All of WHERE is evaluated before the first row changes.
	rows, err := s.filterLocked(b, tx, key, t, where, s.getScanBuf())
	defer func() { s.putScanBuf(rows) }()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, sr := range rows {
		if !t.Temp && s.iso != Serializable {
			if err := s.eng.lockRow(tx, t, sr.rowID); err != nil {
				return nil, err
			}
			// The row may have changed while we waited. Read-committed
			// re-reads the latest committed version and re-evaluates the
			// bound predicate on it; snapshot isolation proceeds and relies
			// on first-committer-wins at commit.
			if tx.iso == ReadCommitted {
				if v := t.chain(sr.rowID); v != nil {
					latest := v.visible(s.eng.clock)
					if latest == nil {
						continue // deleted meanwhile
					}
					sr.data = latest.data
					if ok, err := b.matches(where, sr.data); err != nil {
						return nil, err
					} else if !ok {
						s.eng.releaseRow(tx, t, sr.rowID)
						continue
					}
				}
			}
		}
		newRow := sr.data.Clone()
		for i, ci := range setIdx {
			v, err := b.eval(setVal[i], sr.data)
			if err != nil {
				return nil, err
			}
			if newRow[ci], err = coerce(t.Columns[ci], v); err != nil {
				return nil, err
			}
		}
		if changedKey {
			if err := s.uniqueViolationLocked(tx, key, t, newRow, sr.rowID); err != nil {
				return nil, err
			}
		}
		if t.Temp {
			chain := t.chain(sr.rowID)
			chain.versions[len(chain.versions)-1].data = newRow
			// Temp updates apply in place with no MVCC history, so move
			// the index entry rather than accumulating one per former key.
			t.unindexPK(sr.data, sr.rowID)
			t.indexPK(newRow, sr.rowID)
			tx.usedTempTables = true
		} else {
			ent := tx.ov(key)[sr.rowID]
			if ent == nil {
				ent = &overlayEntry{before: sr.data}
				tx.ov(key)[sr.rowID] = ent
			}
			ent.data = newRow
			if t.pkCol >= 0 {
				tx.indexOverlayPK(key, sr.rowID, newRow[t.pkCol])
			}
			// Rows inserted by this txn stay pending as inserts with the
			// updated image; pre-existing rows get (at most one) update op.
			if !ent.inserted && !ent.updateOpped {
				ent.updateOpped = true
				tx.ops = append(tx.ops, pendingOp{key: key, rowID: sr.rowID, kind: WriteUpdate})
			}
		}
		res.RowsAffected++
		if err := s.fireTriggersLocked(tx, key, "UPDATE", depth); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (s *Session) execDeleteLocked(tx *Txn, st *sqlparse.Delete, args []sqltypes.Value, depth int) (*Result, error) {
	t, key, err := s.dmlTableLocked(tx, st.Table, true)
	if err != nil {
		return nil, err
	}
	b := newBinder(s, tx, args)
	b.addTable(t, "", st.Table.Name)
	where, err := b.bindOptLocked(st.Where)
	if err != nil {
		return nil, err
	}
	rows, err := s.filterLocked(b, tx, key, t, where, s.getScanBuf())
	defer func() { s.putScanBuf(rows) }()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, sr := range rows {
		if t.Temp {
			t.dropChain(sr.rowID)
			// Temp deletes free the chain outright (no MVCC history), so
			// drop the index entry too or churning temp tables would grow
			// their index without bound.
			t.unindexPK(sr.data, sr.rowID)
			tx.usedTempTables = true
			res.RowsAffected++
			continue
		}
		if s.iso != Serializable {
			if err := s.eng.lockRow(tx, t, sr.rowID); err != nil {
				return nil, err
			}
		}
		ent := tx.ov(key)[sr.rowID]
		if ent == nil {
			ent = &overlayEntry{before: sr.data}
			tx.ov(key)[sr.rowID] = ent
		}
		wasInserted := ent.inserted
		ent.deleted = true
		ent.data = nil
		if !wasInserted {
			tx.ops = append(tx.ops, pendingOp{key: key, rowID: sr.rowID, kind: WriteDelete})
		}
		res.RowsAffected++
		if err := s.fireTriggersLocked(tx, key, "DELETE", depth); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// releaseRow drops a single row lock acquired by tx (used when a re-check
// after lock wait rules the row out).
func (e *Engine) releaseRow(tx *Txn, t *Table, rowID int64) {
	if t.locks[rowID] == tx.id {
		delete(t.locks, rowID)
		for i, hl := range tx.rowLocks {
			if hl.t == t && hl.rowID == rowID {
				tx.rowLocks = append(tx.rowLocks[:i], tx.rowLocks[i+1:]...)
				break
			}
		}
		e.lockWait.Broadcast()
	}
}

// fireTriggersLocked runs AFTER <event> triggers for the table (§4.1.1).
func (s *Session) fireTriggersLocked(tx *Txn, key tableKey, event string, depth int) error {
	if key.db == "" {
		return nil // temp tables have no triggers
	}
	d, err := s.eng.database(key.db)
	if err != nil {
		return nil
	}
	for _, tr := range d.triggers[key.table] {
		if tr.Event != event {
			continue
		}
		if _, err := s.execLocked(tr.Body, nil, depth+1); err != nil {
			return fmt.Errorf("engine: trigger %q: %w", tr.Name, err)
		}
	}
	return nil
}

// ---- SELECT ----

var aggregateFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

// boundItem is one bound projection of a SELECT: *, an aggregate over e
// (COUNT(*) has star set and no e), or a plain expression.
type boundItem struct {
	star bool
	agg  string // "" unless the item is COUNT/SUM/AVG/MIN/MAX(...)
	e    *bexpr
}

// execSelectLocked runs a SELECT as bind → filter → project: every expression
// is bound once against the FROM scope, filterLocked (or the join loop)
// leaves the surviving rows in a pooled buffer, and grouping, ordering and
// projection evaluate bound expressions on those rows. Only result rows are
// allocated.
func (s *Session) execSelectLocked(tx *Txn, st *sqlparse.Select, args []sqltypes.Value) (*Result, error) {
	b := newBinder(s, tx, args)
	rows := s.getScanBuf()
	defer func() { s.putScanBuf(rows) }()
	if st.NoTable {
		rows = append(rows, scanRow{}) // one row of no columns
	} else {
		t, key, err := s.dmlTableLocked(tx, st.From, st.ForUpdate)
		if err != nil {
			return nil, err
		}
		b.addTable(t, st.FromAlias, st.From.Name)
		if st.Join != nil {
			rows, err = s.joinLocked(b, tx, st, key, t, rows)
		} else {
			var where *bexpr
			if where, err = b.bindOptLocked(st.Where); err == nil {
				rows, err = s.filterLocked(b, tx, key, t, where, rows)
			}
		}
		if err != nil {
			return nil, err
		}
		if st.ForUpdate && !t.Temp && s.iso != Serializable {
			for _, sr := range rows {
				if err := s.eng.lockRow(tx, t, sr.rowID); err != nil {
					return nil, err
				}
			}
		}
	}

	res := &Result{Columns: make([]string, 0, len(st.Items))}
	items := make([]boundItem, len(st.Items))
	hasAgg := len(st.GroupBy) > 0
	for i, it := range st.Items {
		if it.Star {
			if st.NoTable {
				return nil, fmt.Errorf("engine: SELECT * requires FROM")
			}
			items[i].star = true
			for _, tab := range b.tables {
				for _, c := range tab.t.Columns {
					res.Columns = append(res.Columns, c.Name)
				}
			}
			continue
		}
		res.Columns = append(res.Columns, itemName(it))
		arg := it.Expr
		if f, ok := it.Expr.(*sqlparse.FuncExpr); ok && aggregateFuncs[f.Name] {
			hasAgg = true
			items[i].agg, items[i].star = f.Name, f.Name == "COUNT" && f.Star
			if items[i].star {
				continue
			}
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("engine: %s wants one argument", f.Name)
			}
			arg = f.Args[0]
		}
		var err error
		if items[i].e, err = b.bindLocked(arg); err != nil {
			return nil, err
		}
	}
	if hasAgg {
		groupBy, err := b.bindAllLocked(st.GroupBy)
		if err != nil {
			return nil, err
		}
		if res.Rows, err = b.aggregate(items, groupBy, rows); err != nil {
			return nil, err
		}
		res.Rows = applyLimit(res.Rows, st)
		return res, nil
	}

	// ORDER BY evaluates in row scope (pre-projection).
	if len(st.OrderBy) > 0 {
		if err := b.sortRowsLocked(rows, st.OrderBy); err != nil {
			return nil, err
		}
	}
	window := rows
	if !st.Distinct {
		window = applyLimit(rows, st)
	}
	// One backing array holds every result row; the full slice expressions
	// keep an append on one row from running into the next.
	vals := make(sqltypes.Row, 0, len(window)*len(res.Columns))
	res.Rows = make([]sqltypes.Row, 0, len(window))
	for _, sr := range window {
		start := len(vals)
		for _, it := range items {
			if it.star {
				vals = append(vals, sr.data...)
				continue
			}
			v, err := b.eval(it.e, sr.data)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		res.Rows = append(res.Rows, vals[start:len(vals):len(vals)])
	}
	if st.Distinct {
		distinct := rowSet{head: make(map[uint64]int)}
		for _, r := range res.Rows {
			distinct.intern(r)
		}
		res.Rows = applyLimit(distinct.rows, st)
	}
	return res, nil
}

// bindAllLocked binds a list of expressions (GROUP BY keys).
func (b *binder) bindAllLocked(exprs []sqlparse.Expr) ([]*bexpr, error) {
	out := make([]*bexpr, len(exprs))
	for i, e := range exprs {
		var err error
		if out[i], err = b.bindLocked(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// joinLocked appends to out the inner join of t (already in b's scope) with
// st.Join's table: nested loops over one scratch row holding the current
// pair, on which ON and WHERE are evaluated bound; only a surviving pair is
// copied. A joined row carries the FROM side's rowID, for FOR UPDATE.
func (s *Session) joinLocked(b *binder, tx *Txn, st *sqlparse.Select, key tableKey, t *Table, out []scanRow) ([]scanRow, error) {
	t2, key2, err := s.lookupTableLocked(st.Join.Table)
	if err != nil {
		return out, err
	}
	if s.iso == Serializable && !t2.Temp {
		if err := s.eng.lockTable(tx, t2, false); err != nil {
			return out, err
		}
	}
	b.addTable(t2, st.Join.Alias, st.Join.Table.Name)
	on, err := b.bindLocked(st.Join.On)
	if err != nil {
		return out, err
	}
	where, err := b.bindOptLocked(st.Where)
	if err != nil {
		return out, err
	}
	left, _ := s.filterLocked(nil, tx, key, t, nil, s.getScanBuf()) // no predicate, so no error
	defer s.putScanBuf(left)
	right, _ := s.filterLocked(nil, tx, key2, t2, nil, s.getScanBuf())
	defer s.putScanBuf(right)
	pair := make(sqltypes.Row, len(t.Columns)+len(t2.Columns))
	for _, lr := range left {
		copy(pair, lr.data)
		for _, rr := range right {
			copy(pair[len(t.Columns):], rr.data)
			ok, err := b.matches(on, pair)
			if ok && err == nil {
				ok, err = b.matches(where, pair)
			}
			if err != nil {
				return out, err
			}
			if ok {
				out = append(out, scanRow{rowID: lr.rowID, data: pair.Clone()})
			}
		}
	}
	return out, nil
}

// rowSet collects distinct rows in first-seen order. Rows are looked up by
// hash but compared value by value on a hit, so two different rows that
// collide stay two rows. head and next chain the rows of one hash, as
// positions + 1 in rows.
type rowSet struct {
	rows []sqltypes.Row
	head map[uint64]int
	next []int
}

// intern returns the position of r in the set, adding it when no equal row
// (same kinds, equal values, NULL equal to NULL) is there yet.
func (rs *rowSet) intern(r sqltypes.Row) (pos int, added bool) {
	h := sqltypes.HashRow(r)
next:
	for i := rs.head[h]; i > 0; i = rs.next[i-1] {
		for c, v := range rs.rows[i-1] {
			if v.Kind() != r[c].Kind() || !sqltypes.Equal(v, r[c]) {
				continue next
			}
		}
		return i - 1, false
	}
	rs.rows = append(rs.rows, r)
	rs.next = append(rs.next, rs.head[h])
	rs.head[h] = len(rs.rows)
	return len(rs.rows) - 1, true
}

// aggregate computes GROUP BY / aggregate projections over rows.
func (b *binder) aggregate(items []boundItem, groupBy []*bexpr, rows []scanRow) ([]sqltypes.Row, error) {
	keys := rowSet{head: make(map[uint64]int)}
	var groups [][]sqltypes.Row // rows of each group, parallel to keys.rows
	key := make(sqltypes.Row, len(groupBy))
	for _, sr := range rows {
		for i, g := range groupBy {
			var err error
			if key[i], err = b.eval(g, sr.data); err != nil {
				return nil, err
			}
		}
		gi, added := keys.intern(key)
		if added {
			groups = append(groups, nil)
			key = make(sqltypes.Row, len(groupBy)) // the set kept the old one
		}
		groups[gi] = append(groups[gi], sr.data)
	}
	if len(groups) == 0 && len(groupBy) == 0 {
		groups = append(groups, nil) // aggregates over an empty set yield one row
	}
	out := make([]sqltypes.Row, 0, len(groups))
	for _, grp := range groups {
		row := make(sqltypes.Row, len(items))
		for i, it := range items {
			if it.star && it.agg == "" {
				return nil, fmt.Errorf("engine: * not allowed with aggregates")
			}
			var err error
			if row[i], err = b.aggregateItem(it, grp); err != nil {
				return nil, err
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// aggregateItem computes one item over a group; a non-aggregate expression
// evaluates on the group's first row. NULLs are skipped.
func (b *binder) aggregateItem(it boundItem, rows []sqltypes.Row) (sqltypes.Value, error) {
	switch {
	case it.star:
		return sqltypes.NewInt(int64(len(rows))), nil
	case it.agg == "" && len(rows) == 0:
		return sqltypes.Null, nil
	case it.agg == "":
		return b.eval(it.e, rows[0])
	}
	var n, si int64
	var sf float64
	var best sqltypes.Value
	isFloat := false
	for _, r := range rows {
		v, err := b.eval(it.e, r)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			continue
		}
		switch it.agg {
		case "SUM", "AVG":
			isFloat = isFloat || v.Kind() == sqltypes.KindFloat
			si += v.Int()
			sf += v.Float()
		case "MIN", "MAX":
			if c := sqltypes.Compare(v, best); n == 0 || (it.agg == "MIN" && c < 0) || (it.agg == "MAX" && c > 0) {
				best = v
			}
		}
		n++
	}
	switch {
	case it.agg == "COUNT":
		return sqltypes.NewInt(n), nil
	case n == 0:
		return sqltypes.Null, nil
	case it.agg == "AVG":
		return sqltypes.NewFloat(sf / float64(n)), nil
	case it.agg == "SUM" && isFloat:
		return sqltypes.NewFloat(sf), nil
	case it.agg == "SUM":
		return sqltypes.NewInt(si), nil
	}
	return best, nil
}

func itemName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.SQL()
}

// sortRowsLocked orders rows by the ORDER BY keys, bound in b's scope.
func (b *binder) sortRowsLocked(rows []scanRow, order []sqlparse.OrderItem) error {
	keys := make([]*bexpr, len(order))
	for i, o := range order {
		var err error
		if keys[i], err = b.bindLocked(o.Expr); err != nil {
			return err
		}
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range keys {
			vi, err := b.eval(key, rows[i].data)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := b.eval(key, rows[j].data)
			if err != nil {
				sortErr = err
				return false
			}
			c := sqltypes.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// applyLimit cuts rows down to the statement's OFFSET / LIMIT window.
func applyLimit[T any](rows []T, st *sqlparse.Select) []T {
	if st.Offset > 0 {
		if st.Offset >= int64(len(rows)) {
			return nil
		}
		rows = rows[st.Offset:]
	}
	if st.Limit >= 0 && int64(len(rows)) > st.Limit {
		rows = rows[:st.Limit]
	}
	return rows
}

func toLower(s string) string {
	// Scan before converting: the common case (already lower-case, the
	// norm for column names in hot statements) must not allocate.
	lower := true
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	b := []byte(s)
	changed := false
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}
