package engine

import (
	"fmt"
	"sort"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// Database is one database instance inside an engine (CREATE DATABASE).
type Database struct {
	Name       string
	tables     map[string]*Table
	sequences  map[string]*Sequence
	triggers   map[string][]*Trigger // key: table name (lower-cased)
	procedures map[string]*Procedure
}

func newDatabase(name string) *Database {
	return &Database{
		Name:       name,
		tables:     make(map[string]*Table),
		sequences:  make(map[string]*Sequence),
		triggers:   make(map[string][]*Trigger),
		procedures: make(map[string]*Procedure),
	}
}

// TableNames returns the sorted table names of the database.
func (d *Database) TableNames() []string {
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Column describes one column of a table.
type Column struct {
	Name          string
	Type          sqltypes.Kind
	PrimaryKey    bool
	Unique        bool
	AutoIncrement bool
	NotNull       bool
	Default       sqlparse.Expr // evaluated at insert time; may be nil
}

// Sequence is a named, non-transactional number generator (§4.2.3). Values
// handed out are never reclaimed: rollback leaves holes.
type Sequence struct {
	Name      string
	Next      int64
	Increment int64
}

// Trigger fires a statement after row events on a table (§4.1.1: commonly
// used to update a different reporting database instance).
type Trigger struct {
	Name  string
	Event string // INSERT, UPDATE, DELETE
	Table string
	Body  sqlparse.Statement
}

// Procedure is a stored procedure: named parameters plus a statement list
// (§4.2.1). Deterministic marks procedures safe for statement replication;
// the default is false because no schema describes a procedure's behaviour.
type Procedure struct {
	Name          string
	Params        []string
	Body          []sqlparse.Statement
	Deterministic bool
}

// rowVersion is one MVCC version of a row. createdTS/deletedTS are logical
// commit timestamps; deletedTS == 0 means live.
type rowVersion struct {
	createdTS uint64
	deletedTS uint64
	data      sqltypes.Row
}

// rowChain is the version history of a single row identity.
type rowChain struct {
	versions []rowVersion // ascending createdTS
}

// visible returns the version of the chain visible at snapshot ts, or nil.
func (c *rowChain) visible(ts uint64) *rowVersion {
	for i := len(c.versions) - 1; i >= 0; i-- {
		v := &c.versions[i]
		if v.createdTS <= ts {
			if v.deletedTS != 0 && v.deletedTS <= ts {
				return nil
			}
			return v
		}
	}
	return nil
}

// Table stores rows as MVCC version chains keyed by an internal rowID.
type Table struct {
	Name    string
	Columns []Column
	Temp    bool

	pkCol int // index of primary key column, -1 if none
	// uniqueCols lists the positions carrying PK/UNIQUE constraints, and
	// pkOnlyUnique marks the common case (the primary key is the only
	// one) whose per-insert check is an O(1) index probe.
	uniqueCols   []int
	pkOnlyUnique bool

	// colsLower maps lower-cased column name -> position. Built once at
	// table creation (Columns never changes afterwards); binding resolves
	// each column reference through it once per statement.
	colsLower map[string]int

	// pkIndex maps HashValue(pk) -> rowIDs whose chain ever committed a
	// version with that primary key; see pkindex.go for the semantics.
	pkIndex map[uint64][]int64

	rows       map[int64]*rowChain
	rowOrder   []int64 // insertion order, for stable scans
	nextRowID  int64
	autoInc    int64            // non-transactional (§4.3.2)
	lastWriter map[int64]uint64 // rowID -> commitTS of last committed writer

	// locks maps rowID -> owning txn id for row write locks.
	locks map[int64]uint64

	// table-level 2PL state for Serializable sessions.
	tlockOwner   uint64          // txn holding exclusive lock, 0 if none
	tlockReaders map[uint64]bool // txns holding shared locks
}

func newTable(name string, cols []Column, temp bool) *Table {
	pk := -1
	var unique []int
	for i, c := range cols {
		if c.PrimaryKey && pk < 0 {
			pk = i
		}
		if c.PrimaryKey || c.Unique {
			unique = append(unique, i)
		}
	}
	colsLower := make(map[string]int, len(cols))
	for i, c := range cols {
		lower := toLower(c.Name)
		if _, dup := colsLower[lower]; !dup {
			colsLower[lower] = i
		}
	}
	return &Table{
		Name:         name,
		Columns:      cols,
		Temp:         temp,
		pkCol:        pk,
		uniqueCols:   unique,
		pkOnlyUnique: pk >= 0 && len(unique) == 1 && unique[0] == pk,
		colsLower:    colsLower,
		pkIndex:      make(map[uint64][]int64),
		rows:         make(map[int64]*rowChain),
		lastWriter:   make(map[int64]uint64),
		locks:        make(map[int64]uint64),
		tlockReaders: make(map[uint64]bool),
	}
}

// colIndex returns the position of column name, or -1. Case-insensitive via
// the colsLower map — an O(1) probe instead of an equalFold scan.
func (t *Table) colIndex(name string) int {
	if i, ok := t.colsLower[toLower(name)]; ok {
		return i
	}
	return -1
}

// pkValue extracts the primary key value of a row, if the table has one.
func (t *Table) pkValue(row sqltypes.Row) (sqltypes.Value, bool) {
	if t.pkCol < 0 {
		return sqltypes.Null, false
	}
	return row[t.pkCol], true
}

// findByPK returns the rowID whose visible-at-ts version has the given
// primary key, or -1. It consults the pk index instead of scanning rowOrder,
// re-verifying each candidate against the visible version (pkindex.go).
func (t *Table) findByPK(pk sqltypes.Value, ts uint64) int64 {
	for _, id := range t.pkIndex[sqltypes.HashValue(pk)] {
		c := t.rows[id]
		if c == nil {
			continue
		}
		if v := c.visible(ts); v != nil && sqltypes.Equal(v.data[t.pkCol], pk) {
			return id
		}
	}
	return -1
}

// equalFold is a cheap ASCII case-insensitive compare (identifiers only).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// createDatabaseLocked adds a database instance. Caller holds e.mu.
func (e *Engine) createDatabaseLocked(name string, ifNotExists bool) error {
	if _, ok := e.databases[name]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("engine: database %q already exists", name)
	}
	e.databases[name] = newDatabase(name)
	return nil
}

// CreateDatabase adds a database instance to the engine.
func (e *Engine) CreateDatabase(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.createDatabaseLocked(name, false)
}

// TableChecksum returns a content checksum of a table: the XOR of row
// hashes of the latest committed state plus a hash of the row count. Used
// by the middleware's divergence detector.
func (e *Engine) TableChecksum(db, table string) (uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, err := e.database(db)
	if err != nil {
		return 0, err
	}
	t, ok := d.tables[table]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q.%q", db, table)
	}
	ts := e.clock
	var sum uint64
	var n uint64
	for _, id := range t.rowOrder {
		if v := t.rows[id].visible(ts); v != nil {
			sum ^= sqltypes.HashRow(v.data)
			n++
		}
	}
	return sum ^ (n * 0x9e3779b97f4a7c15), nil
}

// DatabaseChecksum folds all table checksums of a database together.
func (e *Engine) DatabaseChecksum(db string) (uint64, error) {
	e.mu.RLock()
	d, err := e.database(db)
	if err != nil {
		e.mu.RUnlock()
		return 0, err
	}
	names := d.TableNames()
	e.mu.RUnlock()
	var sum uint64
	for _, n := range names {
		c, err := e.TableChecksum(db, n)
		if err != nil {
			return 0, err
		}
		sum ^= c + sqltypes.HashValue(sqltypes.NewString(n))
	}
	return sum, nil
}

// RowCount returns the number of live rows in a table at the latest
// committed state.
func (e *Engine) RowCount(db, table string) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, err := e.database(db)
	if err != nil {
		return 0, err
	}
	t, ok := d.tables[table]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q.%q", db, table)
	}
	n := 0
	for _, id := range t.rowOrder {
		if t.rows[id].visible(e.clock) != nil {
			n++
		}
	}
	return n, nil
}
