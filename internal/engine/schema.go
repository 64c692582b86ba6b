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
// (§4.2.1).
type Procedure struct {
	Name   string
	Params []string
	Body   []sqlparse.Statement
}

// rowVersion is one MVCC version of a row. createdTS/deletedTS are logical
// commit timestamps; deletedTS == 0 means live.
type rowVersion struct {
	createdTS uint64
	deletedTS uint64
	data      sqltypes.Row
}

// rowChain is the version history of a single row identity. Chains live
// inline in their table's row pages (see rowPage), never as heap objects of
// their own; a chain with no versions is an empty slot.
type rowChain struct {
	versions []rowVersion // ascending createdTS
}

// rowPageSize is the number of row slots per rowPage.
const rowPageSize = 256

// rowPage holds the chains of rowPageSize consecutive rowIDs, plus a slab
// holding each chain's first version. Most rows are written once, so most
// chains never leave the slab: a committed row costs the page a slot and
// the garbage collector nothing beyond the row's own data.
//
// A new chain's versions is a cap-1 window on its slab slot. The first
// later append (an UPDATE's new version) therefore cannot grow in place: it
// moves the chain to an array of its own, so a chain never writes into a
// neighbour's slot and committed images stay where readers found them. Only
// the deletedTS of the slot's version changes in place, as it would in any
// array.
type rowPage struct {
	chains [rowPageSize]rowChain
	first  [rowPageSize]rowVersion
	used   int // slots whose chain has a version
}

// lastWrite returns the commit timestamp of the latest committed write to
// the row: the newest version's creation, or its deletion when that came
// later. Snapshot isolation's first-committer-wins check compares it with
// the committing transaction's snapshot.
func (c *rowChain) lastWrite() uint64 {
	if len(c.versions) == 0 {
		return 0
	}
	v := c.versions[len(c.versions)-1]
	return max(v.createdTS, v.deletedTS)
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
// RowIDs are dense (nextRowID only grows), so the chains sit in fixed-size
// pages indexed by rowID / rowPageSize instead of a map: a row lookup is two
// slice indexes, and the chains of n rows are n/rowPageSize heap objects,
// not two or three per row. rowOrder, not page order, defines scan order.
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

	// pk maps HashValue(pk) -> rowIDs whose chain ever committed a version
	// with that primary key; see pkindex.go for the semantics.
	pk pkIndex

	pages     []*rowPage // page i holds rowIDs [i*rowPageSize, (i+1)*rowPageSize); nil when empty
	rowOrder  []int64    // insertion order, for stable scans
	nextRowID int64
	autoInc   int64 // non-transactional (§4.3.2)

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
		locks:        make(map[int64]uint64),
		tlockReaders: make(map[uint64]bool),
	}
}

// chain returns the version chain of row id, or nil when the row has no
// committed version (never committed, or a freed temp-table row).
func (t *Table) chain(id int64) *rowChain {
	if p := id / rowPageSize; p < int64(len(t.pages)) && t.pages[p] != nil {
		if c := &t.pages[p].chains[id%rowPageSize]; len(c.versions) > 0 {
			return c
		}
	}
	return nil
}

// newChain stores v as the first version of row id, whose slot must be
// empty, and appends id to the scan order.
func (t *Table) newChain(id int64, v rowVersion) {
	p := id / rowPageSize
	for int64(len(t.pages)) <= p {
		t.pages = append(t.pages, nil)
	}
	pg := t.pages[p]
	if pg == nil {
		pg = new(rowPage)
		t.pages[p] = pg
	}
	i := id % rowPageSize
	pg.first[i] = v
	pg.chains[i].versions = pg.first[i : i+1 : i+1]
	pg.used++
	t.rowOrder = append(t.rowOrder, id)
}

// dropChain frees row id's chain outright and removes it from the scan
// order. Only temp tables, which keep no MVCC history, free chains; clearing
// the slab slot and releasing an emptied page keeps a churning temp table
// from pinning the rows it deleted.
func (t *Table) dropChain(id int64) {
	p, i := id/rowPageSize, id%rowPageSize
	pg := t.pages[p]
	pg.chains[i] = rowChain{}
	pg.first[i] = rowVersion{}
	if pg.used--; pg.used == 0 {
		t.pages[p] = nil
	}
	for j, x := range t.rowOrder {
		if x == id {
			t.rowOrder = append(t.rowOrder[:j], t.rowOrder[j+1:]...)
			break
		}
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
	var buf [1]int64
	for _, id := range t.pk.ids(sqltypes.HashValue(pk), buf[:0]) {
		c := t.chain(id)
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
		if v := t.chain(id).visible(ts); v != nil {
			sum ^= sqltypes.HashRow(v.data)
			n++
		}
	}
	return sum ^ (n * 0x9e3779b97f4a7c15), nil
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
		if t.chain(id).visible(e.clock) != nil {
			n++
		}
	}
	return n, nil
}
