package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sqltypes"
)

// Sentinel errors surfaced by the transaction machinery.
var (
	// ErrSerialization is returned when snapshot isolation's
	// first-committer-wins check aborts a transaction.
	ErrSerialization = errors.New("engine: could not serialize access due to concurrent update")
	// ErrLockTimeout is returned when a lock wait exceeds the configured
	// timeout — the timeout-based deadlock resolution of §4.3.2.
	ErrLockTimeout = errors.New("engine: lock wait timeout exceeded")
	// ErrTxnAborted is returned by engines with AbortTxnOnError profiles
	// for statements issued after an error inside a transaction (§4.1.2).
	ErrTxnAborted = errors.New("engine: current transaction is aborted, commands ignored until ROLLBACK")
	// ErrDuplicateKey is returned on primary key or unique violations.
	ErrDuplicateKey = errors.New("engine: duplicate key value violates unique constraint")
)

// WriteKind classifies a write-set entry.
type WriteKind uint8

// Write-set entry kinds.
const (
	WriteInsert WriteKind = iota
	WriteUpdate
	WriteDelete
)

func (k WriteKind) String() string {
	switch k {
	case WriteInsert:
		return "INSERT"
	case WriteUpdate:
		return "UPDATE"
	case WriteDelete:
		return "DELETE"
	}
	return "?"
}

// WriteOp is one row change in a transaction's write set. Rows are
// identified by primary key so the op can be applied on another replica
// (§4.3.2). HasPK is false for tables without a primary key; such ops can
// only be applied by row identity on the origin replica.
//
// A committed op's Before and After are the committing engine's own row
// images: After is the very row stored as the new version, not a copy.
// Committed images are immutable — no engine, applier or log may write
// through them — which is what lets one image serve as the stored version,
// the write-set entry and every slave's binlog event at once.
type WriteOp struct {
	Database string
	Table    string
	Kind     WriteKind
	PK       sqltypes.Value
	HasPK    bool
	Before   sqltypes.Row // nil for inserts
	After    sqltypes.Row // nil for deletes
}

// WriteSet is the ordered list of row changes of a transaction, the unit of
// transaction-based (certification) replication. Its rows do not move
// auto-increment counters, and sequence values handed out by NEXTVAL appear
// in no row at all (§4.3.2); Sequences records where each sequence stood at
// commit, and ApplyEvents moves a replica's counters and sequences to close
// that gap.
type WriteSet struct {
	Ops []WriteOp
	// Sequences lists the position at commit of every sequence NEXTVAL
	// moved on the origin engine since its previous committed write set,
	// in any session and whether or not this transaction called it.
	Sequences []SequencePos
}

// SequencePos is a sequence's next value on the origin engine at a commit.
type SequencePos struct {
	Database string
	Name     string
	Next     int64
}

// Tables returns the distinct "db.table" names touched by the write set.
func (ws *WriteSet) Tables() []string {
	seen := make(map[string]bool)
	var out []string
	for _, op := range ws.Ops {
		key := op.Database + "." + op.Table
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// Keys returns the distinct (db, table, pk-hash) identities written, used by
// certifiers to detect conflicts.
func (ws *WriteSet) Keys() []string {
	seen := make(map[string]bool)
	var out []string
	for _, op := range ws.Ops {
		var key string
		if op.HasPK {
			key = fmt.Sprintf("%s.%s#%d", op.Database, op.Table, sqltypes.HashValue(op.PK))
		} else {
			key = op.Database + "." + op.Table + "#*" // whole-table conflict
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// overlayEntry is a transaction-private pending row state.
type overlayEntry struct {
	data        sqltypes.Row // nil when deleted
	inserted    bool         // created by this txn
	deleted     bool
	before      sqltypes.Row // committed image the txn first saw, shared with its version (for write set)
	updateOpped bool         // a WriteUpdate op was already queued
}

// tableKey identifies a table across database instances.
type tableKey struct{ db, table string }

// Txn is an in-flight transaction on one engine.
type Txn struct {
	id     uint64
	snapTS uint64
	iso    IsolationLevel

	overlay map[tableKey]map[int64]*overlayEntry
	// pkOv indexes overlay entries by HashValue(pk), mirroring
	// Table.pk for the transaction's own pending rows so point
	// lookups (and the per-insert uniqueness check) never walk the whole
	// overlay — what keeps transactional bulk INSERT O(n). Entries are
	// over-approximate and re-verified against the live overlay entry on
	// every probe (pkindex.go).
	pkOv map[tableKey]*pkIndex
	// insertOrder preserves write-set ordering.
	ops []pendingOp

	rowLocks   []heldLock
	tableLocks []heldTableLock

	aborted bool
	done    bool
	// commitSeq is the binlog position the commit landed at (set by
	// commitLocked; zero for read-only or rolled-back transactions).
	commitSeq uint64

	usedTempTables bool
}

type pendingOp struct {
	key   tableKey
	rowID int64
	kind  WriteKind
}

type heldLock struct {
	t     *Table
	rowID int64
}

type heldTableLock struct {
	t         *Table
	exclusive bool
}

// ID returns the transaction id.
func (tx *Txn) ID() uint64 { return tx.id }

// overlayStillHolds reports whether committed row id — the current holder
// of pk — survives this transaction's overlay untouched, making a
// duplicate-key conflict against it real. A row the transaction deleted or
// moved to another key is no conflict. Shared by commit-time insert
// validation and write-set apply so the two sides cannot drift.
func (tx *Txn) overlayStillHolds(key tableKey, id int64, pkCol int, pk sqltypes.Value) bool {
	ent := tx.overlay[key][id]
	return ent == nil || (!ent.deleted && ent.data != nil && sqltypes.Equal(ent.data[pkCol], pk))
}

// ov returns (creating if needed) the overlay map for a table. The overlay
// itself is created by the first write, so a read-only statement pays for none.
func (tx *Txn) ov(key tableKey) map[int64]*overlayEntry {
	m, ok := tx.overlay[key]
	if !ok {
		if tx.overlay == nil {
			tx.overlay = make(map[tableKey]map[int64]*overlayEntry)
		}
		m = make(map[int64]*overlayEntry)
		tx.overlay[key] = m
	}
	return m
}

// beginTxnLocked creates a transaction. Caller holds e.mu, shared or
// exclusive — read-only implicit transactions begin on the shared path, so
// the txn id counter is atomic.
func (e *Engine) beginTxnLocked(iso IsolationLevel) *Txn {
	return &Txn{id: e.nextTxnID.Add(1), snapTS: e.clock, iso: iso}
}

// refreshSnapshotLocked advances the snapshot for read-committed statements.
func (e *Engine) refreshSnapshotLocked(tx *Txn) {
	if tx.iso == ReadCommitted {
		tx.snapTS = e.clock
	}
}

// lockRow acquires a write lock on (t, rowID) for tx, waiting up to the
// engine's lock timeout. Caller holds e.mu; the wait releases it.
func (e *Engine) lockRow(tx *Txn, t *Table, rowID int64) error {
	deadline := time.Now().Add(e.cfg.LockTimeout)
	for {
		owner, locked := t.locks[rowID]
		if !locked || owner == tx.id {
			if !locked {
				t.locks[rowID] = tx.id
				tx.rowLocks = append(tx.rowLocks, heldLock{t: t, rowID: rowID})
			}
			return nil
		}
		if time.Now().After(deadline) {
			return ErrLockTimeout
		}
		// Wait for a lock release broadcast, with a periodic wake-up so
		// the deadline is honored. sync.Cond has no timed wait, so wake
		// ourselves with a timer.
		waitDone := make(chan struct{})
		go func() {
			select {
			case <-time.After(10 * time.Millisecond):
			case <-waitDone:
			}
			e.lockWait.Broadcast()
		}()
		e.lockWait.Wait()
		close(waitDone)
	}
}

// lockTable acquires a table-level lock (2PL for serializable sessions).
// Each new grant moves the transaction's snapshot to the current clock: a
// write committed between BEGIN and the first lock on its table must be
// visible, or two read-modify-write transactions both update from the old
// value (a lost update). Tables locked earlier cannot have changed since,
// because their locks are held to commit.
func (e *Engine) lockTable(tx *Txn, t *Table, exclusive bool) error {
	// Re-entrancy: upgrade shared->exclusive if needed.
	deadline := time.Now().Add(e.cfg.LockTimeout)
	for {
		if exclusive {
			if (t.tlockOwner == 0 || t.tlockOwner == tx.id) &&
				(len(t.tlockReaders) == 0 || (len(t.tlockReaders) == 1 && t.tlockReaders[tx.id])) {
				if t.tlockOwner != tx.id {
					t.tlockOwner = tx.id
					tx.tableLocks = append(tx.tableLocks, heldTableLock{t: t, exclusive: true})
					tx.snapTS = e.clock
				}
				return nil
			}
		} else {
			if t.tlockOwner == 0 || t.tlockOwner == tx.id {
				if !t.tlockReaders[tx.id] {
					t.tlockReaders[tx.id] = true
					tx.tableLocks = append(tx.tableLocks, heldTableLock{t: t, exclusive: false})
					tx.snapTS = e.clock
				}
				return nil
			}
		}
		if time.Now().After(deadline) {
			return ErrLockTimeout
		}
		waitDone := make(chan struct{})
		go func() {
			select {
			case <-time.After(10 * time.Millisecond):
			case <-waitDone:
			}
			e.lockWait.Broadcast()
		}()
		e.lockWait.Wait()
		close(waitDone)
	}
}

// releaseLocksLocked drops all locks held by tx. Caller holds e.mu
// exclusively whenever tx actually holds locks; lock-free transactions
// (read-only commits on the shared path) return without waking waiters.
func (e *Engine) releaseLocksLocked(tx *Txn) {
	if len(tx.rowLocks) == 0 && len(tx.tableLocks) == 0 {
		return
	}
	for _, hl := range tx.rowLocks {
		if hl.t.locks[hl.rowID] == tx.id {
			delete(hl.t.locks, hl.rowID)
		}
	}
	tx.rowLocks = nil
	for _, tl := range tx.tableLocks {
		if tl.exclusive && tl.t.tlockOwner == tx.id {
			tl.t.tlockOwner = 0
		}
		delete(tl.t.tlockReaders, tx.id)
	}
	tx.tableLocks = nil
	e.lockWait.Broadcast()
}

// commitLocked validates and applies tx. Caller holds e.mu. Returns the
// commit timestamp (0 for read-only transactions) and the captured write
// set.
//
// origin is nil for a local commit. A replica applying another engine's
// event passes that event instead: the commit then logs the origin's user,
// database and *WriteSet rather than building its own, and logs an event
// even when tx changed nothing, so binlog positions stay aligned
// one-event-one-commit with the origin.
func (e *Engine) commitLocked(tx *Txn, s *Session, origin *Event) (uint64, *WriteSet, error) {
	if tx.done {
		return 0, nil, fmt.Errorf("engine: transaction already finished")
	}
	defer func() {
		tx.done = true
		e.releaseLocksLocked(tx)
	}()
	if tx.aborted {
		e.rollbackBodyLocked(tx)
		return 0, nil, ErrTxnAborted
	}
	if len(tx.ops) == 0 && origin == nil {
		return 0, &WriteSet{}, nil // read-only
	}

	// First-committer-wins for snapshot isolation: a row written by this
	// txn must not have been committed by someone else after our snapshot.
	if tx.iso == Snapshot {
		for _, op := range tx.ops {
			if op.kind == WriteInsert {
				continue
			}
			t, err := e.resolveTableLocked(op.key)
			if err != nil {
				return 0, nil, err
			}
			if c := t.chain(op.rowID); c != nil && c.lastWrite() > tx.snapTS {
				e.rollbackBodyLocked(tx)
				return 0, nil, ErrSerialization
			}
		}
	}

	commitTS := e.clock + 1

	// Validate PK uniqueness of inserts against the latest committed
	// state (covers concurrent committed inserts not visible at snapTS).
	for _, op := range tx.ops {
		if op.kind != WriteInsert {
			continue
		}
		t, err := e.resolveTableLocked(op.key)
		if err != nil {
			return 0, nil, err
		}
		ent := tx.overlay[op.key][op.rowID]
		if ent == nil || ent.deleted {
			continue
		}
		if pk, ok := t.pkValue(ent.data); ok {
			if id := t.findByPK(pk, e.clock); id >= 0 && id != op.rowID &&
				tx.overlayStillHolds(op.key, id, t.pkCol, pk) {
				e.rollbackBodyLocked(tx)
				return 0, nil, fmt.Errorf("%w: %s.%s pk=%v", ErrDuplicateKey, op.key.db, op.key.table, pk)
			}
		}
	}

	// Apply, in op order, building the write set. The overlay's rows are
	// private to tx and die with it, so each becomes the stored version
	// and the write-set image as is: one committed copy per row.
	var ws *WriteSet
	if origin == nil {
		ws = &WriteSet{Ops: make([]WriteOp, 0, len(tx.ops))}
	}
	for _, op := range tx.ops {
		t, err := e.resolveTableLocked(op.key)
		if err != nil {
			return 0, nil, err
		}
		ent := tx.overlay[op.key][op.rowID]
		if ent == nil {
			continue
		}
		wop := WriteOp{Database: op.key.db, Table: op.key.table, Kind: op.kind}
		switch op.kind {
		case WriteInsert:
			if ent.deleted { // inserted then deleted inside the txn
				continue
			}
			// op.rowID was drawn from nextRowID at insert time, so its
			// slot has never held a chain.
			t.newChain(op.rowID, rowVersion{createdTS: commitTS, data: ent.data})
			t.indexPK(ent.data, op.rowID)
			wop.After = ent.data
		case WriteUpdate:
			if ent.deleted {
				continue // superseded by a later delete op
			}
			chain := t.chain(op.rowID)
			if chain == nil {
				continue
			}
			// Terminate the currently live version and append the new one.
			if v := chain.visible(e.clock); v != nil {
				v.deletedTS = commitTS
			}
			chain.versions = append(chain.versions, rowVersion{createdTS: commitTS, data: ent.data})
			// The update may have moved the row to a new primary key; index
			// it under the new value too (the old entry stays and is ruled
			// out by the per-lookup Equal re-check).
			t.indexPK(ent.data, op.rowID)
			wop.Before = ent.before
			wop.After = ent.data
		case WriteDelete:
			chain := t.chain(op.rowID)
			if chain == nil {
				continue
			}
			if v := chain.visible(e.clock); v != nil {
				v.deletedTS = commitTS
			}
			wop.Before = ent.before
		}
		if ws == nil || t.Temp { // temp tables never replicate (§4.1.4)
			continue
		}
		// Identify the row by PK when available.
		idRow := wop.After
		if idRow == nil {
			idRow = wop.Before
		}
		if t.pkCol >= 0 && idRow != nil {
			wop.PK = idRow[t.pkCol]
			wop.HasPK = true
		}
		ws.Ops = append(ws.Ops, wop)
	}

	e.clock = commitTS
	// Record in the binlog for replication subscribers.
	ev := Event{CommitTS: commitTS, TxnID: tx.id}
	if origin != nil {
		ev.WriteSet, ev.User, ev.Database = origin.WriteSet, origin.User, origin.Database
		ws = origin.WriteSet
	} else {
		ws.Sequences = e.takeMovedSequencesLocked()
		ev.WriteSet = ws
		if s != nil {
			ev.User, ev.Database = s.user, s.currentDB
		}
	}
	tx.commitSeq = e.binlog.append(ev)
	return commitTS, ws, nil
}

// rollbackBodyLocked discards pending state (locks released by caller).
func (e *Engine) rollbackBodyLocked(tx *Txn) {
	tx.overlay = nil
	tx.pkOv = nil
	tx.ops = nil
}

// rollbackLocked aborts tx. Caller holds e.mu.
func (e *Engine) rollbackLocked(tx *Txn) {
	if tx.done {
		return
	}
	tx.done = true
	e.rollbackBodyLocked(tx)
	e.releaseLocksLocked(tx)
}

// resolveTableLocked finds a permanent table by key. Temp tables are
// session-scoped and resolved by the session, not here.
func (e *Engine) resolveTableLocked(key tableKey) (*Table, error) {
	d, err := e.database(key.db)
	if err != nil {
		return nil, err
	}
	t, ok := d.tables[key.table]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q.%q", key.db, key.table)
	}
	return t, nil
}

// PendingWriteSet captures the open transaction's write set without
// committing — the hook certification-based replication uses to broadcast
// row changes before the commit decision is known (§4.3.2). The returned
// snapshot timestamp is the transaction's MVCC snapshot.
func (s *Session) PendingWriteSet() (*WriteSet, uint64, error) {
	s.eng.mu.RLock()
	defer s.eng.mu.RUnlock()
	tx := s.txn
	if tx == nil {
		return nil, 0, fmt.Errorf("engine: no transaction in progress")
	}
	if tx.aborted {
		return nil, 0, ErrTxnAborted
	}
	ws := &WriteSet{}
	for _, op := range tx.ops {
		t, err := s.eng.resolveTableLocked(op.key)
		if err != nil {
			return nil, 0, err
		}
		ent := tx.overlay[op.key][op.rowID]
		if ent == nil {
			continue
		}
		wop := WriteOp{Database: op.key.db, Table: op.key.table, Kind: op.kind}
		switch op.kind {
		case WriteInsert:
			if ent.deleted {
				continue
			}
			wop.After = ent.data.Clone()
		case WriteUpdate:
			if ent.deleted {
				continue
			}
			wop.Before = ent.before.Clone()
			wop.After = ent.data.Clone()
		case WriteDelete:
			wop.Before = ent.before.Clone()
		}
		var idRow sqltypes.Row
		if wop.After != nil {
			idRow = wop.After
		} else {
			idRow = wop.Before
		}
		if t.pkCol >= 0 && idRow != nil {
			wop.PK = idRow[t.pkCol]
			wop.HasPK = true
		}
		if !t.Temp {
			ws.Ops = append(ws.Ops, wop)
		}
	}
	return ws, tx.snapTS, nil
}

// Rollback aborts the session's open transaction, if any. It is the
// programmatic form of executing ROLLBACK and never fails.
func (s *Session) Rollback() {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if s.txn != nil {
		s.eng.rollbackLocked(s.txn)
		s.txn = nil
	}
}
