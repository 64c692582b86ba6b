package engine

import (
	"errors"
	"fmt"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// ErrNoWriteSet is ApplyEvents' refusal of an event without a write set:
// statement text alone, such as an entry of a recovery log written before
// entries held write sets. Every binlog event carries a write set (a DDL
// event's is empty), and re-running DML text is not deterministic, so such an
// event is never applied.
var ErrNoWriteSet = errors.New("engine: event carries no write set")

// ApplyEvents applies another engine's committed binlog events, in order,
// under a single engine lock acquisition: the one way a replica applies what
// another engine committed. A DDL event executes its statement, as the
// origin's user in the origin's database; every other event applies its
// write set by primary key, moving auto-increment counters past the applied
// keys and sequences to the positions the write set recorded, which closes
// §4.3.2's gap. Each event commits as one transaction whose own binlog event
// carries the origin's statements, user and database (and *WriteSet), so a
// log recorded from this engine after it is promoted holds the same entries
// the origin's would. An event with an empty write set still commits,
// keeping binlog positions aligned one-event-one-commit with the origin.
//
// It returns how many events were applied; on error the failing event is
// rolled back and the events before it remain committed.
func (e *Engine) ApplyEvents(evs []Event) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		var err error
		switch {
		case ev.WriteSet == nil:
			err = fmt.Errorf("engine: apply event %d: %w", ev.Seq, ErrNoWriteSet)
		case ev.DDL:
			err = e.applyDDLLocked(ev)
		default:
			err = e.applyWriteSetLocked(ev)
		}
		if err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// applyDDLLocked executes a DDL event's one statement in a session that
// stands where the origin's did: its user, its current database. No USE is
// run, so a database the origin had selected but this engine lacks fails
// only a statement that resolves a name through it, with the engine's own
// unknown-database error. Only DDL text is executed here. Caller holds e.mu
// exclusively.
func (e *Engine) applyDDLLocked(ev *Event) error {
	if len(ev.Stmts) != 1 {
		return fmt.Errorf("engine: apply DDL event %d: %d statements, want 1", ev.Seq, len(ev.Stmts))
	}
	st, err := sqlparse.ParseCached(ev.Stmts[0])
	if err != nil {
		return err
	}
	if !sqlparse.IsDDL(st) {
		return fmt.Errorf("engine: apply DDL event %d: %q is not DDL", ev.Seq, ev.Stmts[0])
	}
	s := e.NewSession(ev.User)
	s.currentDB = ev.Database
	_, err = s.execLocked(st, nil, 0)
	return err
}

// applyWriteSetLocked applies one event's write set as one transaction,
// logged as the event (see commitLocked). Caller holds e.mu exclusively.
func (e *Engine) applyWriteSetLocked(origin *Event) error {
	ws := origin.WriteSet
	tx := e.beginTxnLocked(ReadCommitted)
	for _, op := range ws.Ops {
		if err := e.applyOpLocked(tx, op); err != nil {
			e.rollbackLocked(tx)
			return err
		}
	}
	e.advanceSequencesLocked(ws.Sequences)
	_, _, err := e.commitLocked(tx, nil, origin)
	return err
}

// advanceSequencesLocked moves each named sequence that exists here to the
// origin's position, unless it already stands at or beyond it. Caller holds
// e.mu exclusively.
func (e *Engine) advanceSequencesLocked(pos []SequencePos) {
	for _, p := range pos {
		d, ok := e.databases[p.Database]
		if !ok {
			continue
		}
		seq, ok := d.sequences[p.Name]
		if !ok {
			continue
		}
		if (seq.Increment >= 0 && p.Next > seq.Next) || (seq.Increment < 0 && p.Next < seq.Next) {
			seq.Next = p.Next
		}
	}
}

// takeMovedSequencesLocked returns the current positions of the sequences
// NEXTVAL moved since the previous call and forgets them.
// Caller holds e.mu exclusively.
func (e *Engine) takeMovedSequencesLocked() []SequencePos {
	if len(e.movedSeqs) == 0 {
		return nil
	}
	out := make([]SequencePos, 0, len(e.movedSeqs))
	for k := range e.movedSeqs {
		if d, ok := e.databases[k.db]; ok {
			if seq, ok := d.sequences[k.name]; ok {
				out = append(out, SequencePos{Database: k.db, Name: k.name, Next: seq.Next})
			}
		}
		delete(e.movedSeqs, k)
	}
	return out
}

func (e *Engine) applyOpLocked(tx *Txn, op WriteOp) error {
	key := tableKey{db: op.Database, table: op.Table}
	t, err := e.resolveTableLocked(key)
	if err != nil {
		return err
	}
	locate := func() (int64, error) {
		if op.HasPK && t.pkCol >= 0 {
			// op.PK identifies the row by its after image; a pk-changing
			// UPDATE must find the row under the key it still has on this
			// replica — the before image's.
			pk := op.PK
			if op.Kind != WriteInsert && op.Before != nil {
				pk = op.Before[t.pkCol]
			}
			// Search overlay-aware current state through the overlay pk
			// index (linear overlay walks would make batch apply O(n²)).
			ov := tx.overlay[key]
			var buf [1]int64
			for _, id := range tx.overlayPKIDs(key, sqltypes.HashValue(pk), buf[:0]) {
				if ent := ov[id]; ent != nil && ent.data != nil && sqltypes.Equal(ent.data[t.pkCol], pk) {
					return id, nil
				}
			}
			if id := t.findByPK(pk, e.clock); id >= 0 {
				return id, nil
			}
			return -1, fmt.Errorf("engine: apply: row pk=%v not found in %s.%s", pk, op.Database, op.Table)
		}
		// No PK: match the full before image (fragile by design — the
		// paper's point about write-set replication needing keys).
		for _, id := range t.rowOrder {
			if v := t.chain(id).visible(e.clock); v != nil && rowsEqual(v.data, op.Before) {
				return id, nil
			}
		}
		return -1, fmt.Errorf("engine: apply: no row matching before-image in %s.%s", op.Database, op.Table)
	}
	switch op.Kind {
	case WriteInsert:
		if op.HasPK && t.pkCol >= 0 {
			// An earlier op of this same write-set may have deleted or
			// pk-moved the committed holder (delete-then-reinsert of one
			// key) — the same overlay-aware rule commit validation uses.
			if id := t.findByPK(op.PK, e.clock); id >= 0 &&
				tx.overlayStillHolds(key, id, t.pkCol, op.PK) {
				return fmt.Errorf("%w: apply insert %s.%s pk=%v", ErrDuplicateKey, op.Database, op.Table, op.PK)
			}
		}
		id := t.nextRowID
		t.nextRowID++
		// The one copy at the engine boundary: this engine's stored version
		// must not share a backing array with the origin's image.
		tx.ov(key)[id] = &overlayEntry{data: op.After.Clone(), inserted: true}
		if t.pkCol >= 0 {
			tx.indexOverlayPK(key, id, op.After[t.pkCol])
		}
		tx.ops = append(tx.ops, pendingOp{key: key, rowID: id, kind: WriteInsert})
		for i, c := range t.Columns {
			if c.AutoIncrement && op.After[i].Kind() == sqltypes.KindInt && op.After[i].Int() > t.autoInc {
				t.autoInc = op.After[i].Int()
			}
		}
	case WriteUpdate:
		id, err := locate()
		if err != nil {
			return err
		}
		ent := tx.ov(key)[id]
		if ent == nil {
			ent = &overlayEntry{before: op.Before}
			tx.ov(key)[id] = ent
		}
		ent.data = op.After.Clone()
		if t.pkCol >= 0 {
			tx.indexOverlayPK(key, id, op.After[t.pkCol])
		}
		if !ent.inserted && !ent.updateOpped {
			ent.updateOpped = true
			tx.ops = append(tx.ops, pendingOp{key: key, rowID: id, kind: WriteUpdate})
		}
	case WriteDelete:
		id, err := locate()
		if err != nil {
			return err
		}
		ent := tx.ov(key)[id]
		if ent == nil {
			ent = &overlayEntry{before: op.Before}
			tx.ov(key)[id] = ent
		}
		wasInserted := ent.inserted
		ent.deleted = true
		ent.data = nil
		if !wasInserted {
			tx.ops = append(tx.ops, pendingOp{key: key, rowID: id, kind: WriteDelete})
		}
	}
	return nil
}

func rowsEqual(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sqltypes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
