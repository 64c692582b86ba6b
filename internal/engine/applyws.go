package engine

import (
	"errors"
	"fmt"

	"repro/internal/sqltypes"
)

// ErrNoWriteSet is ApplyEvents' refusal of an event without a write set:
// DDL, which the caller must execute, or statement text alone, such as an
// entry of a recovery log written before entries held write sets. Re-running
// such text is not deterministic, so it is never applied.
var ErrNoWriteSet = errors.New("engine: event carries no write set")

// ApplyOptions tunes write-set application on a replica.
type ApplyOptions struct {
	// AdvanceCounters additionally bumps auto-increment counters past any
	// applied key values and moves sequences to the write set's recorded
	// positions. Off by default, reproducing the §4.3.2 gap: "writeset
	// extraction does not capture changes like auto-incremented keys [or]
	// sequence values", so a later local insert on this replica can collide
	// with a remotely generated key.
	AdvanceCounters bool
}

// ApplyWriteSet applies a replicated transaction's row changes to this
// engine, identifying rows by primary key. The application is itself a
// transaction: it commits atomically, appears in the binlog, and bumps the
// commit clock.
func (e *Engine) ApplyWriteSet(ws *WriteSet, opts ApplyOptions) error {
	if ws == nil || len(ws.Ops) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyWriteSetLocked(ws, opts, nil)
}

// ApplyWriteSets applies a batch of replicated transactions under a single
// engine lock acquisition — the group-commit form of write-set apply. Each
// write-set still commits as its own transaction, with its own commit
// timestamp and binlog event; nil or empty write-sets are skipped.
//
// It returns how many write-sets of the batch were applied. On error the
// failing write-set is rolled back and application stops; write-sets before
// it remain committed, so the caller can advance its replication position
// to the last applied event before surfacing the error.
func (e *Engine) ApplyWriteSets(wss []*WriteSet, opts ApplyOptions) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, ws := range wss {
		if ws == nil || len(ws.Ops) == 0 {
			continue
		}
		if err := e.applyWriteSetLocked(ws, opts, nil); err != nil {
			return i, err
		}
	}
	return len(wss), nil
}

// ApplyEvents applies another engine's committed non-DDL binlog events, in
// order, under a single engine lock acquisition: the slave apply path.
// Each event commits as one transaction whose own binlog event carries the
// origin's statements, user, database and *WriteSet, so a log recorded from
// this engine after it is promoted holds the same entries the origin's
// would. An event with an empty write set still commits, keeping binlog
// positions aligned one-event-one-commit with the origin.
//
// It returns how many events were applied; on error the failing event is
// rolled back and the events before it remain committed.
func (e *Engine) ApplyEvents(evs []Event, opts ApplyOptions) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range evs {
		if evs[i].DDL || evs[i].WriteSet == nil {
			return i, fmt.Errorf("engine: apply event %d: %w", evs[i].Seq, ErrNoWriteSet)
		}
		if err := e.applyWriteSetLocked(evs[i].WriteSet, opts, &evs[i]); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// applyWriteSetLocked applies one write-set as one transaction, logged as
// origin when that is non-nil (see commitLocked). Caller holds e.mu
// exclusively.
func (e *Engine) applyWriteSetLocked(ws *WriteSet, opts ApplyOptions, origin *Event) error {
	tx := e.beginTxnLocked(ReadCommitted)
	for _, op := range ws.Ops {
		if err := e.applyOpLocked(tx, op, opts); err != nil {
			e.rollbackLocked(tx)
			return err
		}
	}
	if opts.AdvanceCounters {
		e.advanceSequencesLocked(ws.Sequences)
	}
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

func (e *Engine) applyOpLocked(tx *Txn, op WriteOp, opts ApplyOptions) error {
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
		if opts.AdvanceCounters {
			for i, c := range t.Columns {
				if c.AutoIncrement && op.After[i].Kind() == sqltypes.KindInt && op.After[i].Int() > t.autoInc {
					t.autoInc = op.After[i].Int()
				}
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
