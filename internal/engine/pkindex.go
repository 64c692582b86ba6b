package engine

import "repro/internal/sqltypes"

// This file implements the primary-key point-lookup fast path: a per-table
// hash index from primary-key value to internal rowIDs, plus the planner
// check that turns `WHERE pk = <constant|param>` SELECT/UPDATE/DELETE into
// an O(1) MVCC chain lookup instead of a scan of the whole table.
//
// Index semantics. pkIndex maps HashValue(pk) -> rowIDs whose version chain
// has EVER committed a version carrying that pk. It is an over-approximate
// accelerator, not the truth: lookups always re-verify by walking the
// chain's visible-at-snapshot version and comparing the stored key with
// sqltypes.Equal. That makes the index trivially correct across MVCC:
//
//   - rollback / first-committer-wins aborts: nothing is indexed before
//     commit, so an aborted transaction leaves no trace;
//   - deletes: the chain stays indexed, the visibility check rules it out
//     (and rules it back in for snapshots that still see it);
//   - pk-changing updates: the rowID is indexed under both the old and the
//     new key; the Equal re-check picks the right one per snapshot;
//   - two different rows using the same pk at different times (delete +
//     re-insert) simply share a bucket.
//
// Buckets only grow (entries for keys a row no longer carries are skipped,
// never removed); with unique primary keys a bucket holds one entry per
// row identity that ever used the key, which stays tiny in practice.

// indexPK records that row (about to be committed, restored or — for temp
// tables — applied) carries its current primary-key value under rowID.
func (t *Table) indexPK(row sqltypes.Row, id int64) {
	if t.pkCol < 0 || row == nil {
		return
	}
	h := sqltypes.HashValue(row[t.pkCol])
	bucket := t.pkIndex[h]
	for _, x := range bucket {
		if x == id {
			return
		}
	}
	t.pkIndex[h] = append(bucket, id)
}

// indexOverlayPK records that the transaction's pending row id currently
// carries pk. Every overlay mutation that sets row data must call it, so the
// per-transaction index stays complete; stale entries (rows later moved or
// deleted) are ruled out by the per-probe re-check, exactly like
// Table.pkIndex.
func (tx *Txn) indexOverlayPK(key tableKey, id int64, pk sqltypes.Value) {
	if tx.pkOv == nil {
		tx.pkOv = make(map[tableKey]map[uint64][]int64)
	}
	m := tx.pkOv[key]
	if m == nil {
		m = make(map[uint64][]int64)
		tx.pkOv[key] = m
	}
	h := sqltypes.HashValue(pk)
	bucket := m[h]
	for _, x := range bucket {
		if x == id {
			return
		}
	}
	m[h] = append(bucket, id)
}

// unindexPK removes row's id from the bucket of its current primary key.
// Only temp-table deletes use it: they free the row chain outright, whereas
// MVCC tables keep deleted chains (and therefore their index entries) for
// older snapshots.
func (t *Table) unindexPK(row sqltypes.Row, id int64) {
	if t.pkCol < 0 || row == nil {
		return
	}
	h := sqltypes.HashValue(row[t.pkCol])
	bucket := t.pkIndex[h]
	for i, x := range bucket {
		if x == id {
			t.pkIndex[h] = append(bucket[:i], bucket[i+1:]...)
			if len(t.pkIndex[h]) == 0 {
				delete(t.pkIndex, h)
			}
			return
		}
	}
}

// pkLookupLocked appends to out the rows visible to tx whose primary key
// equals v — the point-lookup equivalent of filterLocked on `pk = v`. It first
// consults the transaction's own overlay (pending inserts and updates,
// including updates that moved a row onto v) through the overlay pk index,
// then the table's pk index for committed chains the overlay does not
// shadow. Caller holds e.mu.
func (s *Session) pkLookupLocked(tx *Txn, key tableKey, t *Table, v sqltypes.Value, out []scanRow) []scanRow {
	ov := tx.overlay[key]
	h := sqltypes.HashValue(v)
	if len(ov) > 0 {
		for _, id := range tx.pkOv[key][h] {
			ent := ov[id]
			if ent == nil || ent.deleted || ent.data == nil {
				continue
			}
			if sqltypes.Equal(ent.data[t.pkCol], v) {
				out = append(out, scanRow{rowID: id, data: ent.data})
			}
		}
	}
	for _, id := range t.pkIndex[h] {
		if _, shadowed := ov[id]; shadowed {
			continue // overlay already decided this row's fate above
		}
		chain := t.rows[id]
		if chain == nil {
			continue // temp-table delete removed the chain; stale entry
		}
		if vis := chain.visible(tx.snapTS); vis != nil && sqltypes.Equal(vis.data[t.pkCol], v) {
			out = append(out, scanRow{rowID: id, data: vis.data})
		}
	}
	return out
}

// pkPointValue reports whether the bound predicate where, over table t alone,
// is exactly `pk = <constant>` (in either operand order; a constant is
// whatever binding folded to one: literal, ? parameter, session variable,
// procedure parameter), returning the lookup key coerced to the primary-key
// column's kind. Only exact coercions are eligible — the index hashes stored
// (column-kind) values, so a lossy constant (1.5 against an INT key, a string
// against a numeric key) falls back to the scan path, which preserves the
// engine's cross-kind comparison semantics. A NULL constant is eligible and
// matches nothing (`pk = NULL` is never true).
func pkPointValue(t *Table, where *bexpr) (sqltypes.Value, bool) {
	if t.pkCol < 0 || where == nil || where.op != opEq {
		return sqltypes.Null, false
	}
	col, c := where.first, where.first.next
	if col.op != opCol {
		col, c = c, col
	}
	if col.op != opCol || int(col.col) != t.pkCol || c.op != opConst {
		return sqltypes.Null, false
	}
	v := *c.val
	if v.IsNull() {
		return v, true
	}
	colKind := t.Columns[t.pkCol].Type
	if v.Kind() == colKind {
		return v, true
	}
	switch {
	case colKind == sqltypes.KindInt && v.Kind() == sqltypes.KindFloat:
		// The scan path compares int keys to float constants in float64,
		// where integers beyond 2^53 collapse onto shared values; an
		// int-coerced index probe would be exact and miss rows the scan
		// matched. Only coerce when float64 is still exact.
		const maxExactFloat = 1 << 53
		if f := v.Float(); f == float64(int64(f)) && f < maxExactFloat && f > -maxExactFloat {
			return sqltypes.NewInt(int64(f)), true
		}
	case colKind == sqltypes.KindFloat && v.Kind() == sqltypes.KindInt:
		return sqltypes.NewFloat(float64(v.Int())), true
	}
	return sqltypes.Null, false
}

// maxPooledScanBufs bounds the per-session scan buffer free list. Buffers
// nest (subqueries, joins, trigger bodies), so the pool holds a few; beyond
// that, extras are dropped for the GC.
const maxPooledScanBufs = 4

// maxPooledScanBufCap is the largest buffer (in rows) the pool retains.
// Sessions live as long as their connection, so pooling a one-off scan of a
// huge table would pin its backing array forever; big buffers go to the GC.
const maxPooledScanBufCap = 4096

// getScanBuf pops a scan buffer from the session's free list. Sessions are
// single-threaded (like driver connections), so no locking is needed.
func (s *Session) getScanBuf() []scanRow {
	if n := len(s.scanBufs); n > 0 {
		b := s.scanBufs[n-1]
		s.scanBufs = s.scanBufs[:n-1]
		return b[:0]
	}
	return nil
}

// putScanBuf returns a scan buffer to the free list once the caller is done
// iterating it. Only the slice header is recycled; row data is shared with
// the table and never owned by the buffer.
func (s *Session) putScanBuf(b []scanRow) {
	if cap(b) == 0 || cap(b) > maxPooledScanBufCap || len(s.scanBufs) >= maxPooledScanBufs {
		return
	}
	s.scanBufs = append(s.scanBufs, b[:0])
}
