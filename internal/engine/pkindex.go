package engine

import "repro/internal/sqltypes"

// This file implements the primary-key point-lookup fast path: a hash index
// from primary-key value to internal rowIDs, kept per table and per
// transaction overlay, plus the planner check that turns `WHERE pk =
// <constant|param>` SELECT/UPDATE/DELETE into an O(1) MVCC chain lookup
// instead of a scan of the whole table.
//
// Index semantics. A pkIndex maps HashValue(pk) -> rowIDs whose version chain
// has EVER committed a version carrying that pk (for Txn.pkOv: whose pending
// overlay entry ever carried it). It is an over-approximate accelerator, not
// the truth: lookups always re-verify by walking the chain's
// visible-at-snapshot version and comparing the stored key with
// sqltypes.Equal. That makes the index trivially correct across MVCC:
//
//   - rollback / first-committer-wins aborts: nothing is indexed before
//     commit, so an aborted transaction leaves no trace;
//   - deletes: the chain stays indexed, the visibility check rules it out
//     (and rules it back in for snapshots that still see it);
//   - pk-changing updates: the rowID is indexed under both the old and the
//     new key; the Equal re-check picks the right one per snapshot;
//   - two different rows using the same pk at different times (delete +
//     re-insert) are both listed under that key.
//
// Layout. With unique primary keys nearly every hash names exactly one row,
// so the index stores that one rowID inline in a map[uint64]int64 (no
// per-key heap object for the garbage collector to mark). A hash that names
// a second row — a reused key or a hash collision — moves to the overflow
// map, whose slice lists every rowID for it in indexing order; a hash is in
// exactly one of the two maps. Entries only accumulate (ids for keys a row no
// longer carries are skipped, never removed) except on temp tables, whose
// deletes and updates free history outright and call remove.

// pkIndex is the one-slot-plus-overflow primary-key index. The zero value is
// an empty index.
type pkIndex struct {
	one  map[uint64]int64   // hash -> its only rowID
	more map[uint64][]int64 // hash -> its rowIDs, when there are several
}

// ids returns the rowIDs indexed under h, in the order they were added. A
// single id is appended to buf (callers pass a stack array's empty slice),
// so the common probe allocates nothing.
func (x *pkIndex) ids(h uint64, buf []int64) []int64 {
	if id, ok := x.one[h]; ok {
		return append(buf, id)
	}
	return x.more[h]
}

// add indexes id under h; adding an id already there is a no-op.
func (x *pkIndex) add(h uint64, id int64) {
	if old, ok := x.one[h]; ok {
		if old == id {
			return
		}
		delete(x.one, h)
		if x.more == nil {
			x.more = make(map[uint64][]int64)
		}
		x.more[h] = []int64{old, id}
		return
	}
	if ids, ok := x.more[h]; ok {
		for _, y := range ids {
			if y == id {
				return
			}
		}
		x.more[h] = append(ids, id)
		return
	}
	if x.one == nil {
		x.one = make(map[uint64]int64)
	}
	x.one[h] = id
}

// remove drops id from h's entry.
func (x *pkIndex) remove(h uint64, id int64) {
	if old, ok := x.one[h]; ok {
		if old == id {
			delete(x.one, h)
		}
		return
	}
	ids := x.more[h]
	for i, y := range ids {
		if y == id {
			if len(ids) == 1 {
				delete(x.more, h)
			} else {
				x.more[h] = append(ids[:i], ids[i+1:]...)
			}
			return
		}
	}
}

// indexPK records that row (about to be committed, restored or — for temp
// tables — applied) carries its current primary-key value under rowID.
func (t *Table) indexPK(row sqltypes.Row, id int64) {
	if t.pkCol >= 0 && row != nil {
		t.pk.add(sqltypes.HashValue(row[t.pkCol]), id)
	}
}

// unindexPK removes row's id from the entry of its current primary key.
// Only temp-table writes use it: they free or overwrite the row outright,
// whereas MVCC tables keep deleted chains (and therefore their index
// entries) for older snapshots.
func (t *Table) unindexPK(row sqltypes.Row, id int64) {
	if t.pkCol >= 0 && row != nil {
		t.pk.remove(sqltypes.HashValue(row[t.pkCol]), id)
	}
}

// indexOverlayPK records that the transaction's pending row id currently
// carries pk. Every overlay mutation that sets row data must call it, so the
// per-transaction index stays complete; stale entries (rows later moved or
// deleted) are ruled out by the per-probe re-check, exactly like Table.pk.
func (tx *Txn) indexOverlayPK(key tableKey, id int64, pk sqltypes.Value) {
	if tx.pkOv == nil {
		tx.pkOv = make(map[tableKey]*pkIndex)
	}
	x := tx.pkOv[key]
	if x == nil {
		x = &pkIndex{}
		tx.pkOv[key] = x
	}
	x.add(sqltypes.HashValue(pk), id)
}

// overlayPKIDs returns the pending rowIDs of table key indexed under h (see
// pkIndex.ids for buf).
func (tx *Txn) overlayPKIDs(key tableKey, h uint64, buf []int64) []int64 {
	if x := tx.pkOv[key]; x != nil {
		return x.ids(h, buf)
	}
	return nil
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
	var buf [1]int64
	if len(ov) > 0 {
		for _, id := range tx.overlayPKIDs(key, h, buf[:0]) {
			ent := ov[id]
			if ent == nil || ent.deleted || ent.data == nil {
				continue
			}
			if sqltypes.Equal(ent.data[t.pkCol], v) {
				out = append(out, scanRow{rowID: id, data: ent.data})
			}
		}
	}
	for _, id := range t.pk.ids(h, buf[:0]) {
		if _, shadowed := ov[id]; shadowed {
			continue // overlay already decided this row's fate above
		}
		chain := t.chain(id)
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
