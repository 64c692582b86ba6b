package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sqltypes"
)

// PK-index durability tests: the index must agree with the scan path after
// every lifecycle event a row can go through — rollback, first-committer-
// wins aborts, replicated write-set application, backup/restore, and
// pk-changing updates. Agreement is checked two ways: structurally (every
// visible row is findable through the index) and behaviourally (an
// index-eligible point query returns exactly what the forced full scan
// returns).

// verifyPKIndex asserts that, at the latest committed snapshot, every
// visible row of db.table is reachable through findByPK under its current
// primary key.
func verifyPKIndex(t *testing.T, eng *Engine, db, table string) {
	t.Helper()
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	d, err := eng.database(db)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := d.tables[table]
	if !ok {
		t.Fatalf("unknown table %s.%s", db, table)
	}
	if tbl.pkCol < 0 {
		return
	}
	for _, id := range tbl.rowOrder {
		v := tbl.chain(id).visible(eng.clock)
		if v == nil {
			continue
		}
		if got := tbl.findByPK(v.data[tbl.pkCol], eng.clock); got != id {
			t.Fatalf("pk index lost row %d (pk=%v): findByPK returned %d", id, v.data[tbl.pkCol], got)
		}
	}
}

// assertPointMatchesScan compares the index-eligible point query against the
// forced full scan for every key in [0, hi).
func assertPointMatchesScan(t *testing.T, s *Session, hi int) {
	t.Helper()
	for id := 0; id < hi; id++ {
		point, err := s.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := s.ExecArgs("SELECT * FROM t WHERE id + 0 = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(point.Rows) != len(scan.Rows) {
			t.Fatalf("id=%d: point path %d rows, scan path %d rows", id, len(point.Rows), len(scan.Rows))
		}
		for i := range point.Rows {
			if !rowsEqual(point.Rows[i], scan.Rows[i]) {
				t.Fatalf("id=%d: point row %v != scan row %v", id, point.Rows[i], scan.Rows[i])
			}
		}
	}
}

func newPKIndexEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	eng := New(Config{})
	s := eng.NewSession("app")
	if err := s.ExecScript("CREATE DATABASE d; USE d;" +
		"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.ExecArgs("INSERT INTO t (id, v) VALUES (?, ?)",
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return eng, s
}

func TestPKIndexRollback(t *testing.T) {
	eng, s := newPKIndexEngine(t)
	defer s.Close()
	if err := s.ExecScript("BEGIN;" +
		"INSERT INTO t (id, v) VALUES (100, 'pending');" +
		"UPDATE t SET id = 200 WHERE id = 3;" +
		"DELETE FROM t WHERE id = 5;" +
		"ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, eng, "d", "t")
	assertPointMatchesScan(t, s, 16)
	// Rolled-back keys must not resolve.
	for _, id := range []int{100, 200} {
		res, err := s.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("rolled-back key %d visible through index: %v", id, res.Rows)
		}
	}
	// Row 5 must have survived the rolled-back delete, row 3 its update.
	for _, id := range []int{3, 5} {
		res, err := s.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("key %d lost by rollback: %v", id, res.Rows)
		}
	}
}

// TestPKIndexInTxnVisibility checks the overlay side of the point lookup:
// a transaction sees its own uncommitted inserts, pk-moves and deletes
// through the fast path, while they stay invisible to other sessions.
func TestPKIndexInTxnVisibility(t *testing.T) {
	eng, s := newPKIndexEngine(t)
	defer s.Close()
	other := eng.NewSession("other")
	defer other.Close()
	if _, err := other.Exec("USE d"); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecScript("BEGIN;" +
		"INSERT INTO t (id, v) VALUES (50, 'mine');" +
		"UPDATE t SET id = 60 WHERE id = 2;" +
		"DELETE FROM t WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	assertPointMatchesScan(t, s, 64) // in-txn view
	for id, want := range map[int]int{50: 1, 60: 1, 2: 0, 7: 0} {
		res, err := s.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("in-txn key %d: want %d rows, got %v", id, want, res.Rows)
		}
	}
	for id, want := range map[int]int{50: 0, 60: 0, 2: 1, 7: 1} {
		res, err := other.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("other-session key %d: want %d rows, got %v", id, want, res.Rows)
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, eng, "d", "t")
	assertPointMatchesScan(t, other, 64)
}

func TestPKIndexFirstCommitterWins(t *testing.T) {
	eng, s1 := newPKIndexEngine(t)
	defer s1.Close()
	s2 := eng.NewSession("app2")
	defer s2.Close()
	for _, s := range []*Session{s1, s2} {
		if err := s.ExecScript("USE d; SET ISOLATION LEVEL SNAPSHOT"); err != nil {
			t.Fatal(err)
		}
	}
	// Both transactions snapshot row 1; s1 moves it to pk 10 and commits
	// first. s2 then updates its stale snapshot of the same row — found
	// through the index's historical visibility — and must abort at commit.
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if err := s1.ExecScript("UPDATE t SET id = 10 WHERE id = 1; COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE t SET id = 11 WHERE id = 1"); err != nil {
		t.Fatal(err) // sees its snapshot's row 1 via the index
	}
	if _, err := s2.Exec("COMMIT"); err == nil {
		t.Fatal("second committer should have been aborted (first-committer-wins)")
	}
	verifyPKIndex(t, eng, "d", "t")
	assertPointMatchesScan(t, s1, 16)
	res, err := s1.ExecArgs("SELECT v FROM t WHERE id = ?", sqltypes.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("winning update's key not indexed: %v", res.Rows)
	}
	for _, gone := range []int{1, 11} {
		res, err := s1.ExecArgs("SELECT v FROM t WHERE id = ?", sqltypes.NewInt(int64(gone)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("key %d should not resolve after FCW abort: %v", gone, res.Rows)
		}
	}
}

func TestPKIndexApplyWriteSet(t *testing.T) {
	engA, sA := newPKIndexEngine(t)
	defer sA.Close()
	engB := New(Config{})
	sB := engB.NewSession("app")
	defer sB.Close()
	if err := sB.ExecScript("CREATE DATABASE d; USE d;" +
		"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	// Replay engine A's committed history onto B via write sets (the slave
	// apply path), then mutate through a write-set transaction that inserts,
	// pk-moves and deletes.
	evs, _ := engA.Binlog().ReadFrom(0, 0)
	for _, ev := range evs {
		if ev.WriteSet == nil || len(ev.WriteSet.Ops) == 0 {
			continue
		}
		if _, err := engB.ApplyEvents([]Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sA.ExecScript("BEGIN;" +
		"INSERT INTO t (id, v) VALUES (20, 'new');" +
		"UPDATE t SET id = 30 WHERE id = 4;" +
		"DELETE FROM t WHERE id = 6"); err != nil {
		t.Fatal(err)
	}
	_, ws, err := sA.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engB.ApplyEvents([]Event{{WriteSet: ws}}); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, engB, "d", "t")
	assertPointMatchesScan(t, sB, 40)
	for id, want := range map[int]int{20: 1, 30: 1, 4: 0, 6: 0} {
		res, err := sB.ExecArgs("SELECT * FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("replica key %d: want %d rows, got %v", id, want, res.Rows)
		}
	}
}

func TestPKIndexBackupRestore(t *testing.T) {
	engA, sA := newPKIndexEngine(t)
	defer sA.Close()
	// Churn first so the dump contains updated and deleted history.
	if err := sA.ExecScript("UPDATE t SET id = 40 WHERE id = 0; DELETE FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	b, err := engA.Dump(BackupOptions{IncludeSequences: true})
	if err != nil {
		t.Fatal(err)
	}
	engB := New(Config{})
	if err := engB.Restore(b); err != nil {
		t.Fatal(err)
	}
	sB := engB.NewSession("app")
	defer sB.Close()
	if _, err := sB.Exec("USE d"); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, engB, "d", "t")
	assertPointMatchesScan(t, sB, 48)
	// Restore over an engine that already has data (the resync path):
	// the replaced table must drop its old index with the old table.
	if err := engB.Restore(b); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, engB, "d", "t")
	assertPointMatchesScan(t, sB, 48)
	// And the restored replica keeps indexing new writes.
	if _, err := sB.Exec("INSERT INTO t (id, v) VALUES (99, 'post-restore')"); err != nil {
		t.Fatal(err)
	}
	verifyPKIndex(t, engB, "d", "t")
	res, err := sB.ExecArgs("SELECT v FROM t WHERE id = ?", sqltypes.NewInt(99))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("post-restore insert not indexed: %v %v", res.Rows, err)
	}
}

// TestPKIndexDeleteReinsertSameKey: deleting (or pk-moving) a row and
// re-inserting its key inside ONE transaction must commit — the commit-time
// duplicate check has to look through the transaction's own overlay — and
// the resulting write-set must apply cleanly on a replica.
func TestPKIndexDeleteReinsertSameKey(t *testing.T) {
	eng, s := newPKIndexEngine(t)
	defer s.Close()
	if err := s.ExecScript("BEGIN;" +
		"DELETE FROM t WHERE id = 5;" +
		"INSERT INTO t (id, v) VALUES (5, 'reborn');" +
		"UPDATE t SET id = 300 WHERE id = 6;" +
		"INSERT INTO t (id, v) VALUES (6, 'recycled');" +
		"COMMIT"); err != nil {
		t.Fatalf("delete-then-reinsert txn aborted: %v", err)
	}
	verifyPKIndex(t, eng, "d", "t")
	for id, want := range map[int]string{5: "reborn", 6: "recycled", 300: "v6"} {
		res, err := s.ExecArgs("SELECT v FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != want {
			t.Fatalf("key %d: want %q, got %v", id, want, res.Rows)
		}
	}

	// The same shape must replicate: replay history onto a fresh engine,
	// then apply a delete+reinsert write-set.
	engB := New(Config{})
	sB := engB.NewSession("app")
	defer sB.Close()
	if err := sB.ExecScript("CREATE DATABASE d; USE d;" +
		"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	evs, _ := eng.Binlog().ReadFrom(0, 0)
	for _, ev := range evs {
		if ev.WriteSet == nil || len(ev.WriteSet.Ops) == 0 {
			continue
		}
		if _, err := engB.ApplyEvents([]Event{ev}); err != nil {
			t.Fatalf("replica apply: %v", err)
		}
	}
	if err := s.ExecScript("BEGIN;" +
		"DELETE FROM t WHERE id = 5;" +
		"INSERT INTO t (id, v) VALUES (5, 'reborn-2')"); err != nil {
		t.Fatal(err)
	}
	_, ws, err := s.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engB.ApplyEvents([]Event{{WriteSet: ws}}); err != nil {
		t.Fatalf("replica apply of delete+reinsert write-set: %v", err)
	}
	verifyPKIndex(t, engB, "d", "t")
	res, err := sB.ExecArgs("SELECT v FROM t WHERE id = ?", sqltypes.NewInt(5))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "reborn-2" {
		t.Fatalf("replica delete+reinsert: %v %v", res.Rows, err)
	}
}

func TestPKIndexTempTable(t *testing.T) {
	eng, s := newPKIndexEngine(t)
	defer s.Close()
	if err := s.ExecScript("CREATE TEMP TABLE tmp (id INT PRIMARY KEY, v INT);" +
		"INSERT INTO tmp (id, v) VALUES (1, 10), (2, 20);" +
		"UPDATE tmp SET id = 3 WHERE id = 1;" +
		"DELETE FROM tmp WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]int{1: 0, 2: 0, 3: 1} {
		res, err := s.ExecArgs("SELECT v FROM tmp WHERE id = ?", sqltypes.NewInt(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("temp key %d: want %d rows, got %v", id, want, res.Rows)
		}
	}
	// Insert/update/delete churn must not grow the index: temp tables keep
	// no MVCC history, so deletes and pk-moving updates unindex in place.
	// Each round takes a new rowID, so the churn crosses row pages.
	for i := 0; i < 2*rowPageSize; i++ {
		if err := s.ExecScript("INSERT INTO tmp (id, v) VALUES (50, 1);" +
			"UPDATE tmp SET id = 60 WHERE id = 50;" +
			"DELETE FROM tmp WHERE id = 60"); err != nil {
			t.Fatal(err)
		}
	}
	tmp := s.tempTables["tmp"]
	for _, key := range []int64{3, 50, 60} {
		if n := len(tmp.pk.ids(sqltypes.HashValue(sqltypes.NewInt(key)), nil)); n > 1 {
			t.Fatalf("temp churn leaked %d index entries under key %d", n, key)
		}
	}
	// Deletes free row storage too: every page the churn emptied is
	// released, and no freed slot still references its deleted row.
	pages := 0
	for _, pg := range tmp.pages {
		if pg != nil {
			pages++
		}
	}
	if pages > 1 {
		t.Fatalf("temp churn holds %d row pages, want at most 1", pages)
	}
	live := map[int64]bool{}
	for _, id := range tmp.rowOrder {
		live[id] = true
	}
	for id := int64(0); id < tmp.nextRowID; id++ {
		pg := tmp.pages[id/rowPageSize]
		if live[id] || pg == nil {
			continue
		}
		if c, v := pg.chains[id%rowPageSize], pg.first[id%rowPageSize]; c.versions != nil || v.data != nil {
			t.Fatalf("freed temp row %d still referenced by its page slot", id)
		}
	}
	_ = eng
}

// TestPKIndexOverflow drives the index's two maps directly, since reused
// keys reach the overflow list only through MVCC tables (which never
// remove) and hash collisions not at all in practice: a hash naming a
// second rowID keeps its ids in indexing order, and removing them empties
// both maps.
func TestPKIndexOverflow(t *testing.T) {
	var x pkIndex
	check := func(want ...int64) {
		t.Helper()
		if got := x.ids(7, nil); !slices.Equal(got, want) {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
	x.add(7, 1)
	x.add(7, 1)
	check(1)
	x.add(7, 2)
	x.add(7, 3)
	x.add(7, 2)
	check(1, 2, 3)
	x.remove(7, 2)
	check(1, 3)
	x.remove(7, 1)
	x.remove(7, 3)
	check()
	if len(x.one)+len(x.more) != 0 {
		t.Fatalf("emptied index still holds %d + %d entries", len(x.one), len(x.more))
	}
	x.add(7, 4)
	check(4)
}

// TestPointLookupCrossKind pins the eligibility rules: exact cross-kind
// constants use the index, lossy ones fall back to the scan path, and both
// agree with full-scan semantics.
func TestPointLookupCrossKind(t *testing.T) {
	_, s := newPKIndexEngine(t)
	defer s.Close()
	// Float constant with integral value matches the INT key.
	res, err := s.Exec("SELECT v FROM t WHERE id = 3.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("id = 3.0 should match int pk 3: %v", res.Rows)
	}
	// Non-integral float can never match an INT key.
	res, err = s.Exec("SELECT v FROM t WHERE id = 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("id = 3.5 matched an int pk: %v", res.Rows)
	}
	// NULL never matches (three-valued logic).
	res, err = s.Exec("SELECT v FROM t WHERE id = NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("id = NULL matched: %v", res.Rows)
	}
	// Beyond 2^53, float64 equality is lossy: the scan path promotes int
	// keys to float64, where 2^53 and 2^53+1 collapse. The fast path must
	// fall back to the scan for such constants so both agree.
	if _, err := s.Exec("INSERT INTO t (id, v) VALUES (9007199254740993, 'big')"); err != nil {
		t.Fatal(err)
	}
	point, err := s.Exec("SELECT v FROM t WHERE id = 9007199254740992.0")
	if err != nil {
		t.Fatal(err)
	}
	scan2, err := s.Exec("SELECT v FROM t WHERE id + 0 = 9007199254740992.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(point.Rows) != len(scan2.Rows) {
		t.Fatalf("2^53 float constant: point %v != scan %v", point.Rows, scan2.Rows)
	}
	// String constants keep the engine's compare-as-string semantics via
	// the scan fallback.
	res, err = s.Exec("SELECT v FROM t WHERE id = '3'")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := s.Exec("SELECT v FROM t WHERE id + 0 = '3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(scan.Rows) {
		t.Fatalf("string-constant semantics diverge: point %v scan %v", res.Rows, scan.Rows)
	}
}
