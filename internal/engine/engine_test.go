package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// newTestDB returns an engine with database "shop" and a standard items
// table, plus a session positioned on it.
func newTestDB(t *testing.T, cfg Config) (*Engine, *Session) {
	t.Helper()
	e := New(cfg)
	s := e.NewSession("test")
	mustExec(t, s, "CREATE DATABASE shop")
	mustExec(t, s, "USE shop")
	mustExec(t, s, `CREATE TABLE items (
		id INTEGER PRIMARY KEY AUTO_INCREMENT,
		name TEXT NOT NULL,
		price FLOAT DEFAULT 0,
		stock INTEGER DEFAULT 10
	)`)
	return e, s
}

func mustExec(t testing.TB, s *Session, sql string, args ...sqltypes.Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func queryInt(t *testing.T, s *Session, sql string) int64 {
	t.Helper()
	res := mustExec(t, s, sql)
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		t.Fatalf("query %q returned no rows", sql)
	}
	return res.Rows[0][0].Int()
}

func TestInsertSelectBasic(t *testing.T) {
	_, s := newTestDB(t, Config{})
	res := mustExec(t, s, "INSERT INTO items (name, price) VALUES ('apple', 1.5), ('pear', 2.0)")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	out := mustExec(t, s, "SELECT name, price FROM items ORDER BY price")
	if len(out.Rows) != 2 || out.Rows[0][0].Str() != "apple" {
		t.Fatalf("rows: %v", out.Rows)
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items"); got != 2 {
		t.Fatalf("count = %d", got)
	}
}

func TestAutoIncrementAndLastInsertID(t *testing.T) {
	_, s := newTestDB(t, Config{})
	r1 := mustExec(t, s, "INSERT INTO items (name) VALUES ('a')")
	r2 := mustExec(t, s, "INSERT INTO items (name) VALUES ('b')")
	if r1.LastInsertID != 1 || r2.LastInsertID != 2 {
		t.Fatalf("ids: %d, %d", r1.LastInsertID, r2.LastInsertID)
	}
}

func TestAutoIncrementNotRolledBack(t *testing.T) {
	// §4.3.2: auto-incremented keys are not decremented at rollback.
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('ghost')")
	mustExec(t, s, "ROLLBACK")
	r := mustExec(t, s, "INSERT INTO items (name) VALUES ('real')")
	if r.LastInsertID != 2 {
		t.Fatalf("expected hole in keys: LastInsertID = %d, want 2", r.LastInsertID)
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items"); got != 1 {
		t.Fatalf("rolled back row persisted: count = %d", got)
	}
}

func TestUpdateWhere(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, price) VALUES ('a', 1), ('b', 2), ('c', 3)")
	res := mustExec(t, s, "UPDATE items SET price = price * 10 WHERE price >= 2")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items WHERE price >= 20"); got != 2 {
		t.Fatalf("count = %d", got)
	}
}

func TestDelete(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a'), ('b'), ('c')")
	res := mustExec(t, s, "DELETE FROM items WHERE name != 'b'")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	out := mustExec(t, s, "SELECT name FROM items")
	if len(out.Rows) != 1 || out.Rows[0][0].Str() != "b" {
		t.Fatalf("rows: %v", out.Rows)
	}
}

func TestTransactionRollback(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 5)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE items SET stock = 0")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 0 {
		t.Fatalf("own write invisible inside txn: %d", got)
	}
	mustExec(t, s, "ROLLBACK")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 5 {
		t.Fatalf("rollback lost: stock = %d", got)
	}
}

func TestTransactionCommitVisibility(t *testing.T) {
	e, s := newTestDB(t, Config{})
	s2 := e.NewSession("other")
	mustExec(t, s2, "USE shop")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('pending')")
	if got := queryInt(t, s2, "SELECT COUNT(*) FROM items"); got != 0 {
		t.Fatalf("uncommitted row visible to other session")
	}
	mustExec(t, s, "COMMIT")
	if got := queryInt(t, s2, "SELECT COUNT(*) FROM items"); got != 1 {
		t.Fatalf("committed row invisible: %d", got)
	}
}

func TestSnapshotIsolationRepeatableRead(t *testing.T) {
	e, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 1)")
	mustExec(t, s, "SET ISOLATION LEVEL SNAPSHOT")
	mustExec(t, s, "BEGIN")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 1 {
		t.Fatal("setup")
	}
	s2 := e.NewSession("w")
	mustExec(t, s2, "USE shop")
	mustExec(t, s2, "UPDATE items SET stock = 99")
	// Snapshot reader must still see the old value.
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 1 {
		t.Fatalf("snapshot read changed mid-txn: %d", got)
	}
	mustExec(t, s, "COMMIT")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 99 {
		t.Fatalf("new txn should see update: %d", got)
	}
}

func TestReadCommittedSeesNewCommits(t *testing.T) {
	e, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 1)")
	mustExec(t, s, "BEGIN") // default read committed
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 1 {
		t.Fatal("setup")
	}
	s2 := e.NewSession("w")
	mustExec(t, s2, "USE shop")
	mustExec(t, s2, "UPDATE items SET stock = 99")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 99 {
		t.Fatalf("read committed should see new commit: %d", got)
	}
	mustExec(t, s, "COMMIT")
}

func TestFirstCommitterWins(t *testing.T) {
	e, s := newTestDB(t, Config{LockTimeout: 50 * time.Millisecond})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 1)")

	s1 := e.NewSession("t1")
	s2 := e.NewSession("t2")
	mustExec(t, s1, "USE shop")
	mustExec(t, s2, "USE shop")
	mustExec(t, s1, "SET ISOLATION LEVEL SNAPSHOT")
	mustExec(t, s2, "SET ISOLATION LEVEL SNAPSHOT")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE items SET stock = 10 WHERE name = 'a'")
	// s2 writing the same row must fail: the row lock is held by s1.
	_, err := s2.Exec("UPDATE items SET stock = 20 WHERE name = 'a'")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "ROLLBACK")

	// Now serial conflict: s2 snapshots before s1 commits.
	mustExec(t, s2, "BEGIN")
	_ = queryInt(t, s2, "SELECT stock FROM items") // materialize snapshot
	s3 := e.NewSession("t3")
	mustExec(t, s3, "USE shop")
	mustExec(t, s3, "UPDATE items SET stock = 30 WHERE name = 'a'")
	mustExec(t, s2, "UPDATE items SET stock = 40 WHERE name = 'a'")
	_, err = s2.Exec("COMMIT")
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("expected serialization failure, got %v", err)
	}
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 30 {
		t.Fatalf("first committer should win: stock = %d", got)
	}
}

func TestSerializableTableLocking(t *testing.T) {
	e, s := newTestDB(t, Config{LockTimeout: 50 * time.Millisecond})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 1)")
	s1 := e.NewSession("t1")
	s2 := e.NewSession("t2")
	mustExec(t, s1, "USE shop")
	mustExec(t, s2, "USE shop")
	mustExec(t, s1, "SET ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, s2, "SET ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE items SET stock = 2")
	mustExec(t, s2, "BEGIN")
	_, err := s2.Exec("SELECT COUNT(*) FROM items")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("reader should block on writer's table lock, got %v", err)
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "ROLLBACK") // postgres profile poisoned the txn on the timeout
	mustExec(t, s2, "BEGIN")
	if got := queryInt(t, s2, "SELECT stock FROM items"); got != 2 {
		t.Fatalf("stock = %d", got)
	}
	mustExec(t, s2, "COMMIT")
}

func TestErrorPoisonsTxnOnPostgresProfile(t *testing.T) {
	_, s := newTestDB(t, Config{Profile: ProfilePostgres})
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('ok')")
	if _, err := s.Exec("INSERT INTO nosuch (x) VALUES (1)"); err == nil {
		t.Fatal("expected error")
	}
	_, err := s.Exec("SELECT COUNT(*) FROM items")
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("postgres profile should poison txn, got %v", err)
	}
	mustExec(t, s, "ROLLBACK")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items"); got != 0 {
		t.Fatalf("poisoned txn committed rows: %d", got)
	}
}

func TestErrorContinuesTxnOnMySQLProfile(t *testing.T) {
	// §4.1.2: "MySQL continues the transaction until the client explicitly
	// rolls back".
	_, s := newTestDB(t, Config{Profile: ProfileMySQL})
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('ok')")
	if _, err := s.Exec("INSERT INTO nosuch (x) VALUES (1)"); err == nil {
		t.Fatal("expected error")
	}
	mustExec(t, s, "INSERT INTO items (name) VALUES ('still ok')")
	mustExec(t, s, "COMMIT")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items"); got != 2 {
		t.Fatalf("count = %d", got)
	}
}

func TestSybaseHasNoSnapshot(t *testing.T) {
	_, s := newTestDB(t, Config{Profile: ProfileSybase})
	if _, err := s.Exec("SET ISOLATION LEVEL SNAPSHOT"); err == nil {
		t.Fatal("sybase profile should reject snapshot isolation (§4.1.2)")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (7, 'a')")
	_, err := s.Exec("INSERT INTO items (id, name) VALUES (7, 'b')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("expected duplicate key, got %v", err)
	}
}

func TestNotNullEnforced(t *testing.T) {
	_, s := newTestDB(t, Config{})
	if _, err := s.Exec("INSERT INTO items (name) VALUES (NULL)"); err == nil {
		t.Fatal("expected not-null violation")
	}
}

func TestDefaultsApplied(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a')")
	if got := queryInt(t, s, "SELECT stock FROM items"); got != 10 {
		t.Fatalf("default stock = %d", got)
	}
}

func TestSequencesNonTransactional(t *testing.T) {
	// §4.2.3: sequence values consumed in an aborted txn leave holes.
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE SEQUENCE ord START 100 INCREMENT 1")
	mustExec(t, s, "BEGIN")
	if got := queryInt(t, s, "SELECT NEXTVAL('ord')"); got != 100 {
		t.Fatalf("nextval = %d", got)
	}
	mustExec(t, s, "ROLLBACK")
	if got := queryInt(t, s, "SELECT NEXTVAL('ord')"); got != 101 {
		t.Fatalf("sequence should not roll back: nextval = %d, want 101", got)
	}
}

func TestTempTableLifecycle(t *testing.T) {
	e, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TEMP TABLE scratch (v INTEGER)")
	mustExec(t, s, "INSERT INTO scratch (v) VALUES (1), (2)")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM scratch"); got != 2 {
		t.Fatalf("count = %d", got)
	}
	// Invisible to other sessions.
	s2 := e.NewSession("x")
	mustExec(t, s2, "USE shop")
	if _, err := s2.Exec("SELECT COUNT(*) FROM scratch"); err == nil {
		t.Fatal("temp table visible to other session")
	}
	// Dropped on close.
	s.Close()
	s3 := e.NewSession("y")
	mustExec(t, s3, "USE shop")
	if _, err := s3.Exec("SELECT * FROM scratch"); err == nil {
		t.Fatal("temp table survived session close")
	}
}

func TestSybaseTempTablesForbiddenInTxn(t *testing.T) {
	_, s := newTestDB(t, Config{Profile: ProfileSybase})
	mustExec(t, s, "CREATE TEMP TABLE scratch (v INTEGER)")
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("INSERT INTO scratch (v) VALUES (1)"); err == nil {
		t.Fatal("sybase profile must reject temp table use inside txn (§4.1.4)")
	}
	mustExec(t, s, "ROLLBACK")
}

func TestTempTablesDropOnCommitProfile(t *testing.T) {
	p := ProfileMySQL
	p.TempTablesDropOnCommit = true
	_, s := newTestDB(t, Config{Profile: p})
	mustExec(t, s, "CREATE TEMP TABLE scratch (v INTEGER)")
	mustExec(t, s, "INSERT INTO scratch (v) VALUES (1)")
	// The autocommit INSERT committed, so the temp table is gone.
	if _, err := s.Exec("SELECT * FROM scratch"); err == nil {
		t.Fatal("temp table should be freed at commit (§4.1.4)")
	}
}

func TestTriggersCrossDatabase(t *testing.T) {
	// §4.1.1: triggers updating a different reporting database instance.
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE DATABASE reporting")
	mustExec(t, s, "CREATE TABLE reporting.audit (what TEXT)")
	mustExec(t, s, "CREATE TRIGGER ai AFTER INSERT ON items DO INSERT INTO reporting.audit (what) VALUES ('insert')")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a'), ('b')")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM reporting.audit"); got != 2 {
		t.Fatalf("audit rows = %d", got)
	}
}

func TestTriggerRollsBackWithTxn(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE DATABASE reporting")
	mustExec(t, s, "CREATE TABLE reporting.audit (what TEXT)")
	mustExec(t, s, "CREATE TRIGGER ai AFTER INSERT ON items DO INSERT INTO reporting.audit (what) VALUES ('insert')")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a')")
	mustExec(t, s, "ROLLBACK")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM reporting.audit"); got != 0 {
		t.Fatalf("trigger effects must roll back with txn: %d", got)
	}
}

func TestStoredProcedure(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 1)")
	mustExec(t, s, "CREATE PROCEDURE bump(amount) BEGIN UPDATE items SET stock = stock + amount; SELECT stock FROM items; END")
	res := mustExec(t, s, "CALL bump(4)")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, item INTEGER, qty INTEGER)")
	mustExec(t, s, "INSERT INTO items (id, name, price) VALUES (1, 'apple', 2), (2, 'pear', 3)")
	mustExec(t, s, "INSERT INTO orders (oid, item, qty) VALUES (10, 1, 5), (11, 2, 1)")
	res := mustExec(t, s, "SELECT o.oid, i.name FROM orders o JOIN items i ON o.item = i.id WHERE o.qty > 2")
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "apple" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TABLE sales (region TEXT, amt INTEGER)")
	mustExec(t, s, "INSERT INTO sales (region, amt) VALUES ('e', 1), ('e', 2), ('w', 10)")
	res := mustExec(t, s, "SELECT region, SUM(amt), COUNT(*) FROM sales GROUP BY region ORDER BY region")
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	// ORDER BY after GROUP BY is not applied in aggregate path; check both groups present.
	sums := map[string]int64{}
	for _, r := range res.Rows {
		sums[r[0].Str()] = r[1].Int()
	}
	if sums["e"] != 3 || sums["w"] != 10 {
		t.Fatalf("sums: %v", sums)
	}
}

func TestSubqueryIn(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (id, name, price) VALUES (1, 'a', 1), (2, 'b', 5), (3, 'c', 9)")
	res := mustExec(t, s, "SELECT name FROM items WHERE id IN (SELECT id FROM items WHERE price > 3)")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestLimitWithoutOrderIsArbitrary(t *testing.T) {
	// The engine returns rows in insertion order, so LIMIT without ORDER BY
	// depends on physical layout — the §4.3.2 divergence vector.
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a'), ('b'), ('c')")
	res := mustExec(t, s, "SELECT name FROM items LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("limit: %v", res.Rows)
	}
}

func TestMultiDatabaseQueries(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE DATABASE analytics")
	mustExec(t, s, "CREATE TABLE analytics.metrics (k TEXT, v INTEGER)")
	mustExec(t, s, "INSERT INTO analytics.metrics (k, v) VALUES ('x', 42)")
	if got := queryInt(t, s, "SELECT v FROM analytics.metrics"); got != 42 {
		t.Fatalf("cross-db select = %d", got)
	}
}

func TestAccessControl(t *testing.T) {
	e := New(Config{RequireAuth: true})
	admin := e.NewSession("root")
	// RequireAuth engines still allow DDL from any session here; access is
	// enforced on USE/DML per grants.
	if err := e.CreateUser("app", "pw"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, admin, "CREATE DATABASE shop")
	mustExec(t, admin, "CREATE DATABASE hr")
	if err := e.Grant("shop", "app"); err != nil {
		t.Fatal(err)
	}
	if err := e.Authenticate("app", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := e.Authenticate("app", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
	s := e.NewSession("app")
	if _, err := s.Exec("USE shop"); err != nil {
		t.Fatalf("granted USE failed: %v", err)
	}
	if _, err := s.Exec("USE hr"); err == nil {
		t.Fatal("ungranted USE allowed")
	}
}

func TestBinlogRecordsCommits(t *testing.T) {
	e, s := newTestDB(t, Config{})
	head := e.Binlog().Head()
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a')")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('b')")
	mustExec(t, s, "UPDATE items SET price = 1 WHERE name = 'b'")
	mustExec(t, s, "COMMIT")
	evs, trimmed := e.Binlog().ReadFrom(head, 0)
	if trimmed {
		t.Fatal("trimmed")
	}
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if len(evs[1].Stmts) != 2 {
		t.Fatalf("txn stmts = %v", evs[1].Stmts)
	}
	// INSERT followed by UPDATE of the same new row coalesces into one
	// insert op carrying the final image.
	if len(evs[1].WriteSet.Ops) != 1 || evs[1].WriteSet.Ops[0].Kind != WriteInsert {
		t.Fatalf("writeset ops = %+v", evs[1].WriteSet.Ops)
	}
}

func TestBinlogSubscription(t *testing.T) {
	e, s := newTestDB(t, Config{})
	ch, cancel := e.Binlog().Subscribe(16)
	defer cancel()
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a')")
	select {
	case ev := <-ch:
		if len(ev.WriteSet.Ops) != 1 {
			t.Fatalf("ops: %v", ev.WriteSet.Ops)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestRolledBackTxnNotInBinlog(t *testing.T) {
	e, s := newTestDB(t, Config{})
	head := e.Binlog().Head()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('x')")
	mustExec(t, s, "ROLLBACK")
	if e.Binlog().Head() != head {
		t.Fatal("rollback appeared in binlog")
	}
}

func TestWriteSetCapture(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 5)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE items SET stock = 6 WHERE id = 1")
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (2, 'b')")
	mustExec(t, s, "DELETE FROM items WHERE id = 1")
	_, ws, err := s.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	// The UPDATE of row 1 is superseded by its DELETE, leaving the
	// minimal write set: insert row 2, delete row 1.
	if len(ws.Ops) != 2 {
		t.Fatalf("ops = %d: %+v", len(ws.Ops), ws.Ops)
	}
	if ws.Ops[0].Kind != WriteInsert || ws.Ops[0].PK.Int() != 2 {
		t.Fatalf("first op: %+v", ws.Ops[0])
	}
	if ws.Ops[1].Kind != WriteDelete || ws.Ops[1].PK.Int() != 1 {
		t.Fatalf("second op: %+v", ws.Ops[1])
	}
}

func TestApplyWriteSetReplicates(t *testing.T) {
	mk := func() (*Engine, *Session) { return newTestDB(t, Config{}) }
	e1, s1 := mk()
	e2, _ := mk()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO items (id, name, price, stock) VALUES (1, 'a', 2.5, 3)")
	mustExec(t, s1, "INSERT INTO items (id, name, price, stock) VALUES (2, 'b', 1, 1)")
	_, ws, err := s1.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ApplyWriteSet(ws, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	c1, _ := e1.TableChecksum("shop", "items")
	c2, _ := e2.TableChecksum("shop", "items")
	if c1 != c2 {
		t.Fatalf("replica diverged: %x vs %x", c1, c2)
	}
}

func TestApplyWriteSetCounterGap(t *testing.T) {
	// §4.3.2: write-set application does not advance auto-increment, so a
	// later local insert on the replica collides.
	_, s1 := newTestDB(t, Config{})
	e2, _ := newTestDB(t, Config{})
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO items (name) VALUES ('a')") // auto id 1
	_, ws, err := s1.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ApplyWriteSet(ws, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	s2 := e2.NewSession("local")
	mustExec(t, s2, "USE shop")
	_, err = s2.Exec("INSERT INTO items (name) VALUES ('local')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("expected duplicate key from stale counter, got %v", err)
	}
	// With AdvanceCounters the gap is fixed.
	e3, _ := newTestDB(t, Config{})
	if err := e3.ApplyWriteSet(ws, ApplyOptions{AdvanceCounters: true}); err != nil {
		t.Fatal(err)
	}
	s3 := e3.NewSession("local")
	mustExec(t, s3, "USE shop")
	mustExec(t, s3, "INSERT INTO items (name) VALUES ('local')")
}

// TestCommittedImagesAreImmutable: a commit stores the transaction's row as
// both the new version and the write set's After, without copying, so a
// later UPDATE of the row must build a new image rather than write through
// the committed one. A replica applying the event keeps its own copy, and
// logs the origin's write set rather than a second one.
func TestCommittedImagesAreImmutable(t *testing.T) {
	e1, s1 := newTestDB(t, Config{})
	e2, _ := newTestDB(t, Config{})
	from := e1.Binlog().Head()
	mustExec(t, s1, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 3)")
	evs, _ := e1.Binlog().ReadFrom(from, 0)
	after := evs[0].WriteSet.Ops[0].After
	image := after.Clone()
	stored := e1.databases["shop"].tables["items"].rows[0].versions[0].data
	if &stored[0] != &after[0] {
		t.Fatal("the stored version and the write set's After are separate copies")
	}

	mustExec(t, s1, "UPDATE items SET stock = 4 WHERE id = 1")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE items SET stock = stock + 1, name = 'b' WHERE id = 1")
	mustExec(t, s1, "UPDATE items SET stock = stock + 1 WHERE id = 1")
	mustExec(t, s1, "COMMIT")
	if !rowsEqual(after, image) {
		t.Fatalf("committed image changed by later updates: %v, was %v", after, image)
	}

	from2 := e2.Binlog().Head()
	if _, err := e2.ApplyEvents(evs[:1], ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	copied := e2.databases["shop"].tables["items"].rows[0].versions[0].data
	if &copied[0] == &after[0] {
		t.Fatal("replica's stored version shares its backing array with the origin's After")
	}
	if !rowsEqual(copied, image) {
		t.Fatalf("replica stored %v, want %v", copied, image)
	}
	logged, _ := e2.Binlog().ReadFrom(from2, 0)
	if len(logged) != 1 || logged[0].WriteSet != evs[0].WriteSet {
		t.Fatal("replica logged its own write set instead of the origin's")
	}
}

func TestChecksumDivergenceOnRand(t *testing.T) {
	// Two replicas executing the same UPDATE ... SET x = rand() diverge.
	e1, s1 := newTestDB(t, Config{RandSeed: 1})
	e2, s2 := newTestDB(t, Config{RandSeed: 2})
	for _, s := range []*Session{s1, s2} {
		mustExec(t, s, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b')")
		mustExec(t, s, "UPDATE items SET price = RAND()")
	}
	c1, _ := e1.TableChecksum("shop", "items")
	c2, _ := e2.TableChecksum("shop", "items")
	if c1 == c2 {
		t.Fatal("rand() should diverge replicas with different seeds (§4.3.2)")
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	e1, s1 := newTestDB(t, Config{})
	mustExec(t, s1, "INSERT INTO items (name, price) VALUES ('a', 1), ('b', 2)")
	mustExec(t, s1, "CREATE SEQUENCE ord START 50 INCREMENT 1")
	_ = queryInt(t, s1, "SELECT NEXTVAL('ord')") // consume 50

	b, err := e1.Dump(BackupOptions{IncludeSequences: true, IncludeCode: true, IncludeUsers: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := DecodeBackup(data)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{})
	if err := e2.Restore(b2); err != nil {
		t.Fatal(err)
	}
	c1, _ := e1.TableChecksum("shop", "items")
	c2, _ := e2.TableChecksum("shop", "items")
	if c1 != c2 {
		t.Fatalf("restore diverged: %x vs %x", c1, c2)
	}
	s2 := e2.NewSession("x")
	mustExec(t, s2, "USE shop")
	if got := queryInt(t, s2, "SELECT NEXTVAL('ord')"); got != 51 {
		t.Fatalf("sequence position lost: %d, want 51", got)
	}
}

func TestBackupDefaultLosesSequences(t *testing.T) {
	// The zero-options dump reproduces the §4.2.3 gap.
	e1, s1 := newTestDB(t, Config{})
	mustExec(t, s1, "CREATE SEQUENCE ord START 50 INCREMENT 1")
	_ = queryInt(t, s1, "SELECT NEXTVAL('ord')")
	b, err := e1.Dump(BackupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{})
	if err := e2.Restore(b); err != nil {
		t.Fatal(err)
	}
	s2 := e2.NewSession("x")
	mustExec(t, s2, "USE shop")
	if _, err := s2.Exec("SELECT NEXTVAL('ord')"); err == nil {
		t.Fatal("sequence should be missing from a data-only backup (§4.2.3)")
	}
}

func TestBackupConsistentUnderConcurrentWrites(t *testing.T) {
	e, s := newTestDB(t, Config{})
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO items (id, name, stock) VALUES (%d, 'x', 0)", i+1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := e.NewSession("w")
		if _, err := w.Exec("USE shop"); err != nil {
			return
		}
		for i := 0; i < 200; i++ {
			_, _ = w.Exec("UPDATE items SET stock = stock + 1")
		}
	}()
	for i := 0; i < 10; i++ {
		b, err := e.Dump(BackupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Consistency check: within the snapshot all rows must have the
		// same stock value (each update statement bumps all rows at once).
		for _, dd := range b.Databases {
			for _, td := range dd.Tables {
				if td.Name != "items" {
					continue
				}
				first := td.Rows[0][3].Int()
				for _, r := range td.Rows {
					if r[3].Int() != first {
						t.Fatalf("inconsistent snapshot: %d vs %d", r[3].Int(), first)
					}
				}
			}
		}
	}
	<-done
}

func TestParamBinding(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b')")
	res, err := s.ExecArgs("SELECT name FROM items WHERE id = ?", sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestSessionVars(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "SET @x = 41")
	res := mustExec(t, s, "SELECT @x + 1")
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("var: %v", res.Rows)
	}
}

func TestShowStatements(t *testing.T) {
	_, s := newTestDB(t, Config{})
	res := mustExec(t, s, "SHOW DATABASES")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "shop" {
		t.Fatalf("databases: %v", res.Rows)
	}
	res = mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "items" {
		t.Fatalf("tables: %v", res.Rows)
	}
}

func TestDDLNotTransactional(t *testing.T) {
	// §4.1.2: DDL cannot be rolled back.
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE extra (v INTEGER)")
	mustExec(t, s, "ROLLBACK")
	mustExec(t, s, "INSERT INTO extra (v) VALUES (1)") // table survived rollback
}

func TestForUpdateLocks(t *testing.T) {
	e, s := newTestDB(t, Config{LockTimeout: 50 * time.Millisecond})
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (1, 'a')")
	s1 := e.NewSession("t1")
	s2 := e.NewSession("t2")
	mustExec(t, s1, "USE shop")
	mustExec(t, s2, "USE shop")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "SELECT * FROM items WHERE id = 1 FOR UPDATE")
	mustExec(t, s2, "BEGIN")
	_, err := s2.Exec("UPDATE items SET name = 'b' WHERE id = 1")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("expected lock conflict, got %v", err)
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "ROLLBACK")
}

func TestLikeOperator(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name) VALUES ('apple'), ('apricot'), ('banana')")
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items WHERE name LIKE 'ap%'"); got != 2 {
		t.Fatalf("like count = %d", got)
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM items WHERE name LIKE '_anana'"); got != 1 {
		t.Fatalf("underscore like = %d", got)
	}
}

func TestDistinct(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (name, price) VALUES ('a', 1), ('b', 1), ('c', 2)")
	res := mustExec(t, s, "SELECT DISTINCT price FROM items")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct: %v", res.Rows)
	}
}
