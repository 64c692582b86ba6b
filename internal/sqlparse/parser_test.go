package sqlparse

import (
	"testing"
	"time"

	"repro/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseCreateDatabase(t *testing.T) {
	st := mustParse(t, "CREATE DATABASE shop")
	cd, ok := st.(*CreateDatabase)
	if !ok || cd.Name != "shop" {
		t.Fatalf("got %#v", st)
	}
	st = mustParse(t, "create database if not exists shop")
	if cd := st.(*CreateDatabase); !cd.IfNotExists {
		t.Error("IF NOT EXISTS not parsed")
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE items (
		id INTEGER PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR(64) NOT NULL,
		price FLOAT DEFAULT 0,
		stock INT,
		active BOOLEAN
	)`)
	ct := st.(*CreateTable)
	if ct.Table.Name != "items" || len(ct.Columns) != 5 {
		t.Fatalf("got %#v", ct)
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].AutoIncrement {
		t.Error("id flags wrong")
	}
	if !ct.Columns[1].NotNull {
		t.Error("name should be NOT NULL")
	}
	if ct.Columns[2].Default == nil {
		t.Error("price default missing")
	}
}

func TestParseCreateTempTable(t *testing.T) {
	st := mustParse(t, "CREATE TEMP TABLE scratch (v INT)")
	if !st.(*CreateTable).Temp {
		t.Error("TEMP flag not set")
	}
	st = mustParse(t, "CREATE TEMPORARY TABLE scratch (v INT)")
	if !st.(*CreateTable).Temp {
		t.Error("TEMPORARY flag not set")
	}
}

func TestParseQualifiedTable(t *testing.T) {
	st := mustParse(t, "INSERT INTO reporting.audit (v) VALUES (1)")
	ins := st.(*Insert)
	if ins.Table.Database != "reporting" || ins.Table.Name != "audit" {
		t.Fatalf("got %#v", ins.Table)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := st.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("got %#v", ins)
	}
}

func TestParseUpdateWhere(t *testing.T) {
	st := mustParse(t, "UPDATE t SET a = a + 1, b = 'z' WHERE id = 7 AND b != 'q'")
	up := st.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("got %#v", up)
	}
	if up.IsRead() {
		t.Error("UPDATE must not be a read")
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM t WHERE id IN (1, 2, 3)")
	del := st.(*Delete)
	if del.Where == nil {
		t.Fatal("WHERE missing")
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT id, name AS n, price * 2
		FROM items
		WHERE price >= 10 AND name LIKE 'a%'
		ORDER BY price DESC, id
		LIMIT 5 OFFSET 2`)
	sel := st.(*Select)
	if len(sel.Items) != 3 {
		t.Fatalf("items: %#v", sel.Items)
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by: %#v", sel.OrderBy)
	}
	if sel.Limit != 5 || sel.Offset != 2 {
		t.Errorf("limit/offset: %d/%d", sel.Limit, sel.Offset)
	}
	if !sel.IsRead() {
		t.Error("SELECT should be a read")
	}
}

func TestParseSelectForUpdate(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE id = 1 FOR UPDATE")
	sel := st.(*Select)
	if !sel.ForUpdate {
		t.Fatal("FOR UPDATE not parsed")
	}
	if sel.IsRead() {
		t.Error("SELECT FOR UPDATE is not a pure read")
	}
}

func TestParseSelectJoin(t *testing.T) {
	st := mustParse(t, "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust = c.id WHERE o.total > 10")
	sel := st.(*Select)
	if sel.Join == nil || sel.Join.Table.Name != "customers" || sel.Join.Alias != "c" {
		t.Fatalf("join: %#v", sel.Join)
	}
	tabs := sel.Tables()
	if len(tabs) != 2 {
		t.Errorf("Tables() = %v", tabs)
	}
}

func TestParseSelectAggregates(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM items")
	sel := st.(*Select)
	if len(sel.Items) != 5 {
		t.Fatalf("items: %d", len(sel.Items))
	}
	fn := sel.Items[0].Expr.(*FuncExpr)
	if fn.Name != "COUNT" || !fn.Star {
		t.Errorf("COUNT(*): %#v", fn)
	}
}

func TestParseSelectGroupBy(t *testing.T) {
	st := mustParse(t, "SELECT cat, COUNT(*) FROM items GROUP BY cat")
	sel := st.(*Select)
	if len(sel.GroupBy) != 1 {
		t.Fatalf("group by: %#v", sel.GroupBy)
	}
}

func TestParseSelectNoTable(t *testing.T) {
	st := mustParse(t, "SELECT 1 + 2")
	sel := st.(*Select)
	if !sel.NoTable {
		t.Fatal("NoTable not set")
	}
}

func TestParseSubquery(t *testing.T) {
	st := mustParse(t, "UPDATE foo SET keyvalue = 'x' WHERE id IN (SELECT id FROM foo WHERE keyvalue IS NULL LIMIT 10)")
	up := st.(*Update)
	in := up.Where.(*InExpr)
	if in.Sub == nil || in.Sub.Limit != 10 {
		t.Fatalf("subquery: %#v", in.Sub)
	}
}

func TestParseTransactions(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginTxn); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "START TRANSACTION").(*BeginTxn); !ok {
		t.Error("START TRANSACTION")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitTxn); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*RollbackTxn); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseSetIsolation(t *testing.T) {
	cases := map[string]string{
		"SET ISOLATION LEVEL READ COMMITTED": "READ COMMITTED",
		"SET ISOLATION LEVEL SNAPSHOT":       "SNAPSHOT",
		"SET ISOLATION LEVEL SERIALIZABLE":   "SERIALIZABLE",
	}
	for sql, want := range cases {
		st := mustParse(t, sql)
		if got := st.(*SetIsolation).Level; got != want {
			t.Errorf("%s -> %q", sql, got)
		}
	}
}

func TestParseSequences(t *testing.T) {
	st := mustParse(t, "CREATE SEQUENCE order_ids START 100 INCREMENT 2")
	cs := st.(*CreateSequence)
	if cs.Start != 100 || cs.Increment != 2 {
		t.Fatalf("got %#v", cs)
	}
	sel := mustParse(t, "SELECT NEXTVAL('order_ids')").(*Select)
	fn := sel.Items[0].Expr.(*FuncExpr)
	if fn.Name != "NEXTVAL" {
		t.Fatalf("got %#v", fn)
	}
}

func TestParseTrigger(t *testing.T) {
	st := mustParse(t, "CREATE TRIGGER audit_ins AFTER INSERT ON orders DO INSERT INTO reporting.audit (what) VALUES ('order')")
	tr := st.(*CreateTrigger)
	if tr.Event != "INSERT" || tr.Table.Name != "orders" {
		t.Fatalf("got %#v", tr)
	}
	if _, ok := tr.Body.(*Insert); !ok {
		t.Fatalf("body: %#v", tr.Body)
	}
}

func TestParseProcedure(t *testing.T) {
	st := mustParse(t, "CREATE PROCEDURE bump(amount) BEGIN UPDATE t SET v = v + amount; SELECT v FROM t; END")
	cp := st.(*CreateProcedure)
	if len(cp.Params) != 1 || len(cp.Body) != 2 {
		t.Fatalf("got %#v", cp)
	}
	call := mustParse(t, "CALL bump(5)").(*Call)
	if call.Name != "bump" || len(call.Args) != 1 {
		t.Fatalf("got %#v", call)
	}
}

func TestParseUserAndGrant(t *testing.T) {
	cu := mustParse(t, "CREATE USER app IDENTIFIED BY 'secret'").(*CreateUser)
	if cu.Name != "app" || cu.Password != "secret" {
		t.Fatalf("got %#v", cu)
	}
	g := mustParse(t, "GRANT ON shop TO app").(*Grant)
	if g.Database != "shop" || g.User != "app" {
		t.Fatalf("got %#v", g)
	}
}

func TestParseScriptMulti(t *testing.T) {
	stmts, err := ParseScript("BEGIN; UPDATE t SET a=1; COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := mustParse(t, "SELECT 'it''s'").(*Select)
	lit := sel.Items[0].Expr.(*Literal)
	if lit.Val.Str() != "it's" {
		t.Errorf("got %q", lit.Val.Str())
	}
}

func TestParseComments(t *testing.T) {
	st := mustParse(t, "SELECT 1 -- trailing\n/* block */ + 2")
	if st == nil {
		t.Fatal("nil")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM",
		"INSERT INTO t VALUES",
		"UPDATE t",
		"CREATE TABLE t",
		"SELECT 'unterminated",
		"DELETE t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseParams(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE id = ? AND name = ?")
	var params []int
	walkStatementExprs(st, func(e Expr) {
		if p, ok := e.(*Param); ok {
			params = append(params, p.Index)
		}
	})
	if len(params) != 2 || params[0] != 0 || params[1] != 1 {
		t.Errorf("params: %v", params)
	}
}

func TestSQLRoundTrip(t *testing.T) {
	// Statements must render back to parseable SQL that renders identically
	// (fixed point after one round) — DDL shipping and the recovery log
	// depend on it.
	cases := []string{
		"CREATE DATABASE shop",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
		"CREATE TEMP TABLE s (v INTEGER)",
		"INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')",
		"UPDATE t SET v = 'x' WHERE id = 1",
		"DELETE FROM t WHERE id BETWEEN 1 AND 5",
		"SELECT id, v FROM t WHERE v LIKE 'a%' ORDER BY id DESC LIMIT 3",
		"SELECT COUNT(*) FROM t",
		"SELECT o.id FROM orders o JOIN lines l ON o.id = l.oid WHERE l.qty > 2",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		"UPDATE t SET v = NOW() WHERE id = 1",
		"SELECT * FROM t WHERE id IN (SELECT id FROM u WHERE x IS NOT NULL)",
		"CREATE SEQUENCE s START 5 INCREMENT 2",
		"CALL proc(1, 'x')",
	}
	for _, sql := range cases {
		st1 := mustParse(t, sql)
		r1 := st1.SQL()
		st2, err := Parse(r1)
		if err != nil {
			t.Errorf("re-parse of %q (-> %q): %v", sql, r1, err)
			continue
		}
		r2 := st2.SQL()
		if r1 != r2 {
			t.Errorf("not a fixed point:\n  first:  %q\n  second: %q", r1, r2)
		}
	}
}

func TestTablesForConflictScheduling(t *testing.T) {
	st := mustParse(t, "UPDATE a SET v = 1")
	if got := st.Tables(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Tables() = %v", got)
	}
	st = mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.id IN (SELECT id FROM c)")
	got := st.Tables()
	if len(got) != 3 {
		t.Errorf("Tables() = %v, want a,b,c", got)
	}
	// CALL has unknown table footprint (§4.2.1): must return nil.
	st = mustParse(t, "CALL p()")
	if got := st.Tables(); got != nil {
		t.Errorf("CALL Tables() = %v, want nil", got)
	}
}

func TestParseTimeParsesAsTimestampLiteralRoundTrip(t *testing.T) {
	at := time.Date(2008, 6, 9, 12, 0, 0, 0, time.UTC)
	st := mustParse(t, "INSERT INTO t (ts) VALUES (?)")
	out, err := BindParams(st, []sqltypes.Value{sqltypes.NewTime(at)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(out.SQL()); err != nil {
		t.Fatalf("bound SQL unparseable: %v\n%s", err, out.SQL())
	}
}

// TestSelectTablesIncludesSubqueriesEverywhere: consumers that invalidate
// or schedule by table footprint (query result cache, parallel log replay)
// need subquery tables from every clause, not just WHERE.
func TestSelectTablesIncludesSubqueriesEverywhere(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT a FROM t1 WHERE x IN (SELECT y FROM t2)", "t2"},
		{"SELECT a FROM t1 JOIN j1 ON x IN (SELECT y FROM t3)", "t3"},
		{"SELECT x IN (SELECT y FROM t4) FROM t1", "t4"},
		{"SELECT a FROM t1 ORDER BY x IN (SELECT y FROM t5)", "t5"},
		{"SELECT a FROM t1 GROUP BY x IN (SELECT y FROM t6)", "t6"},
		{"SELECT a FROM t1 WHERE x IN (SELECT y FROM t7 WHERE z IN (SELECT w FROM t8))", "t8"},
	}
	for _, tc := range cases {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		found := false
		for _, tab := range st.Tables() {
			if tab == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Tables() = %v, missing %s", tc.sql, st.Tables(), tc.want)
		}
	}
}
