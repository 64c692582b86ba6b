package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// These benchmarks and the allocation budget guard the scan path: a
// statement binds its expressions once, filters rows where they are stored
// and allocates only for the rows it returns. The shapes are the repository
// benchmark's scan-read workload (2 000 rows in 50 groups of 40, an
// unindexed two-term predicate) run on a bare engine.

const (
	scanRows   = 2000
	scanGroups = 50
)

// newScanEngine seeds scan_t (the scan-read table) and grp_t (one row per
// group, the join's other side).
func newScanEngine(tb testing.TB) *Session {
	tb.Helper()
	s := New(Config{}).NewSession("bench")
	if err := s.ExecScript("CREATE DATABASE shop; USE shop;" +
		"CREATE TABLE scan_t (id INT PRIMARY KEY, grp INT, name VARCHAR, stock INT);" +
		"CREATE TABLE grp_t (id INT PRIMARY KEY, label VARCHAR);"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < scanRows; i++ {
		mustExec(tb, s, "INSERT INTO scan_t (id, grp, name, stock) VALUES (?, ?, ?, ?)",
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%scanGroups)),
			sqltypes.NewString(fmt.Sprintf("row-%d", i)), sqltypes.NewInt(1000))
	}
	for g := 0; g < scanGroups; g++ {
		mustExec(tb, s, "INSERT INTO grp_t (id, label) VALUES (?, ?)",
			sqltypes.NewInt(int64(g)), sqltypes.NewString(fmt.Sprintf("group-%d", g)))
	}
	return s
}

func mustPrepare(tb testing.TB, s *Session, sql string) *Stmt {
	tb.Helper()
	st, err := s.Prepare(sql)
	if err != nil {
		tb.Fatalf("%s: %v", sql, err)
	}
	return st
}

const (
	scanSelectSQL = "SELECT id, name, stock FROM scan_t WHERE grp = ? AND stock >= ?"
	scanUpdateSQL = "UPDATE scan_t SET stock = stock - 1 WHERE grp = ? AND stock >= ?"
	scanDeleteSQL = "DELETE FROM scan_t WHERE grp = ? AND stock >= ?"
	scanJoinSQL   = "SELECT t.id, g.label FROM scan_t t JOIN grp_t g ON t.grp = g.id WHERE g.id = ? AND t.stock >= ?"
	scanPerGroup  = scanRows / scanGroups
)

// BenchmarkScanFilter runs the shared filter under each statement kind that
// uses it. update and delete run in a transaction that is rolled back, so
// every iteration sees the same table.
func BenchmarkScanFilter(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		s := newScanEngine(b)
		defer s.Close()
		st := mustPrepare(b, s, scanSelectSQL)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := st.Exec(sqltypes.NewInt(int64(i%scanGroups)), sqltypes.NewInt(int64(i%7)))
			if err != nil || len(res.Rows) != scanPerGroup {
				b.Fatalf("rows=%d err=%v", len(res.Rows), err)
			}
		}
	})
	inTxn := func(b *testing.B, sql string) {
		s := newScanEngine(b)
		defer s.Close()
		st := mustPrepare(b, s, sql)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustExec(b, s, "BEGIN")
			res, err := st.Exec(sqltypes.NewInt(int64(i%scanGroups)), sqltypes.NewInt(int64(i%7)))
			if err != nil || res.RowsAffected != scanPerGroup {
				b.Fatalf("affected=%d err=%v", res.RowsAffected, err)
			}
			mustExec(b, s, "ROLLBACK")
		}
	}
	b.Run("update", func(b *testing.B) {
		inTxn(b, scanUpdateSQL)
	})
	b.Run("delete", func(b *testing.B) {
		inTxn(b, scanDeleteSQL)
	})
	b.Run("join", func(b *testing.B) {
		s := newScanEngine(b)
		defer s.Close()
		st := mustPrepare(b, s, scanJoinSQL)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := st.Exec(sqltypes.NewInt(int64(i%scanGroups)), sqltypes.NewInt(int64(i%7)))
			if err != nil || len(res.Rows) != scanPerGroup {
				b.Fatalf("rows=%d err=%v", len(res.Rows), err)
			}
		}
	})
}

// TestScanAllocBudget pins what the scan path allocates. The scan examines
// 2 000 rows and returns 40, and costs about a dozen allocations; anything
// allocated per row examined costs 2 000, so a budget of 150 leaves room for
// unrelated growth but not for that. The prepared primary-key point SELECT
// is held to the 15 allocations it cost when expressions were interpreted
// from the AST: binding must not tax one-row statements.
func TestScanAllocBudget(t *testing.T) {
	s := newScanEngine(t)
	defer s.Close()
	scan := mustPrepare(t, s, scanSelectSQL)
	point := mustPrepare(t, s, "SELECT id, name, stock FROM scan_t WHERE id = ?")
	for _, tc := range []struct {
		name   string
		st     *Stmt
		args   []sqltypes.Value
		rows   int
		budget float64
	}{
		{"scan", scan, []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewInt(3)}, scanPerGroup, 150},
		{"point", point, []sqltypes.Value{sqltypes.NewInt(7)}, 1, 15},
	} {
		got := testing.AllocsPerRun(100, func() {
			res, err := tc.st.Exec(tc.args...)
			if err != nil || len(res.Rows) != tc.rows {
				t.Fatalf("%s: rows=%d err=%v", tc.name, len(res.Rows), err)
			}
		})
		t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs/op, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestScanPredicateInPlace pins that every predicate BenchmarkScanFilter
// runs — the WHERE of its select, update, delete and join, and the join's
// ON — is tested by the predicate kernel alone, with no leaf that falls back
// to eval. A fallback leaf evaluates through the recursive value evaluator,
// which is what made a scan cost about 120 ns per row examined.
func TestScanPredicateInPlace(t *testing.T) {
	s := newScanEngine(t)
	defer s.Close()
	tables := s.eng.databases["shop"].tables
	for _, sql := range []string{scanSelectSQL, scanUpdateSQL, scanDeleteSQL, scanJoinSQL} {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		b := newBinder(s, nil, []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewInt(3)})
		var preds []sqlparse.Expr
		switch st := st.(type) {
		case *sqlparse.Select:
			b.addTable(tables[st.From.Name], st.FromAlias, st.From.Name)
			if st.Join != nil {
				b.addTable(tables[st.Join.Table.Name], st.Join.Alias, st.Join.Table.Name)
				preds = append(preds, st.Join.On)
			}
			preds = append(preds, st.Where)
		case *sqlparse.Update:
			b.addTable(tables[st.Table.Name], "", st.Table.Name)
			preds = append(preds, st.Where)
		case *sqlparse.Delete:
			b.addTable(tables[st.Table.Name], "", st.Table.Name)
			preds = append(preds, st.Where)
		}
		for _, e := range preds {
			p, err := b.bindLocked(e)
			if err != nil {
				t.Fatalf("%s: %s: %v", sql, e.SQL(), err)
			}
			if n := evalLeaves(p); n != 0 {
				t.Errorf("%s (in %s): %d leaves fall back to eval", e.SQL(), sql, n)
			}
		}
	}
}

// evalLeaves counts the nodes of a bound predicate that binder.test
// reaches and answers through eval.
func evalLeaves(n *bexpr) int {
	switch n.op {
	case opAnd, opOr:
		return evalLeaves(n.first) + evalLeaves(n.first.next)
	case opNot:
		return evalLeaves(n.first)
	case opEq, opNe, opLt, opLe, opGt, opGe, opIsNull, opBetween, opIn:
		if operands(n) {
			return 0
		}
	}
	return 1
}
