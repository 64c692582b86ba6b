package engine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// wantIDs runs a query and compares the first column of its rows with want.
func wantIDs(t *testing.T, s *Session, sql string, want ...int64) {
	t.Helper()
	var got []int64
	for _, r := range mustExec(t, s, sql).Rows {
		got = append(got, r[0].Int())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: ids %v, want %v", sql, got, want)
	}
}

// TestThreeValuedLogic is the regression for AND/OR folding NULL to FALSE
// before an enclosing NOT or IS NULL saw it: with a = NULL, (a = 1 AND b = 2)
// is NULL, so NOT of it is NULL (row dropped) and IS NULL of it is TRUE.
func TestThreeValuedLogic(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
	mustExec(t, s, "INSERT INTO t (id, a, b) VALUES (1, NULL, 2), (2, 1, 2), (3, 5, 2)")
	wantIDs(t, s, "SELECT id FROM t WHERE NOT (a = 1 AND b = 2)", 3)
	wantIDs(t, s, "SELECT id FROM t WHERE (a = 1 AND b = 2) IS NULL", 1)
	wantIDs(t, s, "SELECT id FROM t WHERE NOT (a = 1 OR b = 3)", 3)
	wantIDs(t, s, "SELECT id FROM t WHERE (a = 1 OR b = 3) IS NULL", 1)

	// The Kleene tables, cell by cell.
	for _, tc := range []struct{ expr, want string }{
		{"NULL AND FALSE", "false"}, {"FALSE AND NULL", "false"}, {"NULL AND TRUE", "NULL"}, {"TRUE AND NULL", "NULL"},
		{"NULL OR TRUE", "true"}, {"TRUE OR NULL", "true"}, {"NULL OR FALSE", "NULL"}, {"FALSE OR NULL", "NULL"},
		{"NULL AND NULL", "NULL"}, {"NULL OR NULL", "NULL"}, {"NOT NULL", "NULL"},
		{"TRUE AND TRUE", "true"}, {"TRUE AND FALSE", "false"}, {"FALSE OR FALSE", "false"}, {"FALSE OR TRUE", "true"},
	} {
		if got := mustExec(t, s, "SELECT "+tc.expr).Rows[0][0].Str(); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.expr, got, tc.want)
		}
	}
}

// TestDistinctAndGroupByCompareOnHashHit is the regression for DISTINCT and
// GROUP BY keying on the 64-bit row hash alone. Floats hash through a
// micro-unit truncation, so 0.1 and 0.1000001 are a collision that needs no
// search: two different values, one hash. They must stay two rows and two
// groups.
func TestDistinctAndGroupByCompareOnHashHit(t *testing.T) {
	x, y := sqltypes.NewFloat(0.1), sqltypes.NewFloat(0.1000001)
	if sqltypes.HashValue(x) != sqltypes.HashValue(y) || sqltypes.Equal(x, y) {
		t.Fatal("the test needs two different values with one hash")
	}
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TABLE m (id INT PRIMARY KEY, f FLOAT)")
	mustExec(t, s, "INSERT INTO m (id, f) VALUES (1, 0.1), (2, 0.1000001), (3, 0.1), (4, NULL), (5, NULL)")
	if res := mustExec(t, s, "SELECT DISTINCT f FROM m"); len(res.Rows) != 3 {
		t.Errorf("DISTINCT merged colliding rows: %v", res.Rows)
	}
	res := mustExec(t, s, "SELECT f, COUNT(*) FROM m GROUP BY f")
	got := map[string]int64{}
	for _, r := range res.Rows {
		got[r[0].Str()] = r[1].Int()
	}
	if len(res.Rows) != 3 || got["0.1"] != 2 || got["0.1000001"] != 1 || got["NULL"] != 2 {
		t.Errorf("GROUP BY merged colliding keys: %v", res.Rows)
	}
}

// TestBindResolution covers how a column reference finds its row position:
// alias and table-name qualifiers, the two tables of a join, the left table
// winning an unqualified name both have, and what is reported at bind time —
// before, and regardless of whether, any row is examined.
func TestBindResolution(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "CREATE TABLE orders (id INT PRIMARY KEY, item_id INT, qty INT)")
	mustExec(t, s, "INSERT INTO items (id, name, stock) VALUES (1, 'nut', 5), (2, 'bolt', 7)")
	mustExec(t, s, "INSERT INTO orders (id, item_id, qty) VALUES (10, 1, 3), (11, 2, 4), (12, 2, 9)")

	wantIDs(t, s, "SELECT i.id FROM items i WHERE i.stock = 7", 2)
	wantIDs(t, s, "SELECT items.id FROM items WHERE ITEMS.Stock = 7", 2)
	wantIDs(t, s, "SELECT items.id FROM items i WHERE items.stock = 7", 2) // the name still answers beside an alias
	wantIDs(t, s, "SELECT o.id FROM items i JOIN orders o ON o.item_id = i.id WHERE i.name = 'bolt' AND o.qty > 4", 12)
	wantIDs(t, s, "SELECT orders.id FROM items JOIN orders ON orders.item_id = items.id WHERE qty = 3", 10)
	// Both tables have id: unqualified, the FROM table's wins.
	wantIDs(t, s, "SELECT id FROM items i JOIN orders o ON o.item_id = i.id WHERE o.id = 12", 2)
	wantIDs(t, s, "SELECT o.id FROM orders o WHERE id IN (SELECT id + 9 FROM items)", 10, 11)

	mustExec(t, s, "CREATE TABLE nothing (id INT PRIMARY KEY, v INT)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT nope FROM items", `engine: unknown column "nope"`},
		{"SELECT id FROM items WHERE x.id = 1", `engine: unknown column "x.id"`},
		{"SELECT id FROM items i WHERE i.qty = 1", `engine: unknown column "i.qty"`},
		{"SELECT o.id FROM items i JOIN orders o ON o.item_id = i.id WHERE z.qty = 1", `engine: unknown column "z.qty"`},
		{"SELECT i.id FROM items i JOIN orders o ON o.item_id = i.nope", `engine: unknown column "i.nope"`},
		{"SELECT id FROM items ORDER BY nope", `engine: unknown column "nope"`},
		{"SELECT COUNT(*) FROM items GROUP BY nope", `engine: unknown column "nope"`},
		{"UPDATE items SET stock = nope WHERE id = 1", `engine: unknown column "nope"`},
		{"DELETE FROM items WHERE nope = 1", `engine: unknown column "nope"`},
		{"INSERT INTO items (name) VALUES (nope)", `engine: column "nope" referenced outside row context`},
		{"SELECT nope", `engine: column "nope" referenced outside row context`},
		{"SELECT FROB(id) FROM items", `engine: unknown function "FROB"`},
		{"SELECT MOD(id) FROM items", `engine: MOD: missing argument 2`},
		// Bind-time: reported although the table has no row to evaluate on.
		{"SELECT v FROM nothing WHERE nope = 1", `engine: unknown column "nope"`},
		{"SELECT v FROM nothing WHERE v = ?", `engine: parameter 1 not bound`},
		{"UPDATE nothing SET v = ? WHERE id = 1", `engine: parameter 1 not bound`},
		{"DELETE FROM nothing WHERE v = 1 AND id = ?", `engine: parameter 1 not bound`},
	} {
		if _, err := s.Exec(tc.sql); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.sql, err, tc.want)
		}
	}

	// A procedure parameter is what an unqualified name no table has
	// resolves to, and it folds to a constant: the point predicate below
	// still takes the primary-key path.
	mustExec(t, s, "CREATE PROCEDURE restock(k, n) BEGIN UPDATE items SET stock = stock + n WHERE id = k; END")
	mustExec(t, s, "CALL restock(2, 10)")
	wantIDs(t, s, "SELECT stock FROM items WHERE id = 2", 17)
}

// TestPointPredicateRecognisedOnBoundForm pins which bound predicates take
// the primary-key path in the filter SELECT, UPDATE and DELETE share.
func TestPointPredicateRecognisedOnBoundForm(t *testing.T) {
	e, s := newTestDB(t, Config{})
	items := e.databases["shop"].tables["items"]
	s.vars["k"] = varEntry{val: sqltypes.NewInt(4)}
	args := []sqltypes.Value{sqltypes.NewInt(3)}
	for _, tc := range []struct {
		where string
		key   string // "" when the predicate must scan
	}{
		{"id = 7", "7"}, {"7 = id", "7"}, {"i.id = ?", "3"}, {"items.id = 7.0", "7"}, {"id = @k", "4"},
		{"id = NULL", "NULL"},
		{"id = 7.5", ""}, {"id = '7'", ""}, {"id + 0 = 7", ""}, {"stock = 7", ""}, {"id = 7 AND stock = 1", ""},
		{"id = stock", ""}, {"id > 7", ""},
	} {
		st, err := sqlparse.Parse("SELECT id FROM items i WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		b := newBinder(s, nil, args)
		b.addTable(items, "i", "items")
		where, err := b.bindLocked(st.(*sqlparse.Select).Where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		v, ok := pkPointValue(items, where)
		if ok != (tc.key != "") || (ok && v.Str() != tc.key) {
			t.Errorf("%s: point key %v (ok=%v), want %q", tc.where, v, ok, tc.key)
		}
	}
}

// TestFilteredWritesKeepImages checks UPDATE and DELETE through the shared
// filter on its scan path: rows affected, and the before/after images the
// write set ships, with a row the transaction itself inserted in the mix.
func TestFilteredWritesKeepImages(t *testing.T) {
	_, s := newTestDB(t, Config{})
	mustExec(t, s, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 5), (2, 'b', 6), (3, 'c', 7), (4, 'd', 8)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (id, name, stock) VALUES (5, 'e', 9)")
	if n := mustExec(t, s, "UPDATE items SET stock = stock * 10 WHERE stock >= 7 AND name != 'd'").RowsAffected; n != 2 {
		t.Fatalf("UPDATE affected %d rows, want 2 (ids 3 and 5)", n)
	}
	if n := mustExec(t, s, "DELETE FROM items WHERE stock < 6 OR stock = 90").RowsAffected; n != 2 {
		t.Fatalf("DELETE affected %d rows, want 2 (ids 1 and 5)", n)
	}
	_, ws, err := s.CommitWriteSet()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range ws.Ops {
		img := func(r sqltypes.Row) string {
			if r == nil {
				return "-"
			}
			return r[3].Str()
		}
		got = append(got, fmt.Sprintf("%s %s stock %s->%s", op.Kind, op.PK.Str(), img(op.Before), img(op.After)))
	}
	// Row 5 was inserted, updated and deleted inside the transaction: it
	// never existed outside it and ships nothing.
	want := []string{"UPDATE 3 stock 7->70", "DELETE 1 stock 5->-"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("write set %v, want %v", got, want)
	}
}

// TestUpdateRechecksBoundPredicateAfterLockWait: a read-committed UPDATE that
// waited for a row lock re-evaluates its bound WHERE on the version the other
// transaction committed, and builds its new row from that version.
func TestUpdateRechecksBoundPredicateAfterLockWait(t *testing.T) {
	for _, tc := range []struct {
		name, holder string
		affected     int64
		stock, price int64
	}{
		{"no longer matches", "UPDATE items SET stock = 20 WHERE id = 1", 0, 20, 0},
		{"still matches", "UPDATE items SET price = 3 WHERE id = 1", 1, 11, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, s := newTestDB(t, Config{LockTimeout: 10 * time.Second})
			mustExec(t, s, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 10), (2, 'b', 99)")
			holder, waiter := e.NewSession("holder"), e.NewSession("waiter")
			mustExec(t, holder, "USE shop")
			mustExec(t, waiter, "USE shop")
			mustExec(t, holder, "BEGIN")
			mustExec(t, holder, tc.holder)

			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := waiter.Exec("UPDATE items SET stock = stock + 1 WHERE stock = 10")
				done <- outcome{res, err}
			}()
			// The waiter is inside its statement (it has an implicit
			// transaction) yet the engine lock is free: it can only be
			// parked in the row-lock wait, its WHERE already evaluated.
			for parked := false; !parked; {
				e.mu.Lock()
				parked = waiter.txn != nil
				e.mu.Unlock()
				if !parked {
					time.Sleep(time.Millisecond)
				}
			}
			mustExec(t, holder, "COMMIT")
			out := <-done
			if out.err != nil || out.res.RowsAffected != tc.affected {
				t.Fatalf("waiter: affected %v err %v, want %d", out.res, out.err, tc.affected)
			}
			res := mustExec(t, s, "SELECT stock, price FROM items WHERE id = 1")
			if res.Rows[0][0].Int() != tc.stock || res.Rows[0][1].Int() != tc.price {
				t.Errorf("row 1 = %v, want stock %d price %d", res.Rows[0], tc.stock, tc.price)
			}
		})
	}
}

// ---- differential check of the bound evaluator ----

var (
	fuzzColumns = []Column{{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt},
		{Name: "s", Type: sqltypes.KindString}, {Name: "f", Type: sqltypes.KindFloat}, {Name: "d", Type: sqltypes.KindTime}}
	fuzzRows = []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewString("apple"), sqltypes.NewFloat(1.5), fuzzTime(1)},
		{sqltypes.Null, sqltypes.NewInt(0), sqltypes.NewString("Banana"), sqltypes.Null, fuzzTime(0)},
		{sqltypes.NewInt(-3), sqltypes.Null, sqltypes.Null, sqltypes.NewFloat(-0.5), sqltypes.Null},
		{sqltypes.NewInt(0), sqltypes.NewInt(7), sqltypes.NewString(""), sqltypes.NewFloat(2), fuzzTime(5)},
		{sqltypes.NewInt(10), sqltypes.NewInt(10), sqltypes.NewString("a%b_c"), sqltypes.NewFloat(0), fuzzTime(-10)},
		{sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null},
	}
	fuzzArgs = []sqltypes.Value{sqltypes.NewInt(2), sqltypes.Null, sqltypes.NewString("a%"), sqltypes.NewFloat(0.5)}
	// refFuncs is the arity of each deterministic scalar function (-1: any).
	refFuncs = map[string]int{"ABS": 1, "LOWER": 1, "UPPER": 1, "LENGTH": 1, "MOD": 2, "BUCKET": 2, "COALESCE": -1}
)

var errSkip = fmt.Errorf("not covered by the reference")

// fuzzTime is a TIMESTAMP nanoseconds after the epoch: it compares with
// numbers by its nanosecond count.
func fuzzTime(ns int64) sqltypes.Value { return sqltypes.Value{K: sqltypes.KindTime, I: ns} }

// refResolve is the reference's bind step: every name in the tree must
// resolve, whether or not evaluation would reach it. It reports the first
// failure in source order, or errSkip for constructs the reference leaves
// out (subqueries, session variables, clock, PRNG, sequences).
func refResolve(e sqlparse.Expr) error {
	var kids []sqlparse.Expr
	switch e := e.(type) {
	case *sqlparse.Literal:
	case *sqlparse.VarRef:
		return errSkip
	case *sqlparse.Param:
		if e.Index >= len(fuzzArgs) {
			return fmt.Errorf("engine: parameter %d not bound", e.Index+1)
		}
	case *sqlparse.ColumnRef:
		known := e.Qualifier == "" || strings.EqualFold(e.Qualifier, "t")
		for _, c := range fuzzColumns {
			if known && strings.EqualFold(c.Name, e.Name) {
				return nil
			}
		}
		return fmt.Errorf("engine: unknown column %q", e.SQL())
	case *sqlparse.UnaryExpr:
		kids = []sqlparse.Expr{e.Operand}
	case *sqlparse.IsNullExpr:
		kids = []sqlparse.Expr{e.Operand}
	case *sqlparse.BinaryExpr:
		kids = []sqlparse.Expr{e.Left, e.Right}
	case *sqlparse.BetweenExpr:
		kids = []sqlparse.Expr{e.Operand, e.Lo, e.Hi}
	case *sqlparse.InExpr:
		if e.Sub != nil {
			return errSkip
		}
		kids = append([]sqlparse.Expr{e.Left}, e.List...)
	case *sqlparse.FuncExpr:
		name := strings.ToUpper(e.Name)
		arity, ok := refFuncs[name]
		switch {
		case name == "NOW" || name == "CURRENT_TIMESTAMP" || name == "RAND" || name == "RANDOM" || name == "NEXTVAL":
			return errSkip
		case !ok:
			return fmt.Errorf("engine: unknown function %q", name)
		case len(e.Args) < arity:
			return fmt.Errorf("engine: %s: missing argument %d", name, len(e.Args)+1)
		case arity >= 0:
			kids = e.Args[:arity]
		default:
			kids = e.Args
		}
	}
	for _, k := range kids {
		if err := refResolve(k); err != nil {
			return err
		}
	}
	return nil
}

// refEval is the specification the bound evaluator is checked against,
// written to be read: it walks the AST for every row and finds columns by
// name. Operands are evaluated left to right, all of them, and only then does
// a NULL among them make the result NULL; AND, OR, COALESCE and an IN list
// alone stop early. AND and OR are Kleene's: with FALSE < NULL < TRUE they
// are min and max.
func refEval(e sqlparse.Expr, row sqltypes.Row) (sqltypes.Value, error) {
	null := sqltypes.Null
	all := func(es ...sqlparse.Expr) (vs []sqltypes.Value, anyNull bool, err error) {
		for _, x := range es {
			v, err := refEval(x, row)
			if err != nil {
				return nil, false, err
			}
			vs, anyNull = append(vs, v), anyNull || v.IsNull()
		}
		return vs, anyNull, nil
	}
	rank := func(v sqltypes.Value) int { // FALSE 0, NULL 1, TRUE 2
		switch {
		case v.IsNull():
			return 1
		case v.Bool():
			return 2
		}
		return 0
	}
	ranked := [...]sqltypes.Value{sqltypes.NewBool(false), null, sqltypes.NewBool(true)}

	switch e := e.(type) {
	case *sqlparse.Literal:
		return e.Val, nil
	case *sqlparse.Param:
		return fuzzArgs[e.Index], nil
	case *sqlparse.ColumnRef:
		for i, c := range fuzzColumns {
			if strings.EqualFold(c.Name, e.Name) {
				return row[i], nil
			}
		}
	case *sqlparse.IsNullExpr:
		v, err := refEval(e.Operand, row)
		return sqltypes.NewBool(v.IsNull() != e.Negate), err
	case *sqlparse.UnaryExpr:
		vs, anyNull, err := all(e.Operand)
		switch {
		case err != nil || anyNull:
			return null, err
		case e.Op == "NOT":
			return sqltypes.NewBool(!vs[0].Bool()), nil
		case vs[0].Kind() == sqltypes.KindFloat:
			return sqltypes.NewFloat(-vs[0].Float()), nil
		}
		return sqltypes.NewInt(-vs[0].Int()), nil
	case *sqlparse.BetweenExpr:
		vs, anyNull, err := all(e.Operand, e.Lo, e.Hi)
		if err != nil || anyNull {
			return null, err
		}
		in := sqltypes.Compare(vs[0], vs[1]) >= 0 && sqltypes.Compare(vs[0], vs[2]) <= 0
		return sqltypes.NewBool(in != e.Negate), nil
	case *sqlparse.InExpr:
		l, err := refEval(e.Left, row)
		if err != nil || l.IsNull() {
			return null, err
		}
		for _, item := range e.List {
			if v, err := refEval(item, row); err != nil {
				return null, err
			} else if sqltypes.Equal(v, l) {
				return sqltypes.NewBool(!e.Negate), nil
			}
		}
		return sqltypes.NewBool(e.Negate), nil
	case *sqlparse.BinaryExpr:
		if e.Op == "AND" || e.Op == "OR" {
			decides := map[string]int{"AND": 0, "OR": 2}[e.Op] // the operand value that settles the result alone
			l, err := refEval(e.Left, row)
			if err != nil || rank(l) == decides {
				return ranked[decides], err
			}
			r, err := refEval(e.Right, row)
			if err != nil {
				return null, err
			}
			if e.Op == "AND" {
				return ranked[min(rank(l), rank(r))], nil
			}
			return ranked[max(rank(l), rank(r))], nil
		}
		vs, anyNull, err := all(e.Left, e.Right)
		if err != nil || anyNull {
			return null, err
		}
		c := sqltypes.Compare(vs[0], vs[1])
		switch e.Op {
		case "=":
			return sqltypes.NewBool(c == 0), nil
		case "!=":
			return sqltypes.NewBool(c != 0), nil
		case "<":
			return sqltypes.NewBool(c < 0), nil
		case "<=":
			return sqltypes.NewBool(c <= 0), nil
		case ">":
			return sqltypes.NewBool(c > 0), nil
		case ">=":
			return sqltypes.NewBool(c >= 0), nil
		case "LIKE":
			pat := regexp.QuoteMeta(vs[1].Str())
			pat = strings.NewReplacer("%", ".*", "_", ".").Replace(pat)
			return sqltypes.NewBool(regexp.MustCompile("(?s)^" + pat + "$").MatchString(vs[0].Str())), nil
		}
		return sqltypes.Arith(e.Op, vs[0], vs[1])
	case *sqlparse.FuncExpr:
		name := strings.ToUpper(e.Name)
		if name == "COALESCE" {
			for _, a := range e.Args {
				if v, err := refEval(a, row); err != nil || !v.IsNull() {
					return v, err
				}
			}
			return null, nil
		}
		vs, anyNull, err := all(e.Args[:refFuncs[name]]...)
		if err != nil || anyNull {
			return null, err
		}
		switch v := vs[0]; name {
		case "ABS":
			if v.Kind() == sqltypes.KindFloat {
				return sqltypes.NewFloat(max(v.Float(), -v.Float())), nil
			}
			return sqltypes.NewInt(max(v.Int(), -v.Int())), nil
		case "LOWER":
			return sqltypes.NewString(strings.ToLower(v.Str())), nil
		case "UPPER":
			return sqltypes.NewString(strings.ToUpper(v.Str())), nil
		case "LENGTH":
			return sqltypes.NewInt(int64(len(v.Str()))), nil
		case "MOD":
			return sqltypes.Arith("%", v, vs[1])
		case "BUCKET":
			if vs[1].Int() <= 0 {
				return null, fmt.Errorf("engine: BUCKET needs a positive bucket count, got %d", vs[1].Int())
			}
			return sqltypes.NewInt(int64(sqltypes.HashValue(v) % uint64(vs[1].Int()))), nil
		}
	}
	return null, fmt.Errorf("reference: cannot evaluate %T", e)
}

// FuzzBoundEval parses the input as one SELECT item over t(a, b, s, f, d),
// binds it, and compares three evaluations on rows that carry NULLs in every
// position: refEval, the bound evaluator, and the predicate kernel on the
// bound tree. eval must match the reference's error text, NULL-ness,
// kind and value; the kernel its error text and its truth as a predicate.
// The seeds walk the expression grammar FuzzParse's corpus exercises, every
// kernel node, and every pair of kinds the kernel hands to sqltypes.Compare.
func FuzzBoundEval(f *testing.F) {
	for _, seed := range []string{
		"a = 1", "a != b", "a < b", "a <= 2", "b > a", "f >= 0.5", "a = ?", "s = 'apple'", "1 = 1.0", "s < 5",
		"a + b", "a - 1", "a * f", "a / b", "a % 3", "b / 0", "f / 0", "1 % 0", "s + 'x'", "s || s", "-a", "-f", "- -a",
		"a = 1 AND b = 2", "a = 1 OR b = 0", "NOT a = 1", "NOT (a = 1 AND b = 2)", "(a = 1 AND b = 2) IS NULL",
		"NULL AND b / 0 = 1", "a = 1 OR b / 0 = 1", "a = 1 AND b / 0 = 1", "NOT NULL", "NOT s", "a AND f",
		"a IS NULL", "s IS NOT NULL", "(a + b) IS NULL",
		"a BETWEEN 0 AND 5", "a NOT BETWEEN b AND 10", "f BETWEEN ? AND ?", "a BETWEEN NULL AND 1 / 0",
		"a IN (1, 2, 3)", "a NOT IN (b, 10)", "s IN ('apple', NULL)", "a IN (NULL)", "a IN (10, 1 / 0)", "? IN (a, b)",
		"s LIKE 'a%'", "s LIKE '_pple'", "s LIKE ?", "s NOT LIKE '%a%'", "s LIKE '%'", "s LIKE 'a%b_c'", "a LIKE '1%'",
		"ABS(a)", "ABS(f)", "ABS(s)", "LOWER(s)", "UPPER(s)", "LENGTH(s)", "LENGTH(a)", "MOD(a, 3)", "MOD(a, 0)",
		"a % f", "3 % 0.5", "BUCKET(a, 8)", "BUCKET(s, b)", "BUCKET(a, 0)", "COALESCE(a, b, 0)", "COALESCE(NULL, s)", "COALESCE()",
		"COALESCE(a, 1 / 0)", "UPPER(s) LIKE 'A%' AND f IS NOT NULL", "a = b AND NOT (a < b OR b >= f) AND s != 'x'",
		"t.a = T.B", "x.a = 1", "nope", "FROB(a)", "MOD(a)", "a = ? AND b = ? AND s = ? AND f = ? AND a = ?", "COUNT(*)",
		"TRUE", "FALSE OR NULL", "1 + 2 * 3", "-1", "'it''s'", "1e308 * 10 - 1e308 * 10",
		// Kernel nodes, and the cross-kind pairs they hand to Compare.
		"1 < a", "a >= b", "f >= a", "a = 1.5", "s = a", "a != s", "d > a", "d = 1", "a <= d", "d BETWEEN a AND 5",
		"b = ? OR a = ?", "NULL IS NULL", "? IS NOT NULL", "a BETWEEN b AND 10", "NOT (a BETWEEN b AND 1 / 0)",
		"a IN (1, NULL, b)", "a NOT IN (NULL, 2)", "f IN (1, 2)", "d IN (0, 5)", "NOT (a < 1 OR s IS NULL)",
		"a = 1 AND NOT b IS NULL AND f BETWEEN -1 AND 2 AND s IN ('apple', '')",
	} {
		f.Add(seed)
	}
	s := New(Config{}).NewSession("fuzz")
	table := newTable("t", fuzzColumns, false)
	f.Fuzz(func(t *testing.T, expr string) {
		for i := 0; i < len(expr); i++ {
			if expr[i] >= 0x80 { // LIKE matches bytes, the reference's regexp runes
				t.Skip()
			}
		}
		st, err := sqlparse.Parse("SELECT " + expr + " FROM t")
		if err != nil {
			t.Skip()
		}
		sel, ok := st.(*sqlparse.Select)
		if !ok || len(sel.Items) == 0 || sel.Items[0].Star {
			t.Skip()
		}
		e := sel.Items[0].Expr
		b := newBinder(s, nil, fuzzArgs)
		b.addTable(table, sel.FromAlias, "t")
		n, bindErr := b.bindLocked(e)
		refErr := refResolve(e)
		if refErr == errSkip {
			t.Skip()
		}
		if fmt.Sprint(bindErr) != fmt.Sprint(refErr) {
			t.Fatalf("%s: bind error %v, reference %v", e.SQL(), bindErr, refErr)
		}
		if bindErr != nil {
			return
		}
		for _, row := range fuzzRows {
			got, gotErr := b.eval(n, row)
			want, wantErr := refEval(e, row)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s on %v: error %v, reference %v", e.SQL(), row, gotErr, wantErr)
			}
			if gotErr == nil && (got.Kind() != want.Kind() || !sqltypes.Equal(got, want)) {
				t.Fatalf("%s on %v: %s %v, reference %s %v", e.SQL(), row, got.Kind(), got, want.Kind(), want)
			}
			kt, kErr := b.test(n, row)
			if fmt.Sprint(kErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s on %v: kernel error %v, reference %v", e.SQL(), row, kErr, wantErr)
			}
			wantTruth := tFalse
			switch {
			case want.IsNull():
				wantTruth = tNull
			case want.Bool():
				wantTruth = tTrue
			}
			if wantErr == nil && kt != wantTruth {
				t.Fatalf("%s on %v: kernel truth %d, reference %v", e.SQL(), row, kt, want)
			}
		}
	})
}
