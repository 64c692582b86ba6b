package sqlparse

import "testing"

// FuzzParse feeds arbitrary text to the parser. Invariants:
//
//  1. Parse never panics (errors are fine);
//  2. a successfully parsed statement renders to SQL that parses again
//     (replicas replay rendered statement text, so an unparseable render
//     would break every slave);
//  3. the render is a fixed point: render(parse(render(st))) == render(st);
//  4. ParseCached agrees with Parse.
//
// `go test` exercises the seed corpus below; `go test -fuzz=FuzzParse`
// explores from it.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT id, name FROM items WHERE id = 7",
		"SELECT * FROM shop.items i JOIN orders o ON i.id = o.item_id WHERE o.qty > 3 ORDER BY i.id DESC LIMIT 10 OFFSET 2",
		"SELECT COUNT(*), SUM(qty) FROM items WHERE qty BETWEEN 1 AND 9 GROUP BY price",
		"SELECT DISTINCT name FROM items WHERE id IN (1, 2, 3) FOR UPDATE",
		"SELECT name FROM items WHERE id IN (SELECT item_id FROM orders WHERE qty > 1)",
		"SELECT UPPER(name) AS n FROM items WHERE name LIKE 'a%' AND price IS NOT NULL",
		"INSERT INTO items (id, name) VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO items VALUES (?, ?, NOW(), RAND())",
		"UPDATE items SET qty = qty + 1, name = 'z' WHERE id = ?",
		"DELETE FROM shop.items WHERE price < 0.5 OR qty = 0",
		"CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v VARCHAR NOT NULL, q INT DEFAULT 0, u FLOAT UNIQUE)",
		"CREATE TEMP TABLE scratch (k INT, v VARCHAR)",
		"DROP TABLE IF EXISTS t",
		"CREATE DATABASE IF NOT EXISTS shop",
		"DROP DATABASE shop",
		"USE shop",
		"CREATE SEQUENCE seq START 5 INCREMENT 2",
		"DROP SEQUENCE seq",
		"CREATE TRIGGER tr AFTER INSERT ON items DO UPDATE audit.log SET n = n + 1",
		"DROP TRIGGER tr",
		"CREATE PROCEDURE p(a, b) BEGIN INSERT INTO t VALUES (a, b); UPDATE t SET v = b WHERE id = a; END",
		"DROP PROCEDURE p",
		"CALL p(1, 'x')",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		"SET ISOLATION LEVEL SNAPSHOT",
		"SET @x = 1 + 2 * 3",
		"SHOW TABLES",
		"SHOW DATABASES",
		"CREATE USER alice IDENTIFIED BY 's3cret'",
		"GRANT ON shop TO alice",
		"SELECT -1, NOT TRUE, NULL",
		"SELECT 'it''s quoted', \"db\"",
		"SELECT nextval('shop.seq')",
		"SELECT x FROM t WHERE a = b AND NOT (c < d OR e >= f) AND g != h",
		"",
		";;;",
		"SELECT",
		"SELECT * FROM",
		"INSERT INTO t VALUES",
		"\x00\xff",
		"SELECT 9223372036854775807, -9223372036854775808, 1.5e300",
		// Regression: %g-rendered floats must lex back (found by fuzzing).
		"SELECT 1000000.",
		"SELECT 1e+06, 2.5E-3, 7e9",
		// Regression: non-UTF-8 bytes must not lex as identifiers.
		"SELECT \xf9()",
		// Regression: negative-zero float literals must render stably.
		"SELECT 2.01%-0e0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql) // must not panic
		if err != nil {
			return
		}
		rendered := st.SQL()
		st2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("render of %q does not reparse: %q: %v", sql, rendered, err)
		}
		if again := st2.SQL(); again != rendered {
			t.Fatalf("render not a fixed point: %q -> %q", rendered, again)
		}
		if _, err := ParseCached(sql); err != nil {
			t.Fatalf("ParseCached disagrees with Parse on %q: %v", sql, err)
		}
	})
}
