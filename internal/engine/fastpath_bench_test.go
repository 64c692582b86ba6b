package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// These benchmarks and threshold tests measure the PR-2 tentpole: the
// statement fast path. Point lookups on a primary key resolve through the
// per-table pk index instead of a full MVCC scan, and prepared/cached
// execution skips the parser. The threshold tests enforce the acceptance
// ratios the same way TestParallelReadThroughputScales guards PR-1: by
// timing the two paths in-process, so the bounds hold under -race and on
// slow hosts.

// fastPathRows is the table size the point-lookup acceptance criterion is
// stated against.
const fastPathRows = 10000

// newFastPathEngine seeds a 10k-row keyed table. Seeding itself leans on
// the fast path twice: a prepared INSERT (no re-parse per row) and the pk
// index behind the uniqueness check (without it, bulk insert is O(n²)).
func newFastPathEngine(tb testing.TB, rows int) (*Engine, *Session) {
	tb.Helper()
	eng := New(Config{})
	s := eng.NewSession("bench")
	script := "CREATE DATABASE shop; USE shop;" +
		"CREATE TABLE items (id INT PRIMARY KEY, name VARCHAR, qty INT, price FLOAT);"
	if err := s.ExecScript(script); err != nil {
		tb.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO items (id, name, qty, price) VALUES (?, ?, ?, ?)")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("item-%d", i)),
			sqltypes.NewInt(int64(i%97)),
			sqltypes.NewFloat(float64(i%13)+0.5),
		); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, s
}

// pointQuery is index-eligible: WHERE is exactly `pk = ?`.
const pointQuery = "SELECT id, name, qty, price FROM items WHERE id = ?"

// scanQuery computes the same rows but is deliberately index-ineligible
// (the key sits inside an arithmetic expression), so it takes the seed's
// full-scan path. It is the in-tree stand-in for the pre-PR-2 executor.
const scanQuery = "SELECT id, name, qty, price FROM items WHERE id + 0 = ?"

// BenchmarkPointLookup measures single-session point-lookup throughput on a
// 10k-row table through the full fast path (prepared statement + pk index).
func BenchmarkPointLookup(b *testing.B) {
	_, s := newFastPathEngine(b, fastPathRows)
	defer s.Close()
	st, err := s.Prepare(pointQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(sqltypes.NewInt(int64(i % fastPathRows)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("want 1 row, got %d", len(res.Rows))
		}
	}
}

// BenchmarkPointLookupFullScan is the same query forced down the scan path
// — the seed behaviour the ≥5× acceptance ratio is measured against.
func BenchmarkPointLookupFullScan(b *testing.B) {
	_, s := newFastPathEngine(b, fastPathRows)
	defer s.Close()
	st, err := s.Prepare(scanQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(sqltypes.NewInt(int64(i % fastPathRows)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("want 1 row, got %d", len(res.Rows))
		}
	}
}

// BenchmarkPreparedVsUnprepared compares the three ways a session can run
// the same parameterized statement: parse-per-call (the seed behaviour),
// Exec through the statement cache, and a prepared handle.
func BenchmarkPreparedVsUnprepared(b *testing.B) {
	run := func(b *testing.B, exec func(i int) (*Result, error)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := exec(i)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("want 1 row, got %d", len(res.Rows))
			}
		}
	}
	b.Run("parse-per-call", func(b *testing.B) {
		_, s := newFastPathEngine(b, fastPathRows)
		defer s.Close()
		b.ResetTimer()
		run(b, func(i int) (*Result, error) {
			st, err := sqlparse.Parse(pointQuery) // bypasses the cache on purpose
			if err != nil {
				return nil, err
			}
			return s.ExecStmtArgs(st, sqltypes.NewInt(int64(i%fastPathRows)))
		})
	})
	b.Run("cached", func(b *testing.B) {
		_, s := newFastPathEngine(b, fastPathRows)
		defer s.Close()
		b.ResetTimer()
		run(b, func(i int) (*Result, error) {
			return s.ExecArgs(pointQuery, sqltypes.NewInt(int64(i%fastPathRows)))
		})
	})
	b.Run("prepared", func(b *testing.B) {
		_, s := newFastPathEngine(b, fastPathRows)
		defer s.Close()
		st, err := s.Prepare(pointQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, func(i int) (*Result, error) {
			return st.Exec(sqltypes.NewInt(int64(i % fastPathRows)))
		})
	})
}

// BenchmarkPreparedUpdate measures the write commit path: a prepared
// autocommit one-row UPDATE by primary key on a 1 000-row table. Its
// allocations include the event each commit appends to the binlog.
func BenchmarkPreparedUpdate(b *testing.B) {
	const rows = 1000
	_, s := newFastPathEngine(b, rows)
	defer s.Close()
	st, err := s.Prepare("UPDATE items SET qty = ?, name = ? WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	name := sqltypes.NewString("renamed")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(sqltypes.NewInt(int64(i)), name, sqltypes.NewInt(int64(i%rows)))
		if err != nil {
			b.Fatal(err)
		}
		if res.RowsAffected != 1 {
			b.Fatalf("want 1 row updated, got %d", res.RowsAffected)
		}
	}
}

// timeOps runs f n times and returns the elapsed wall time.
func timeOps(tb testing.TB, n int, f func(i int) error) time.Duration {
	tb.Helper()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestPointLookupFastPathThreshold enforces the PR-2 acceptance criterion:
// on a 10k-row table, single-session point lookups must be at least 5× the
// throughput of the full-scan path. The real ratio is orders of magnitude
// (O(1) vs O(n)), so 5× leaves plenty of margin for -race and CI noise.
func TestPointLookupFastPathThreshold(t *testing.T) {
	_, s := newFastPathEngine(t, fastPathRows)
	defer s.Close()
	point, err := s.Prepare(pointQuery)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := s.Prepare(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 100
	exec := func(st *Stmt) func(i int) error {
		return func(i int) error {
			res, err := st.Exec(sqltypes.NewInt(int64((i * 97) % fastPathRows)))
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 {
				return fmt.Errorf("want 1 row, got %d", len(res.Rows))
			}
			return nil
		}
	}
	// Warm both paths, then measure.
	timeOps(t, 5, exec(point))
	timeOps(t, 5, exec(scan))
	fast := timeOps(t, ops, exec(point))
	slow := timeOps(t, ops, exec(scan))
	if fast*5 > slow {
		t.Fatalf("point lookup (%v for %d ops) not ≥5× faster than full scan (%v)", fast, ops, slow)
	}
	t.Logf("point %v, scan %v for %d ops on %d rows (%.0fx)", fast, slow, ops, fastPathRows,
		float64(slow)/float64(fast))
}

// TestBulkTransactionalInsertLinear guards the overlay pk index: inserting
// n rows inside ONE transaction must scale linearly, not quadratically —
// each insert's uniqueness check probes the per-transaction pk index
// instead of walking every previously inserted overlay entry. Quadratic
// behaviour makes the 4× workload ~16× slower; linear makes it ~4×. The
// 10× bound sits between with margin for noise.
func TestBulkTransactionalInsertLinear(t *testing.T) {
	load := func(n int) time.Duration {
		eng := New(Config{})
		s := eng.NewSession("bulk")
		defer s.Close()
		if err := s.ExecScript("CREATE DATABASE d; USE d;" +
			"CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		ins, err := s.Prepare("INSERT INTO t (id, v) VALUES (?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ins.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		d := time.Since(start)
		if _, err := s.Exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		return d
	}
	load(500) // warm-up
	small := load(2000)
	big := load(8000)
	if big > small*10 {
		t.Fatalf("transactional bulk insert not linear: 2k rows %v, 8k rows %v (>10×)", small, big)
	}
	t.Logf("2k rows %v, 8k rows %v (%.1fx for 4x the rows)", small, big, float64(big)/float64(small))
}

// TestPreparedFasterThanParsePerCall guards the parse-skipping half of the
// fast path: executing a prepared statement must beat parsing the same text
// on every call. The statement is long enough for parse time to dominate
// and the table small enough that execution cost is negligible, so the
// ratio reflects the parser, not the scan.
func TestPreparedFasterThanParsePerCall(t *testing.T) {
	_, s := newFastPathEngine(t, 4)
	defer s.Close()
	const sql = "SELECT id, name, qty, price FROM items " +
		"WHERE id >= 0 AND name LIKE 'item-%' AND qty BETWEEN 0 AND 100 AND price >= 0.0 " +
		"ORDER BY id DESC LIMIT 2"
	st, err := s.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5000
	prepared := func(i int) error {
		_, err := st.Exec()
		return err
	}
	reparse := func(i int) error {
		ps, err := sqlparse.Parse(sql) // fresh parse each call, like the seed
		if err != nil {
			return err
		}
		_, err = s.ExecStmt(ps)
		return err
	}
	// Best-of-three to shrug off scheduler noise.
	best := func(f func(i int) error) time.Duration {
		timeOps(t, ops/10, f) // warm-up
		d := timeOps(t, ops, f)
		for r := 0; r < 2; r++ {
			if d2 := timeOps(t, ops, f); d2 < d {
				d = d2
			}
		}
		return d
	}
	fast := best(prepared)
	slow := best(reparse)
	if fast*6 > slow*5 { // require ≥1.2× headroom
		t.Fatalf("prepared (%v for %d ops) not ≥1.2× faster than parse-per-call (%v)", fast, ops, slow)
	}
	t.Logf("prepared %v, parse-per-call %v for %d ops (%.1fx)", fast, slow, ops,
		float64(slow)/float64(fast))
}
