package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparse"
)

// Concurrency tests for the PR-1 shared read path: N parallel read-only
// sessions plus one writer per isolation level, expected to run clean
// under `go test -race`.

// newConcurrencyEngine seeds an engine for the stress tests.
func newConcurrencyEngine(t testing.TB, cfg Config, rows int) *Engine {
	t.Helper()
	eng := New(cfg)
	s := eng.NewSession("setup")
	defer s.Close()
	script := "CREATE DATABASE d; USE d;" +
		"CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT);" +
		"CREATE SEQUENCE seq START 1;"
	if err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO t (id, grp, val) VALUES (%d, %d, %d)", i, i%7, i)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// tolerableErr reports whether a stress-test error is an expected artifact
// of concurrency control rather than a bug: snapshot first-committer-wins
// aborts and lock-wait timeouts.
func tolerableErr(err error) bool {
	return errors.Is(err, ErrSerialization) || errors.Is(err, ErrLockTimeout) ||
		errors.Is(err, ErrTxnAborted)
}

// TestParallelReadStress runs 6 read-only sessions against 1 writer at
// every isolation level. Readers must never observe an error; the writer
// may only fail with concurrency-control verdicts.
func TestParallelReadStress(t *testing.T) {
	for _, iso := range []IsolationLevel{ReadCommitted, Snapshot, Serializable} {
		iso := iso
		t.Run(iso.String(), func(t *testing.T) {
			t.Parallel()
			eng := newConcurrencyEngine(t, Config{}, 64)
			const readers = 6
			const iters = 150
			var wg sync.WaitGroup
			errCh := make(chan error, readers+1)

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := eng.NewSession("reader")
					defer s.Close()
					if err := s.ExecScript("USE d; SET ISOLATION LEVEL " + iso.String()); err != nil {
						errCh <- err
						return
					}
					for i := 0; i < iters; i++ {
						res, err := s.Exec("SELECT COUNT(*), SUM(val) FROM t WHERE grp < 5")
						if err != nil {
							errCh <- fmt.Errorf("reader: %w", err)
							return
						}
						if len(res.Rows) != 1 {
							errCh <- fmt.Errorf("reader: got %d rows", len(res.Rows))
							return
						}
					}
				}()
			}

			wg.Add(1)
			go func() {
				defer wg.Done()
				w := eng.NewSession("writer")
				defer w.Close()
				if err := w.ExecScript("USE d; SET ISOLATION LEVEL " + iso.String()); err != nil {
					errCh <- err
					return
				}
				for i := 0; i < iters; i++ {
					err := w.ExecScript(fmt.Sprintf(
						"BEGIN; UPDATE t SET val = %d WHERE id = %d; COMMIT", i, i%64))
					if err != nil {
						if tolerableErr(err) {
							w.Rollback()
							continue
						}
						errCh <- fmt.Errorf("writer: %w", err)
						return
					}
				}
			}()

			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
		})
	}
}

// TestPairInvariantUnderConcurrentReads checks read atomicity: a writer
// inserts rows strictly in pairs inside explicit transactions, so a reader
// on the shared path must always count an even number of rows — a torn
// read (seeing a half-committed transaction) would surface as an odd count.
func TestPairInvariantUnderConcurrentReads(t *testing.T) {
	eng := newConcurrencyEngine(t, Config{}, 0)
	const pairs = 150
	const readers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	done := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := eng.NewSession("writer")
		defer w.Close()
		if _, err := w.Exec("USE d"); err != nil {
			errCh <- err
			return
		}
		for i := 0; i < pairs; i++ {
			err := w.ExecScript(fmt.Sprintf(
				"BEGIN; INSERT INTO t (id, grp, val) VALUES (%d, 0, 0); INSERT INTO t (id, grp, val) VALUES (%d, 0, 0); COMMIT",
				2*i, 2*i+1))
			if err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := eng.NewSession("reader")
			defer s.Close()
			if _, err := s.Exec("USE d"); err != nil {
				errCh <- err
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.Exec("SELECT COUNT(*) FROM t")
				if err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				if n := res.Rows[0][0].Int(); n%2 != 0 {
					errCh <- fmt.Errorf("torn read: row count %d is odd", n)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestNextvalUniqueUnderConcurrency checks that SELECT NEXTVAL — which is
// excluded from the shared read path because it advances the sequence —
// still hands out globally unique values across concurrent sessions.
func TestNextvalUniqueUnderConcurrency(t *testing.T) {
	eng := newConcurrencyEngine(t, Config{}, 0)
	const workers = 4
	const per = 100
	vals := make(chan int64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := eng.NewSession("seq")
			defer s.Close()
			if _, err := s.Exec("USE d"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				res, err := s.Exec("SELECT NEXTVAL('seq')")
				if err != nil {
					t.Error(err)
					return
				}
				vals <- res.Rows[0][0].Int()
			}
		}()
	}
	wg.Wait()
	close(vals)
	seen := make(map[int64]bool)
	for v := range vals {
		if seen[v] {
			t.Fatalf("sequence value %d handed out twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d distinct values, want %d", len(seen), workers*per)
	}
}

// TestSharedReadEligibility pins down which statements ride the shared
// read path and which must serialize with writers.
func TestSharedReadEligibility(t *testing.T) {
	eng := New(Config{})
	s := eng.NewSession("x")
	defer s.Close()
	cases := []struct {
		sql    string
		shared bool
	}{
		{"SELECT * FROM t", true},
		{"SELECT a, COUNT(*) FROM t WHERE b > 1 GROUP BY a ORDER BY a", true},
		{"SELECT rand(), now()", true},
		{"SELECT * FROM t WHERE id IN (SELECT id FROM u)", true},
		{"SHOW TABLES", true},
		{"SELECT * FROM t FOR UPDATE", false},
		{"SELECT NEXTVAL('seq')", false},
		{"SELECT * FROM t WHERE id = NEXTVAL('seq')", false},
		{"SELECT * FROM t WHERE id IN (SELECT NEXTVAL('seq') FROM u)", false},
		{"INSERT INTO t (id) VALUES (1)", false},
		{"UPDATE t SET a = 1", false},
		{"DELETE FROM t", false},
		{"BEGIN", false},
	}
	for _, tc := range cases {
		st, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := s.sharedRead(st); got != tc.shared {
			t.Errorf("sharedRead(%q) = %v, want %v", tc.sql, got, tc.shared)
		}
	}

	// Serializable sessions never use the shared path: their reads take
	// table-level 2PL locks.
	s.iso = Serializable
	st, _ := sqlparse.Parse("SELECT * FROM t")
	if s.sharedRead(st) {
		t.Error("serializable SELECT must use the exclusive path")
	}
}

// TestParallelReadThroughputScales pins what lets read throughput scale
// with sessions: while the engine lock is held shared, plain SELECTs from 8
// sessions under read committed and under snapshot all complete, and an
// UPDATE completes only after the shared hold is released. Under the
// seed's global mutex no SELECT could complete. TestSharedReadEligibility
// pins which statements take the shared path.
func TestParallelReadThroughputScales(t *testing.T) {
	const sessions = 8
	eng := newConcurrencyEngine(t, Config{}, 32)
	var readers []*Session
	for _, iso := range []IsolationLevel{ReadCommitted, Snapshot} {
		for i := 0; i < sessions; i++ {
			s := eng.NewSession("reader")
			defer s.Close()
			if err := s.ExecScript("USE d; SET ISOLATION LEVEL " + iso.String()); err != nil {
				t.Fatal(err)
			}
			readers = append(readers, s)
		}
	}
	w := eng.NewSession("writer")
	defer w.Close()
	if _, err := w.Exec("USE d"); err != nil {
		t.Fatal(err)
	}

	eng.mu.RLock()
	var wg sync.WaitGroup
	errs := make(chan error, len(readers))
	for _, s := range readers {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			res, err := s.Exec("SELECT COUNT(*) FROM t")
			if err == nil && res.Rows[0][0].Int() != 32 {
				err = fmt.Errorf("count = %d, want 32", res.Rows[0][0].Int())
			}
			errs <- err
		}(s)
	}
	read := make(chan struct{})
	go func() { wg.Wait(); close(read) }()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		eng.mu.RUnlock()
		t.Fatal("plain SELECTs did not complete under a shared engine hold")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	updated := make(chan error, 1)
	go func() {
		_, err := w.Exec("UPDATE t SET val = 0 WHERE id = 1")
		updated <- err
	}()
	select {
	case err := <-updated:
		eng.mu.RUnlock()
		t.Fatalf("UPDATE completed under a shared engine hold (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	eng.mu.RUnlock()
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
}
