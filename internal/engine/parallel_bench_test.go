package engine

import (
	"fmt"
	"sync"
	"testing"
)

// These benchmarks measure the shared read path: read-only statements do
// not serialize through one global engine mutex. They run at memory
// speed, so the parallel variant scales with physical cores and stays flat
// on a single-core host whatever the lock model.

// benchRows is the size of the seeded table every benchmark reads.
const benchRows = 256

// newBenchEngine builds an engine with one database and a seeded table of
// benchRows rows, mirroring the read-mostly workloads of §2.1.
func newBenchEngine(b testing.TB) *Engine {
	b.Helper()
	eng := New(Config{})
	s := eng.NewSession("bench")
	defer s.Close()
	script := "CREATE DATABASE shop; USE shop;" +
		"CREATE TABLE items (id INT PRIMARY KEY, name VARCHAR, qty INT, price FLOAT);"
	if err := s.ExecScript(script); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i++ {
		sql := fmt.Sprintf("INSERT INTO items (id, name, qty, price) VALUES (%d, 'item-%d', %d, %d.5)",
			i, i, i%97, i%13)
		if _, err := s.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// benchReadQuery is the statement each benchmark session runs: a filtered
// scan with a small aggregate, representative of the read side of the
// paper's read-one/write-all workloads.
const benchReadQuery = "SELECT COUNT(*), SUM(qty) FROM items WHERE qty > 48"

// runReaders drives b.N read-only statements split evenly over the given
// sessions.
func runReaders(b *testing.B, sess []*Session) {
	var wg sync.WaitGroup
	for i, s := range sess {
		n := b.N / len(sess)
		if i < b.N%len(sess) {
			n++
		}
		wg.Add(1)
		go func(s *Session, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if _, err := s.Exec(benchReadQuery); err != nil {
					b.Error(err)
					return
				}
			}
		}(s, n)
	}
	wg.Wait()
}

// benchConcurrentReads measures b.N reads over `sessions` concurrent
// sessions of one engine.
func benchConcurrentReads(b *testing.B, sessions int) {
	eng := newBenchEngine(b)
	sess := make([]*Session, sessions)
	for i := range sess {
		s := eng.NewSession("bench")
		if _, err := s.Exec("USE shop"); err != nil {
			b.Fatal(err)
		}
		sess[i] = s
	}
	defer func() {
		for _, s := range sess {
			s.Close()
		}
	}()
	b.ResetTimer()
	runReaders(b, sess)
}

// BenchmarkSingleSessionReads is the serialized baseline: one session
// issuing read-only statements back to back.
func BenchmarkSingleSessionReads(b *testing.B) { benchConcurrentReads(b, 1) }

// BenchmarkParallelReads runs the same reads over 8 concurrent sessions.
func BenchmarkParallelReads(b *testing.B) { benchConcurrentReads(b, 8) }

// BenchmarkParallelReadsWithWriter adds one background writer session
// committing updates while 8 readers run, showing reads overlap each other
// even when a writer periodically takes the exclusive lock.
func BenchmarkParallelReadsWithWriter(b *testing.B) {
	eng := newBenchEngine(b)
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		w := eng.NewSession("writer")
		defer w.Close()
		if _, err := w.Exec("USE shop"); err != nil {
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = w.Exec(fmt.Sprintf("UPDATE items SET qty = %d WHERE id = %d", i%97, i%benchRows))
		}
	}()

	const sessions = 8
	sess := make([]*Session, sessions)
	for i := range sess {
		s := eng.NewSession("bench")
		if _, err := s.Exec("USE shop"); err != nil {
			b.Fatal(err)
		}
		sess[i] = s
	}
	b.ResetTimer()
	runReaders(b, sess)
	b.StopTimer()
	close(stop)
	wwg.Wait()
	for _, s := range sess {
		s.Close()
	}
}
