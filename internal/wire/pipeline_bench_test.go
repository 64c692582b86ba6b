package wire

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// This file measures what pipelining buys: round-trip overlap, a window of
// requests in flight per connection instead of one.

// BenchmarkWireProtocol compares one connection's PK point lookups serial
// (one request in flight) and pipelined (RTT overlap, window 32).
func BenchmarkWireProtocol(b *testing.B) {
	srv := preparedBenchServer(b)
	_, prepQ := preparedBenchQueries()

	dial := func(b *testing.B) (*Conn, *Stmt) {
		b.Helper()
		c, err := Dial(srv.Addr(), DriverConfig{User: "bench", Database: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.Prepare(prepQ)
		if err != nil {
			b.Fatal(err)
		}
		return c, st
	}

	b.Run("binary-exec", func(b *testing.B) {
		c, st := dial(b)
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Exec(sqltypes.NewInt(int64(nextBenchKey()))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-pipelined", func(b *testing.B) {
		c, st := dial(b)
		defer c.Close()
		const win = 32
		pend := make([]*Pending, 0, win)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(pend) == win {
				if _, err := pend[0].Wait(); err != nil {
					b.Fatal(err)
				}
				pend = append(pend[:0], pend[1:]...)
			}
			p, err := st.ExecAsync(sqltypes.NewInt(int64(nextBenchKey())))
			if err != nil {
				b.Fatal(err)
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wireFleetThroughput runs `clients` concurrent connections, each executing
// `ops` PK lookups via run, and returns the wall time for the whole fleet.
func wireFleetThroughput(tb testing.TB, srv *Server, clients, ops int,
	run func(st *Stmt, ops int) error) time.Duration {
	tb.Helper()
	_, prepQ := preparedBenchQueries()
	conns := make([]*Conn, clients)
	stmts := make([]*Stmt, clients)
	for i := range conns {
		c, err := Dial(srv.Addr(), DriverConfig{User: "bench", Database: "bench"})
		if err != nil {
			tb.Fatal(err)
		}
		conns[i] = c
		st, err := c.Prepare(prepQ)
		if err != nil {
			tb.Fatal(err)
		}
		stmts[i] = st
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(st *Stmt) {
			defer wg.Done()
			<-start
			if err := run(st, ops); err != nil {
				errCh <- err
			}
		}(stmts[i])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	return elapsed
}

func runSerial(st *Stmt, ops int) error {
	for i := 0; i < ops; i++ {
		if _, err := st.Exec(sqltypes.NewInt(int64(nextBenchKey()))); err != nil {
			return err
		}
	}
	return nil
}

func runPipelined(window int) func(st *Stmt, ops int) error {
	return func(st *Stmt, ops int) error {
		pend := make([]*Pending, 0, window)
		for i := 0; i < ops; i++ {
			if len(pend) == window {
				if _, err := pend[0].Wait(); err != nil {
					return err
				}
				pend = append(pend[:0], pend[1:]...)
			}
			p, err := st.ExecAsync(sqltypes.NewInt(int64(nextBenchKey())))
			if err != nil {
				return err
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestWirePipelinedThroughputThreshold enforces what pipelining buys at
// high concurrency (64 clients): a window of 32 requests in flight per
// connection must deliver at least 1.6x the throughput of one request in
// flight, on the same connections, codec and PK-lookup workload. On an idle
// 2-core host the ratio measures 2.0-2.2x, so the floor leaves ~20% for
// scheduler noise. Best-of-three rounds on each side.
//
// The race detector slows the serial and the pipelined path by different
// factors, so under -race the time ratio says nothing about pipelining.
// There the test checks instead what pipelining does at the server: it
// holds at least 8 requests of one connection at once, where a client
// with one request in flight never gives it more than 1.
func TestWirePipelinedThroughputThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	srv := preparedBenchServer(t)
	const (
		clients  = 64
		ops      = 150
		floor    = 1.6
		minDepth = 8
	)
	if raceEnabled {
		wireFleetThroughput(t, srv, clients, ops, runPipelined(32))
		depth := srv.depth.Load()
		t.Logf("%d clients x %d ops, window 32: the server held up to %d requests of one connection (floor %d)",
			clients, ops, depth, minDepth)
		if depth < minDepth {
			t.Fatalf("the server held at most %d requests of one connection at once, want at least %d", depth, minDepth)
		}
		return
	}
	// Warm both paths: connections, statement cache, PK index.
	wireFleetThroughput(t, srv, 8, 40, runSerial)
	wireFleetThroughput(t, srv, 8, 40, runPipelined(32))

	bestSerial, bestPiped := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		runtime.GC()
		serial := wireFleetThroughput(t, srv, clients, ops, runSerial)
		runtime.GC()
		piped := wireFleetThroughput(t, srv, clients, ops, runPipelined(32))
		if serial < bestSerial {
			bestSerial = serial
		}
		if piped < bestPiped {
			bestPiped = piped
		}
	}
	speedup := float64(bestSerial) / float64(bestPiped)
	total := clients * ops
	t.Logf("%d clients x %d ops: serial=%v (%.0f ops/s) pipelined=%v (%.0f ops/s) speedup=%.2fx (floor %.1fx)",
		clients, ops, bestSerial, float64(total)/bestSerial.Seconds(), bestPiped, float64(total)/bestPiped.Seconds(), speedup, floor)
	if speedup < floor {
		t.Fatalf("pipelined speedup %.2fx below the %.1fx floor (serial=%v pipelined=%v)", speedup, floor, bestSerial, bestPiped)
	}
}
