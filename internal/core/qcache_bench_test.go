package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/qcache"
)

// newQCBenchCluster builds a 1-master/2-slave cluster with a small catalog
// and (optionally) the query result cache.
func newQCBenchCluster(tb testing.TB, cached bool) (*MasterSlave, *MSSession, *qcache.Cache) {
	tb.Helper()
	reps := make([]*Replica, 3)
	for i := range reps {
		reps[i] = NewReplica(ReplicaConfig{Name: fmt.Sprintf("b%d", i+1)})
	}
	cfg := MasterSlaveConfig{Consistency: SessionConsistent}
	var qc *qcache.Cache
	if cached {
		qc = qcache.New(qcache.Config{})
		cfg.QueryCache = qc
	}
	ms := NewMasterSlave(reps[0], reps[1:], cfg)
	tb.Cleanup(ms.Close)
	sess := ms.NewSession("bench")
	tb.Cleanup(sess.Close)
	for _, sql := range []string{
		"CREATE DATABASE shop",
		"USE shop",
		"CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, stock INTEGER DEFAULT 0)",
		"INSERT INTO items (id, name, stock) VALUES (1,'a',10), (2,'b',20), (3,'c',30), (4,'d',40)",
	} {
		if _, err := sess.Exec(sql); err != nil {
			tb.Fatalf("bootstrap %q: %v", sql, err)
		}
	}
	waitBenchCaughtUp(tb, ms)
	return ms, sess, qc
}

func waitBenchCaughtUp(tb testing.TB, ms *MasterSlave) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		max := uint64(0)
		for _, l := range ms.SlaveLag() {
			if l > max {
				max = l
			}
		}
		if max == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatal("bench slaves never caught up")
}

// qcacheWorkload runs a read-mostly loop: 19 reads (over 4 distinct
// statements) per write. Each write invalidates the read set, so the cached
// variant pays a refill after every write and hits in between.
func qcacheWorkload(tb testing.TB, ms *MasterSlave, sess *MSSession, ops int) {
	tb.Helper()
	reads := []string{
		"SELECT COUNT(*) FROM items",
		"SELECT SUM(stock) FROM items",
		"SELECT name FROM items WHERE id = 2",
		"SELECT id, name FROM items ORDER BY id",
	}
	for i := 0; i < ops; i++ {
		if i%20 == 19 {
			sql := fmt.Sprintf("UPDATE items SET stock = stock + 1 WHERE id = %d", 1+i%4)
			if _, err := sess.Exec(sql); err != nil {
				tb.Fatalf("%s: %v", sql, err)
			}
			continue
		}
		sql := reads[i%len(reads)]
		if _, err := sess.Exec(sql); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
}

// BenchmarkCachedReads compares the read-mostly workload with and without
// the query result cache. See docs/BENCHMARKS.md for reference numbers.
func BenchmarkCachedReads(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		ms, sess, _ := newQCBenchCluster(b, false)
		b.ResetTimer()
		qcacheWorkload(b, ms, sess, b.N)
	})
	b.Run("cached", func(b *testing.B) {
		ms, sess, _ := newQCBenchCluster(b, true)
		b.ResetTimer()
		qcacheWorkload(b, ms, sess, b.N)
	})
}

// TestCachedReadsThreshold enforces the query cache's contract on counts,
// not wall time: over the read-mostly workload every read between
// two writes after the first of its statement is a hit, and a cache hit
// executes on zero backends. The wall-clock benefit of a hit is measured
// by the repository benchmark's broker-mixed workload.
func TestCachedReadsThreshold(t *testing.T) {
	// 400 ops = 20 blocks of 19 reads and one write. Each write
	// invalidates the table, so every block misses once per distinct
	// statement (4) and hits on the other 15 reads.
	const ops = 400
	const wantHits, wantMisses = 300, 80

	ms, sess, qc := newQCBenchCluster(t, true)
	qcacheWorkload(t, ms, sess, ops)
	if st := qc.Stats(); st.Hits != wantHits || st.Misses != wantMisses {
		t.Fatalf("read-mostly workload: hits=%d misses=%d, want %d and %d (stats %+v)",
			st.Hits, st.Misses, wantHits, wantMisses, st)
	}

	// Hit = zero backend executions: warm one statement, then count
	// replica executions across a burst of repeats.
	const q = "SELECT SUM(stock) FROM items"
	if _, err := sess.Exec(q); err != nil {
		t.Fatal(err)
	}
	execsBefore := uint64(0)
	for _, r := range append(ms.Slaves(), ms.Master()) {
		execsBefore += r.Execs()
	}
	hitsBefore := qc.Stats().Hits
	for i := 0; i < 50; i++ {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	execsAfter := uint64(0)
	for _, r := range append(ms.Slaves(), ms.Master()) {
		execsAfter += r.Execs()
	}
	if execsAfter != execsBefore {
		t.Fatalf("cache hits executed on a backend: %d -> %d", execsBefore, execsAfter)
	}
	if qc.Stats().Hits-hitsBefore != 50 {
		t.Fatalf("expected 50 hits, got %d", qc.Stats().Hits-hitsBefore)
	}
}
