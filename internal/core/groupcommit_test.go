package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/recoverylog"
)

// durableMS builds a master-slave cluster whose commit acks wait on a
// GroupCommitter over a disk-backed recovery log. FsyncEvery is set huge so
// the only fsyncs are the ones group commit issues — the test can then count
// them exactly.
func durableMS(tb testing.TB) (*MasterSlave, *GroupCommitter, *recoverylog.Log) {
	tb.Helper()
	rlog, err := recoverylog.Open(tb.TempDir(), recoverylog.Options{FsyncEvery: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rlog.Close() })
	prov := NewProvisioner(rlog)
	master := NewReplica(ReplicaConfig{Name: "master"})
	ms := NewMasterSlave(master, nil, MasterSlaveConfig{})
	tb.Cleanup(ms.Close)
	sess := ms.NewSession("setup")
	defer sess.Close()
	for _, sql := range []string{
		"CREATE DATABASE shop",
		"USE shop",
		"CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price FLOAT DEFAULT 0, stock INTEGER DEFAULT 0)",
	} {
		if _, err := sess.Exec(sql); err != nil {
			tb.Fatalf("bootstrap %q: %v", sql, err)
		}
	}
	gc := NewGroupCommitter(prov, ms.Master)
	ms.SetDurability(gc)
	return ms, gc, rlog
}

// TestGroupCommitAmortization is the PR-9 acceptance floor for the commit
// path: with concurrent writers, commits must share recovery-log fsyncs —
// at least 4 acknowledged commits per fsync — while every acknowledged
// commit is actually on disk (the log head covers the binlog head).
func TestGroupCommitAmortization(t *testing.T) {
	ms, gc, rlog := durableMS(t)

	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := ms.NewSession(fmt.Sprintf("w%d", w))
			defer sess.Close()
			if _, err := sess.Exec("USE shop"); err != nil {
				errCh <- err
				return
			}
			<-start
			for i := 0; i < perWriter; i++ {
				sql := fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'w%d-%d')", w*1000+i, w, i)
				if _, err := sess.Exec(sql); err != nil {
					errCh <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Durability: every acknowledged commit must be in the synced log. No
	// recorder runs in this test, so the group committer alone carried the
	// binlog into the log.
	if head, bl := rlog.Head(), ms.MasterSeq(); head < bl {
		t.Fatalf("recovery log head %d behind binlog head %d: acked commits not durable", head, bl)
	}
	commits, syncs := gc.Stats()
	fsyncs := rlog.SyncCount()
	if syncs == 0 || fsyncs == 0 {
		t.Fatalf("no sync batches recorded (batches=%d fsyncs=%d)", syncs, fsyncs)
	}
	ratio := float64(commits) / float64(syncs)
	t.Logf("%d writers x %d commits: %d commits / %d sync batches (%d disk fsyncs) = %.1f commits per fsync (floor 4)",
		writers, perWriter, commits, syncs, fsyncs, ratio)
	if ratio < 4 {
		t.Fatalf("group commit amortization %.1f commits/fsync below the 4x floor (commits=%d syncs=%d)",
			ratio, commits, syncs)
	}
}

// gcState samples the committer's counters and whether a flush is in flight.
func gcState(gc *GroupCommitter) (commits, batches, syncs uint64, inflight bool) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.commits, gc.batches, gc.syncs, gc.inflight != nil
}

// waitGC polls the committer until cond holds, failing after a few seconds.
func waitGC(t *testing.T, gc *GroupCommitter, what string, cond func(commits uint64, inflight bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		commits, _, _, inflight := gcState(gc)
		if cond(commits, inflight) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group committer never reached: %s (commits=%d inflight=%v)", what, commits, inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatchesBehindInflightFlush pins the self-clocked protocol
// without relying on timing: while one leader's flush is stalled on the
// log's append mutex, K writers commit. The first of them leads a second
// batch and the rest enroll in it; no one is acked until the stalled flush
// completes, and then every commit is acked and on disk after exactly two
// batches. The first flush copied the whole binlog, so the second batch
// finds its positions covered and issues no fsync of its own.
func TestGroupCommitBatchesBehindInflightFlush(t *testing.T) {
	ms, gc, rlog := durableMS(t)
	const k = 8
	sessions := make([]*MSSession, k+1)
	for i := range sessions {
		sessions[i] = ms.NewSession(fmt.Sprintf("w%d", i))
		defer sessions[i].Close()
		if _, err := sessions[i].Exec("USE shop"); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, k+1)
	commit := func(i int) {
		_, err := sessions[i].Exec(fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'w%d')", i+1, i))
		errs <- err
	}

	var release sync.Once
	unlock := func() { release.Do(gc.prov.appendMu.Unlock) }
	gc.prov.appendMu.Lock()
	defer unlock()
	go commit(0)
	waitGC(t, gc, "the first leader's flush in flight", func(c uint64, inflight bool) bool { return c == 1 && inflight })
	for i := 1; i <= k; i++ {
		go commit(i)
	}
	waitGC(t, gc, "every writer enrolled", func(c uint64, _ bool) bool { return c == k+1 })
	select {
	case err := <-errs:
		t.Fatalf("a commit was acked while the flush covering it was stalled (err=%v)", err)
	default:
	}
	unlock()

	for i := 0; i <= k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if head, bl := rlog.Head(), ms.MasterSeq(); head < bl {
		t.Fatalf("recovery log head %d behind binlog head %d: acked commits not durable", head, bl)
	}
	commits, batches, syncs, _ := gcState(gc)
	if commits != k+1 || batches != 2 || syncs != 1 {
		t.Fatalf("commits=%d batches=%d syncs=%d, want %d commits in 2 batches sharing 1 fsync", commits, batches, syncs, k+1)
	}
	if n := rlog.SyncCount(); n != 1 {
		t.Fatalf("recovery log issued %d fsyncs, want 1", n)
	}
}

// TestGroupCommitLoneWriterOneFsyncPerCommit checks what a commit with no
// company pays: one flush of its own and nothing else, since nothing waits
// for company to arrive.
func TestGroupCommitLoneWriterOneFsyncPerCommit(t *testing.T) {
	ms, gc, rlog := durableMS(t)
	sess := ms.NewSession("solo")
	defer sess.Close()
	if _, err := sess.Exec("USE shop"); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	commits, batches, syncs, _ := gcState(gc)
	if commits != n || batches != n || syncs != n {
		t.Fatalf("commits=%d batches=%d syncs=%d, want %d of each", commits, batches, syncs, n)
	}
	if got := rlog.SyncCount(); got != n {
		t.Fatalf("recovery log issued %d fsyncs for %d lone commits", got, n)
	}
}

// TestGroupCommitWatermarkSkipsFlushedPositions checks the fast path: a
// commit whose position an earlier batch already flushed returns without
// issuing a new sync batch.
func TestGroupCommitWatermarkSkipsFlushedPositions(t *testing.T) {
	ms, gc, _ := durableMS(t)
	sess := ms.NewSession("solo")
	defer sess.Close()
	if _, err := sess.Exec("USE shop"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO items (id, name) VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	_, syncsBefore := gc.Stats()
	// Re-waiting on an already-durable position must not flush again.
	if err := gc.WaitDurable(1); err != nil {
		t.Fatal(err)
	}
	if _, syncsAfter := gc.Stats(); syncsAfter != syncsBefore {
		t.Fatalf("durable position re-wait issued a sync batch (%d -> %d)", syncsBefore, syncsAfter)
	}
}

// TestGroupCommitClosed checks the shutdown contract: WaitDurable after
// Close fails with the typed error instead of hanging or panicking.
func TestGroupCommitClosed(t *testing.T) {
	_, gc, _ := durableMS(t)
	gc.Close()
	if err := gc.WaitDurable(99); !errors.Is(err, ErrGroupCommitClosed) {
		t.Fatalf("WaitDurable after Close = %v, want ErrGroupCommitClosed", err)
	}
}

// BenchmarkGroupCommit compares the two durable-commit disciplines on the
// same INSERT workload: fsync-per-commit (one writer, so each commit
// flushes alone: the serial discipline group commit replaces) against
// group commit under 16 concurrent writers sharing flushes. The reported
// syncs/op metric is the amortization; recoverylog.syncs_per_commit in
// go run ./benchmark is the same count end to end.
func BenchmarkGroupCommit(b *testing.B) {
	var nextID atomic.Int64
	nextID.Store(1 << 20) // clear of any setup rows

	b.Run("fsync-per-commit", func(b *testing.B) {
		ms, gc, _ := durableMS(b)
		sess := ms.NewSession("bench")
		defer sess.Close()
		if _, err := sess.Exec("USE shop"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sql := fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", nextID.Add(1))
			if _, err := sess.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportSyncsPerOp(b, gc)
	})
	b.Run("group-commit", func(b *testing.B) {
		ms, gc, _ := durableMS(b)
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sess := ms.NewSession("bench")
			defer sess.Close()
			if _, err := sess.Exec("USE shop"); err != nil {
				b.Fatal(err)
			}
			for pb.Next() {
				sql := fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", nextID.Add(1))
				if _, err := sess.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		reportSyncsPerOp(b, gc)
	})
}

func reportSyncsPerOp(b *testing.B, gc *GroupCommitter) {
	commits, syncs := gc.Stats()
	if commits > 0 {
		b.ReportMetric(float64(syncs)/float64(commits), "syncs/op")
	}
}
