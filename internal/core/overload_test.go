package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/sqlparse"
)

// newOverloadMS builds a master-only cluster whose master is degraded by
// readDelay per read, so tests can hold the admission slot for a
// predictable duration.
func newOverloadMS(t *testing.T, readDelay time.Duration, cfg MasterSlaveConfig) (*MasterSlave, *MSSession) {
	t.Helper()
	master := NewReplica(ReplicaConfig{Name: "m", Concurrency: 1})
	master.Degrade(readDelay, 0)
	ms := NewMasterSlave(master, nil, cfg)
	t.Cleanup(ms.Close)
	sess := ms.NewSession("boot")
	t.Cleanup(sess.Close)
	for _, sql := range strings.Split(schemaSQL, ";\n") {
		mustExecC(t, sess.Exec, sql)
	}
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'widget')")
	return ms, sess
}

// TestDeadlineCancelsQueuedStatementWithoutLeak is the PR's cancellation
// contract: a statement whose deadline expires while it waits in the
// admission queue fails with a deadline error, releases nothing it did not
// own (slot count returns to zero), and leaves its session fully usable.
func TestDeadlineCancelsQueuedStatementWithoutLeak(t *testing.T) {
	adm := admission.NewController(admission.Config{Slots: 1, Queue: 8})
	ms, _ := newOverloadMS(t, 150*time.Millisecond, MasterSlaveConfig{Admission: adm})

	// Session A occupies the single slot with a degraded 150ms read.
	slow := ms.NewSession("slow")
	defer slow.Close()
	mustExecC(t, slow.Exec, "USE shop")
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := slow.Query("SELECT * FROM items WHERE id = 1")
		done <- err
	}()
	<-started
	waitForActive(t, adm, 1)

	// Session B sets a deadline far shorter than A's residency and must be
	// cancelled while still queued.
	fast := ms.NewSession("fast")
	defer fast.Close()
	mustExecC(t, fast.Exec, "USE shop")
	mustExecC(t, fast.Exec, "SET DEADLINE '25ms'")
	start := time.Now()
	_, err := fast.Query("SELECT * FROM items WHERE id = 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued statement past deadline: got %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 120*time.Millisecond {
		t.Fatalf("cancellation took %v; deadline was 25ms", waited)
	}

	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	waitForActive(t, adm, 0)
	if st := adm.Stats(); st.Expired == 0 {
		t.Fatalf("expiry not accounted: %+v", st)
	}

	// The cancelled session is not poisoned: clearing the deadline works
	// and the next statement succeeds.
	mustExecC(t, fast.Exec, "SET DEADLINE OFF")
	if _, err := fast.Query("SELECT * FROM items WHERE id = 1"); err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
}

// TestDeadlineCancellationConcurrent races many deadline-bearing sessions
// against one slot; afterwards no slot may be leaked and the cluster must
// still serve. Run with -race.
func TestDeadlineCancellationConcurrent(t *testing.T) {
	adm := admission.NewController(admission.Config{Slots: 1, Queue: 16})
	ms, _ := newOverloadMS(t, 20*time.Millisecond, MasterSlaveConfig{Admission: adm})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := ms.NewSession("racer")
			defer sess.Close()
			if _, err := sess.Exec("USE shop"); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Exec("SET DEADLINE '15ms'"); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 10; j++ {
				_, err := sess.Query("SELECT * FROM items WHERE id = 1")
				if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, admission.ErrOverloaded) {
					t.Errorf("unexpected error class: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	waitForActive(t, adm, 0)
	sess := ms.NewSession("after")
	defer sess.Close()
	mustExecC(t, sess.Exec, "USE shop")
	if _, err := sess.Query("SELECT * FROM items WHERE id = 1"); err != nil {
		t.Fatalf("cluster unusable after deadline storm: %v", err)
	}
}

// TestStallSurfacesAsDeadlineNotFailure covers the gray-failure injector:
// a stalled replica keeps reporting healthy, so only the statement
// deadline — not failover — bounds the caller's wait.
func TestStallSurfacesAsDeadlineNotFailure(t *testing.T) {
	ms, sess := newOverloadMS(t, 0, MasterSlaveConfig{})
	master := ms.Master()

	master.SetStalled(true)
	if !master.Healthy() {
		t.Fatal("stall must not mark the replica unhealthy")
	}
	mustExecC(t, sess.Exec, "SET DEADLINE '40ms'")
	start := time.Now()
	_, err := sess.Query("SELECT * FROM items WHERE id = 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled read: got %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("deadline did not bound the stall: waited %v", waited)
	}
	if !master.Healthy() {
		t.Fatal("deadline expiry must not fail the replica")
	}

	master.Recover()
	if _, err := sess.Query("SELECT * FROM items WHERE id = 1"); err != nil {
		t.Fatalf("read after recover: %v", err)
	}
}

func waitForActive(t *testing.T, adm *admission.Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if adm.Stats().Active == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admission active never reached %d: %+v", want, adm.Stats())
}

// TestDegradeDelaysClientStatementsWithinDeadline: a degraded replica adds
// its read delay to every client read, and a statement whose deadline
// falls inside the delay pays only the remaining budget, then times out.
func TestDegradeDelaysClientStatementsWithinDeadline(t *testing.T) {
	r := NewReplica(ReplicaConfig{Name: "r"})
	s := r.Engine().NewSession("t")
	defer s.Close()
	st, err := sqlparse.Parse("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}

	r.Degrade(20*time.Millisecond, 0)
	start := time.Now()
	if _, err := r.ExecStmtArgsDeadlineOn(s, st, true, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("degraded read took %v, want >= 20ms", elapsed)
	}

	r.Degrade(time.Second, 0)
	start = time.Now()
	_, err = r.ExecStmtArgsDeadlineOn(s, st, true, nil, start.Add(10*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline-bound read took %v, want about 10ms", elapsed)
	}
}
