package core

import (
	"testing"
	"time"
)

// TestPinnedReadHonorsSessionConsistency is the regression test for the
// stale-pinned-read bug: under the default connection-level balancing, a
// session's first read pins a slave; subsequent reads used to go to that
// slave without re-checking the consistency guarantee, so a session-
// consistent read issued right after a write could observe the pre-write
// state whenever the pinned slave lagged. The statement fast path made
// clients fast enough to hit the window reliably through the wire layer.
// Degrading the slaves makes the lag deterministic here.
func TestPinnedReadHonorsSessionConsistency(t *testing.T) {
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent})
	degradeSlaves(ms, 50*time.Millisecond)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	waitCaughtUp(t, ms)

	// Pin a (currently fresh) slave.
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("pre-write count: %v", res.Rows)
	}

	// Write, then read immediately — well inside the slaves' 50 ms apply
	// delay. Read-your-writes must hold even though the pinned slave is
	// stale: the router has to fall back to a fresh replica (the master).
	mustExecC(t, sess.Exec, "UPDATE items SET id = 77 WHERE id = 3")
	mustExecC(t, sess.Exec, "DELETE FROM items WHERE id = 1")
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("session-consistent read served stale pinned replica: COUNT=%d, want 2", got)
	}
	// The master served that read as a fallback; it must NOT have been
	// installed as the pin, or this session would read from the master
	// forever and read-one/write-all scaling would quietly collapse.
	if sess.pinned == ms.Master() {
		t.Fatal("master fallback was pinned")
	}
	res = mustExecC(t, sess.Exec, "SELECT name FROM items WHERE id = 77")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "c" {
		t.Fatalf("read-your-writes broken for moved key: %v", res.Rows)
	}

	// Once the slaves drain, reads return to (and re-pin) a slave.
	waitCaughtUp(t, ms)
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("post-catchup count: %v", res.Rows)
	}
	if sess.pinned == nil || sess.pinned == ms.Master() {
		t.Fatalf("reads did not re-pin a drained slave (pinned=%v)", sess.pinned)
	}
}

// TestPinnedReadReleasedOnPromotion: a pinned slave that gets promoted to
// master must stop absorbing its sessions' reads — once a fresh slave is
// available again, reads move (and re-pin) there.
func TestPinnedReadReleasedOnPromotion(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Consistency: SessionConsistent})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	pinned := sess.pinned
	if pinned == nil || pinned == ms.Master() {
		t.Fatalf("expected a slave pin, got %v", pinned)
	}

	old := ms.Master()
	old.Fail()
	promoted, err := ms.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if promoted != pinned {
		t.Fatalf("expected the pinned slave to be promoted, got %v", promoted)
	}
	// Old master rejoins as a slave and catches up.
	if err := ms.Failback(old, old.Engine().Binlog().Head()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, ms)

	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("post-promotion read: %v", res.Rows)
	}
	if sess.pinned == ms.Master() {
		t.Fatal("session still pinned to the promoted master")
	}
}
