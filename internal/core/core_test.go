package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// ---- helpers ----

const schemaSQL = `CREATE DATABASE shop;
USE shop;
CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price FLOAT DEFAULT 0, stock INTEGER DEFAULT 0)`

func newReplicas(t *testing.T, n int, cfg ReplicaConfig) []*Replica {
	t.Helper()
	out := make([]*Replica, n)
	for i := range out {
		c := cfg
		c.Name = fmt.Sprintf("r%d", i+1)
		c.Engine.RandSeed = int64(i + 1) // distinct PRNG per replica (§4.3.2)
		out[i] = NewReplica(c)
	}
	return out
}

// bootstrap runs the schema on the master of a fresh MS cluster and waits
// for slaves to catch up.
func newMSCluster(t *testing.T, nSlaves int, cfg MasterSlaveConfig) (*MasterSlave, *MSSession) {
	t.Helper()
	reps := newReplicas(t, nSlaves+1, ReplicaConfig{})
	ms := NewMasterSlave(reps[0], reps[1:], cfg)
	t.Cleanup(ms.Close)
	sess := ms.NewSession("test")
	t.Cleanup(sess.Close)
	for _, sql := range strings.Split(schemaSQL, ";\n") {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("bootstrap %q: %v", sql, err)
		}
	}
	waitCaughtUp(t, ms)
	return ms, sess
}

// degradeSlaves makes every slave of ms take d longer per applied event.
func degradeSlaves(ms *MasterSlave, d time.Duration) {
	for _, sl := range ms.Slaves() {
		sl.Degrade(0, d)
	}
}

func waitCaughtUp(t *testing.T, ms *MasterSlave) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lags := ms.SlaveLag()
		max := uint64(0)
		for _, l := range lags {
			if l > max {
				max = l
			}
		}
		if max == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("slaves never caught up: %v", ms.SlaveLag())
}

func mustExecC(t *testing.T, exec func(string, ...sqltypes.Value) (*engine.Result, error), sql string) *engine.Result {
	t.Helper()
	res, err := exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func checkConverged(t *testing.T, reps []*Replica, db string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := CheckDivergence(reps, db)
		if err == nil && rep.OK() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep, _ := CheckDivergence(reps, db)
	t.Fatalf("replicas did not converge: %v", rep)
}

// ---- master-slave ----

func TestMSWriteThenReadEverywhere(t *testing.T) {
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: SessionConsistent})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	// Session consistency: this read must see the write, wherever routed.
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("read-your-writes violated: %v", res.Rows)
	}
	waitCaughtUp(t, ms)
	all := append([]*Replica{ms.Master()}, ms.Slaves()...)
	checkConverged(t, all, "shop")
}

func TestMSReadsGoToSlaves(t *testing.T) {
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{Consistency: ReadAny})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	masterBefore := ms.Master().Engine().CommitTS()
	for i := 0; i < 20; i++ {
		mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	}
	if got := ms.Master().Engine().CommitTS(); got != masterBefore {
		t.Fatal("reads should not touch the master")
	}
}

func TestMSTwoSafeWaitsForReceipt(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Safety: TwoSafe})
	degradeSlaves(ms, 20*time.Millisecond) // receipt is fast; apply is slow
	start := time.Now()
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	elapsed := time.Since(start)
	// 2-safe waits for *receipt*, not apply: the commit should NOT wait
	// the full apply delay chain but must have the event received.
	sl := ms.Slaves()[0]
	if sl.ReceivedSeq() < ms.MasterSeq() {
		t.Fatal("2-safe returned before slave receipt")
	}
	_ = elapsed
}

// TestMSTwoSafeCommitTimesOutOnce: an explicit COMMIT that no slave
// confirms returns the 2-safe timeout after one FailoverTimeout, not after
// one wait on the binlog head and a second on the commit's own position.
func TestMSTwoSafeCommitTimesOutOnce(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Safety: TwoSafe, FailoverTimeout: timeout})
	// The slave receives the next event, then spends a second on it, so
	// nothing after it is received before the COMMIT gives up.
	ms.Slaves()[0].Degrade(0, time.Second)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (2, 'b')")
	start := time.Now()
	_, err := sess.Exec("COMMIT")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "2-safe commit timed out") {
		t.Fatalf("COMMIT err = %v, want the 2-safe timeout", err)
	}
	if elapsed >= timeout*3/2 {
		t.Fatalf("COMMIT took %v, want < %v (one 2-safe wait)", elapsed, timeout*3/2)
	}
}

func TestMSOneSafeLosesTrailingTransactions(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Safety: OneSafe})
	degradeSlaves(ms, 5*time.Millisecond)
	for i := 0; i < 20; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i+1))
	}
	// Crash the master while the slave still lags.
	ms.Master().Fail()
	if _, err := ms.Failover(); err != nil {
		t.Fatal(err)
	}
	if lost := ms.LostTransactions(); lost == 0 {
		t.Fatal("expected lost transactions under 1-safe with lagging slave")
	}
}

func TestMSTwoSafeLosesNothing(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Safety: TwoSafe})
	degradeSlaves(ms, 2*time.Millisecond)
	for i := 0; i < 10; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i+1))
	}
	ms.Master().Fail()
	if _, err := ms.Failover(); err != nil {
		t.Fatal(err)
	}
	// 2-safe guarantees receipt; the slave may still need to apply its
	// received backlog, but no event is missing from its queue.
	sl := ms.Master() // promoted
	deadline := time.Now().Add(2 * time.Second)
	for sl.AppliedSeq() < sl.ReceivedSeq() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// All 10 inserts (plus bootstrap DDL) must be present.
	s := sl.Engine().NewSession("check")
	defer s.Close()
	if _, err := s.Exec("USE shop"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("2-safe lost rows: %d/10", res.Rows[0][0].Int())
	}
}

func TestMSFailoverPromotesMostUpToDate(t *testing.T) {
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	// Hold one slave far behind.
	laggard := ms.Slaves()[1]
	laggard.appliedSeq.Store(0) // simulate a lagging slave
	ms.Master().Fail()
	promoted, err := ms.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if promoted == laggard {
		t.Fatal("promoted the lagging slave")
	}
}

// TestPromotedSlaveNeverReissuesKeys: row images move neither
// auto-increment counters nor sequences, so the slave applier advances both
// itself. A promoted slave must hand out no AUTO_INCREMENT key and no
// NEXTVAL value the old master already handed out, including one consumed
// by a transaction that rolled back.
func TestPromotedSlaveNeverReissuesKeys(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{})
	for _, sql := range []string{
		"CREATE TABLE auto (id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER)",
		"CREATE TABLE orders (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE SEQUENCE ord START 100 INCREMENT 1",
	} {
		mustExecC(t, sess.Exec, sql)
	}
	for i := 0; i < 5; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO auto (v) VALUES (%d)", i))
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO orders (id, v) VALUES (NEXTVAL('ord'), %d)", i))
	}
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO orders (id, v) VALUES (NEXTVAL('ord'), -1)")
	mustExecC(t, sess.Exec, "ROLLBACK")
	// No row records the rolled-back value; the next commit, on another
	// table, must still publish the sequence's position.
	mustExecC(t, sess.Exec, "INSERT INTO auto (v) VALUES (5)")
	waitCaughtUp(t, ms)

	ms.Master().Fail()
	if _, err := ms.Failover(); err != nil {
		t.Fatal(err)
	}
	res := mustExecC(t, sess.Exec, "INSERT INTO auto (v) VALUES (99)")
	if res.LastInsertID != 7 {
		t.Fatalf("promoted master issued auto-increment key %d, want 7", res.LastInsertID)
	}
	mustExecC(t, sess.Exec, "INSERT INTO orders (id, v) VALUES (NEXTVAL('ord'), 99)")
	res = mustExecC(t, sess.Exec, "SELECT id FROM orders WHERE v = 99")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 106 {
		t.Fatalf("promoted master issued NEXTVAL %v, want 106", res.Rows)
	}
}

func TestMSTransparentFailoverReplaysTxn(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{TransparentFailover: true, FailoverTimeout: 2 * time.Second})
	mon := NewMonitor(ms, time.Millisecond)
	mon.Start()
	defer mon.Stop()

	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'in-flight')")
	waitCaughtUp(t, ms)
	// Master dies mid-transaction.
	ms.Master().Fail()
	// The next statement transparently fails over and replays the txn.
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (2, 'after')")
	mustExecC(t, sess.Exec, "COMMIT")
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("transparent failover lost txn state: %v", res.Rows)
	}
}

func TestMSFailbackResynchronizes(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	old := ms.Master()
	old.Fail()
	if _, err := ms.Failover(); err != nil {
		t.Fatal(err)
	}
	// Writes continue on the new master.
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (2, 'b')")
	// Old master recovers and rejoins as a slave from its last position.
	if err := ms.Failback(old, old.Engine().Binlog().Head()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, ms)
	all := append([]*Replica{ms.Master()}, ms.Slaves()...)
	checkConverged(t, all, "shop")
}

func TestMSSlaveLagGrowsWithDelay(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{})
	degradeSlaves(ms, 10*time.Millisecond)
	for i := 0; i < 10; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i+1))
	}
	lag := ms.SlaveLag()["r2"]
	if lag == 0 {
		t.Fatal("expected visible slave lag with 10ms apply delay")
	}
}

func TestMSStrongConsistencyFallsBackToMaster(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{Consistency: StrongConsistent})
	degradeSlaves(ms, 20*time.Millisecond)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	// Immediately read: slave lags, so the read must still see the row.
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("strong consistency violated during slave lag")
	}
	_ = ms
}

func TestMonitorDrivesFailoverAndAvailability(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{})
	mon := NewMonitor(ms, time.Millisecond)
	mon.Start()
	defer mon.Stop()
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	old := ms.Master()
	old.Fail()
	deadline := time.Now().Add(2 * time.Second)
	for ms.Master() == old && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ms.Master() == old {
		t.Fatal("monitor never failed over")
	}
	// The monitor records its bookkeeping just after promotion; poll.
	deadline = time.Now().Add(time.Second)
	for mon.Failovers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if mon.Failovers() != 1 {
		t.Fatalf("failovers = %d", mon.Failovers())
	}
	if mon.Availability().MTTR() == 0 {
		t.Fatal("MTTR not recorded")
	}
}

// ---- multi-master ----

// waitMMCaughtUp waits until every replica has applied the ordered head.
func waitMMCaughtUp(t *testing.T, mm *MultiMaster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		head := mm.Head()
		ok := true
		for _, r := range mm.Replicas() {
			if r.AppliedSeq() < head {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("multi-master replicas never caught up")
}

func newMMCluster(t *testing.T, n int, cfg MultiMasterConfig) (*MultiMaster, []*MMSession) {
	t.Helper()
	reps := newReplicas(t, n, ReplicaConfig{})
	ord := NewLocalOrderer()
	t.Cleanup(ord.Close)
	mm, err := NewMultiMaster(reps, []Orderer{ord}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm.Close)
	boot, err := mm.NewSession("boot")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range strings.Split(schemaSQL, ";\n") {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatalf("bootstrap %q: %v", sql, err)
		}
	}
	boot.Close()
	waitMMCaughtUp(t, mm)
	sessions := make([]*MMSession, n)
	for i := range sessions {
		s, err := mm.NewSession(fmt.Sprintf("user%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		s.db = "shop"
		if err := s.pool.setDB("shop"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range sessions {
			s.Close()
		}
	})
	return mm, sessions
}

func TestMMStatementConvergence(t *testing.T) {
	mm, sessions := newMMCluster(t, 3, MultiMasterConfig{})
	done := make(chan error, len(sessions))
	for i, s := range sessions {
		go func(i int, s *MMSession) {
			for j := 0; j < 10; j++ {
				id := i*100 + j
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'w')", id)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, s)
	}
	for range sessions {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	checkConverged(t, mm.Replicas(), "shop")
	s := mm.Replicas()[0].Engine().NewSession("check")
	defer s.Close()
	_, _ = s.Exec("USE shop")
	res, _ := s.Exec("SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("count = %d, want 30", res.Rows[0][0].Int())
	}
}

func TestMMTransactionReadsOwnWrites(t *testing.T) {
	_, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	s := sessions[0]
	mustExecC(t, s.Exec, "BEGIN")
	mustExecC(t, s.Exec, "INSERT INTO items (id, name) VALUES (1, 'mine')")
	res := mustExecC(t, s.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("transaction cannot see its own writes")
	}
	mustExecC(t, s.Exec, "COMMIT")
}

func TestMMCertificationCommitsAndConverges(t *testing.T) {
	mm, sessions := newMMCluster(t, 3, MultiMasterConfig{})
	s := sessions[0]
	mustExecC(t, s.Exec, "BEGIN")
	mustExecC(t, s.Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 5)")
	mustExecC(t, s.Exec, "UPDATE items SET stock = 6 WHERE id = 1")
	mustExecC(t, s.Exec, "COMMIT")
	checkConverged(t, mm.Replicas(), "shop")
	if mm.Commits() == 0 {
		t.Fatal("no commits recorded")
	}
}

func TestMMCertificationFirstCommitterWins(t *testing.T) {
	mm, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 0)")
	time.Sleep(20 * time.Millisecond) // let the insert apply everywhere

	s1, s2 := sessions[0], sessions[1]
	mustExecC(t, s1.Exec, "BEGIN")
	mustExecC(t, s2.Exec, "BEGIN")
	mustExecC(t, s1.Exec, "UPDATE items SET stock = 1 WHERE id = 1")
	mustExecC(t, s2.Exec, "UPDATE items SET stock = 2 WHERE id = 1")
	_, err1 := s1.Exec("COMMIT")
	_, err2 := s2.Exec("COMMIT")
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one should abort: err1=%v err2=%v", err1, err2)
	}
	if err1 != nil && !errors.Is(err1, ErrCertificationAbort) {
		t.Fatalf("err1 = %v", err1)
	}
	if err2 != nil && !errors.Is(err2, ErrCertificationAbort) {
		t.Fatalf("err2 = %v", err2)
	}
	if mm.Aborts() != 1 {
		t.Fatalf("aborts = %d", mm.Aborts())
	}
	checkConverged(t, mm.Replicas(), "shop")
}

func TestMMCertificationNonConflictingBothCommit(t *testing.T) {
	mm, sessions := newMMCluster(t, 2, MultiMasterConfig{})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name) VALUES (1, 'a'), (2, 'b')")
	time.Sleep(20 * time.Millisecond)
	s1, s2 := sessions[0], sessions[1]
	mustExecC(t, s1.Exec, "BEGIN")
	mustExecC(t, s2.Exec, "BEGIN")
	mustExecC(t, s1.Exec, "UPDATE items SET stock = 1 WHERE id = 1")
	mustExecC(t, s2.Exec, "UPDATE items SET stock = 2 WHERE id = 2")
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, mm.Replicas(), "shop")
}

func TestMMCentralizedCertifierSPOF(t *testing.T) {
	cert := NewCertifier()
	_, sessions := newMMCluster(t, 2, MultiMasterConfig{Certifier: cert, CommitTimeout: 200 * time.Millisecond})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	cert.Fail()
	_, err := sessions[0].Exec("UPDATE items SET stock = 1 WHERE id = 1")
	if err == nil {
		t.Fatal("commit should fail while the centralized certifier is down (§3.2)")
	}
	cert.Repair()
	mustExecC(t, sessions[0].Exec, "UPDATE items SET stock = 2 WHERE id = 1")
}

// TestMMCertifierRepairAbortsPreOutageSnapshot: a failed centralized
// certifier forgets its write history, so after the repair a transaction
// whose snapshot predates the outage must abort rather than overwrite a
// write certified before it (a lost update).
func TestMMCertifierRepairAbortsPreOutageSnapshot(t *testing.T) {
	cert := NewCertifier()
	mm, sessions := newMMCluster(t, 2, MultiMasterConfig{Certifier: cert})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'a', 0)")
	waitMMCaughtUp(t, mm)
	s1, s2 := sessions[0], sessions[1]
	mustExecC(t, s1.Exec, "BEGIN")
	mustExecC(t, s1.Exec, "UPDATE items SET stock = 1 WHERE id = 1")
	mustExecC(t, s2.Exec, "UPDATE items SET stock = 2 WHERE id = 1")
	waitMMCaughtUp(t, mm)
	cert.Fail()
	cert.Repair()
	if _, err := s1.Exec("COMMIT"); !errors.Is(err, ErrCertificationAbort) {
		t.Fatalf("commit over a pre-outage snapshot: err = %v, want %v", err, ErrCertificationAbort)
	}
	waitMMCaughtUp(t, mm)
	for _, r := range mm.Replicas() {
		s := r.Engine().NewSession("check")
		_, _ = s.Exec("USE shop")
		res, err := s.Exec("SELECT stock FROM items WHERE id = 1")
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != 2 {
			t.Fatalf("%s: stock = %d, want the pre-outage write 2", r.Name(), got)
		}
	}
}

// gatedOrderer shares an orderer's total order but holds each delivery to
// its subscriber while gate is locked: the subscribing replica lags by
// exactly the events ordered meanwhile.
type gatedOrderer struct {
	Orderer
	gate *sync.Mutex
}

func (g gatedOrderer) Subscribe() <-chan Ordered {
	in := g.Orderer.Subscribe()
	out := make(chan Ordered)
	go func() {
		defer close(out)
		for o := range in {
			g.gate.Lock()
			g.gate.Unlock()
			out <- o
		}
	}()
	return out
}

// TestMMNewSessionWaitsForLaggingHome: a session opened after another
// connection's DDL committed may be homed on a replica that has not applied
// it yet. Its first write must wait for the home to catch up instead of
// failing with "unknown database" or "unknown table".
func TestMMNewSessionWaitsForLaggingHome(t *testing.T) {
	reps := newReplicas(t, 2, ReplicaConfig{})
	ord := NewLocalOrderer()
	t.Cleanup(ord.Close)
	var gate sync.Mutex
	mm, err := NewMultiMaster(reps, []Orderer{ord, gatedOrderer{ord, &gate}}, MultiMasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm.Close)
	ddl, err := mm.NewSession("ddl")
	if err != nil {
		t.Fatal(err)
	}
	defer ddl.Close()
	ddl.home = reps[0]
	gate.Lock()
	time.AfterFunc(200*time.Millisecond, gate.Unlock)
	mustExecC(t, ddl.Exec, "CREATE DATABASE shop")
	mustExecC(t, ddl.Exec, "USE shop")
	mustExecC(t, ddl.Exec, "CREATE TABLE fresh (id INT PRIMARY KEY, v INT)")
	late, err := mm.NewSession("late")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.home = reps[1]
	mustExecC(t, late.Exec, "USE shop")
	if _, err := late.Exec("INSERT INTO fresh (id, v) VALUES (1, 1)"); err != nil {
		t.Fatalf("first write on a lagging home: %v", err)
	}
	waitMMCaughtUp(t, mm)
	checkConverged(t, mm.Replicas(), "shop")
}

func TestMMStatementTotalOrderAcrossReplicas(t *testing.T) {
	// Increment-heavy workload from every replica at once: concurrent
	// increments of one row conflict, so first-committer-wins aborts all but
	// one and the loser retries. If total order and certification held, the
	// final value equals the number of committed increments on every replica.
	mm, sessions := newMMCluster(t, 3, MultiMasterConfig{})
	mustExecC(t, sessions[0].Exec, "INSERT INTO items (id, name, stock) VALUES (1, 'ctr', 0)")
	// Every home must hold the row first: at a home that has not applied
	// the INSERT yet, the UPDATE matches nothing and commits an empty write
	// set.
	waitMMCaughtUp(t, mm)
	const perSession = 10
	done := make(chan error, len(sessions))
	for _, s := range sessions {
		go func(s *MMSession) {
			for j := 0; j < perSession; {
				res, err := s.Exec("UPDATE items SET stock = stock + 1 WHERE id = 1")
				switch {
				case err == nil && res.RowsAffected == 1:
					j++
				case err == nil:
					done <- fmt.Errorf("committed increment wrote %d rows", res.RowsAffected)
					return
				case !errors.Is(err, ErrCertificationAbort):
					done <- err
					return
				}
			}
			done <- nil
		}(s)
	}
	for range sessions {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	checkConverged(t, mm.Replicas(), "shop")
	for _, r := range mm.Replicas() {
		s := r.Engine().NewSession("check")
		_, _ = s.Exec("USE shop")
		res, err := s.Exec("SELECT stock FROM items WHERE id = 1")
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != int64(len(sessions)*perSession) {
			t.Fatalf("replica %s: counter = %d, want %d", r.Name(), got, len(sessions)*perSession)
		}
	}
}

// ---- partitioned ----

func newPartitioned(t *testing.T, nParts int) (*Partitioned, *PSession) {
	t.Helper()
	parts := make([]*MasterSlave, nParts)
	for i := range parts {
		reps := newReplicas(t, 1, ReplicaConfig{Name: fmt.Sprintf("p%d", i)})
		reps[0].name = fmt.Sprintf("p%d-r1", i)
		parts[i] = NewMasterSlave(reps[0], nil, MasterSlaveConfig{ReadFromMaster: true})
	}
	pc, err := NewPartitioned(parts, []*PartitionRule{{
		Table: "items", Column: "id", Strategy: HashPartition,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	sess := pc.NewSession("test")
	t.Cleanup(sess.Close)
	mustExecC(t, sess.Exec, "CREATE DATABASE shop")
	mustExecC(t, sess.Exec, "USE shop")
	mustExecC(t, sess.Exec, "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price FLOAT DEFAULT 0)")
	return pc, sess
}

func TestPartitionedInsertSplitsRows(t *testing.T) {
	pc, sess := newPartitioned(t, 3)
	var values []string
	for i := 1; i <= 30; i++ {
		values = append(values, fmt.Sprintf("(%d, 'x')", i))
	}
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES "+strings.Join(values, ", "))
	// Every partition should hold some rows, and the union is 30.
	total := 0
	for _, p := range pc.Partitions() {
		n, err := p.Master().Engine().RowCount("shop", "items")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("partition %s got no rows", p.Master().Name())
		}
		total += n
	}
	if total != 30 {
		t.Fatalf("total rows = %d", total)
	}
}

func TestPartitionedKeyedQuerySinglePartition(t *testing.T) {
	_, sess := newPartitioned(t, 3)
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (7, 'seven')")
	res := mustExecC(t, sess.Exec, "SELECT name FROM items WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "seven" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestPartitionedScatterGather(t *testing.T) {
	_, sess := newPartitioned(t, 3)
	var values []string
	for i := 1; i <= 20; i++ {
		values = append(values, fmt.Sprintf("(%d, 'n%02d')", i, i))
	}
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES "+strings.Join(values, ", "))
	res := mustExecC(t, sess.Exec, "SELECT id, name FROM items ORDER BY id DESC LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 20 || res.Rows[4][0].Int() != 16 {
		t.Fatalf("merge order wrong: %v", res.Rows)
	}
	// Aggregates merge across partitions.
	cnt := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if cnt.Rows[0][0].Int() != 20 {
		t.Fatalf("scatter count = %d", cnt.Rows[0][0].Int())
	}
}

func TestPartitionedSinglePartitionTxn(t *testing.T) {
	_, sess := newPartitioned(t, 2)
	// A transaction whose statements all route to one partition commits.
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (7, 'a')")
	mustExecC(t, sess.Exec, "UPDATE items SET name = 'b' WHERE id = 7")
	mustExecC(t, sess.Exec, "COMMIT")
	res := mustExecC(t, sess.Exec, "SELECT name FROM items WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// A rolled-back transaction leaves no trace.
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (8, 'x')")
	mustExecC(t, sess.Exec, "ROLLBACK")
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items WHERE id = 8")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("rolled-back insert visible")
	}
}

func TestPartitionedRejectsCrossPartitionTxn(t *testing.T) {
	_, sess := newPartitioned(t, 2)
	// Find two keys hashing to different partitions.
	rule := &PartitionRule{Table: "items", Column: "id", Strategy: HashPartition}
	keyA := int64(1)
	pA, _ := rule.partitionFor(sqlInt(keyA), 2)
	keyB := keyA
	for k := int64(2); k < 64; k++ {
		if p, _ := rule.partitionFor(sqlInt(k), 2); p != pA {
			keyB = k
			break
		}
	}
	if keyB == keyA {
		t.Fatal("no key found in the other partition")
	}
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'a')", keyA))
	if _, err := sess.Exec(fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'b')", keyB)); !errors.Is(err, ErrCrossPartitionTxn) {
		t.Fatalf("cross-partition statement: err = %v", err)
	}
	mustExecC(t, sess.Exec, "ROLLBACK")
	// Statements that cannot be proven single-partition are rejected too.
	mustExecC(t, sess.Exec, "BEGIN")
	if _, err := sess.Exec("UPDATE items SET name = 'z'"); !errors.Is(err, ErrCrossPartitionTxn) {
		t.Fatalf("unkeyed write: err = %v", err)
	}
	mustExecC(t, sess.Exec, "ROLLBACK")
}

func TestPartitionedRangeRule(t *testing.T) {
	rule := &PartitionRule{Table: "t", Column: "k", Strategy: RangePartition}
	rule.Bounds = []sqlVal{sqlInt(100), sqlInt(200)}
	cases := map[int64]int{50: 0, 100: 1, 150: 1, 200: 2, 999: 2}
	for k, want := range cases {
		got, err := rule.partitionFor(sqlInt(k), 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("key %d -> partition %d, want %d", k, got, want)
		}
	}
}

// Small aliases to keep the range test readable.
type sqlVal = sqltypesValue

// ---- WAN ----

func newWAN(t *testing.T, latency time.Duration) (*WAN, map[string]*WSession) {
	t.Helper()
	return newWANWith(t, latency, ReplicaConfig{})
}

// newWANWith is newWAN with every site master built from cfg.
func newWANWith(t *testing.T, latency time.Duration, cfg ReplicaConfig) (*WAN, map[string]*WSession) {
	t.Helper()
	sites := []*SiteConfig{}
	names := []string{"eu", "us", "asia"}
	for _, n := range names {
		reps := newReplicas(t, 1, cfg)
		reps[0].name = n + "-master"
		cluster := NewMasterSlave(reps[0], nil, MasterSlaveConfig{ReadFromMaster: true})
		t.Cleanup(cluster.Close)
		sites = append(sites, &SiteConfig{
			Name: n, Cluster: cluster, OwnedKeys: []sqlVal{sqlStr(n)},
		})
	}
	// Bootstrap each site's schema directly (schema is global).
	for _, s := range sites {
		sess := s.Cluster.NewSession("boot")
		mustExecC(t, sess.Exec, "CREATE DATABASE shop")
		mustExecC(t, sess.Exec, "USE shop")
		mustExecC(t, sess.Exec, "CREATE TABLE bookings (id INTEGER PRIMARY KEY, region TEXT, what TEXT)")
		sess.Close()
	}
	w, err := NewWAN(sites, WANConfig{Table: "bookings", Column: "region", Latency: latency})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	out := make(map[string]*WSession, len(names))
	for _, n := range names {
		ws, err := w.NewSession(n, "app")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ws.Close)
		mustExecC(t, ws.Exec, "USE shop")
		out[n] = ws
	}
	return w, out
}

func TestWANLocalWritesFastRemoteSlow(t *testing.T) {
	_, sessions := newWAN(t, 30*time.Millisecond)
	eu := sessions["eu"]
	start := time.Now()
	mustExecC(t, eu.Exec, "INSERT INTO bookings (id, region, what) VALUES (1, 'eu', 'hotel')")
	local := time.Since(start)
	start = time.Now()
	mustExecC(t, eu.Exec, "INSERT INTO bookings (id, region, what) VALUES (2, 'asia', 'flight')")
	remote := time.Since(start)
	if local > 20*time.Millisecond {
		t.Fatalf("local write too slow: %v", local)
	}
	if remote < 55*time.Millisecond {
		t.Fatalf("remote write did not pay the WAN round trip: %v", remote)
	}
}

func TestWANAsyncConvergence(t *testing.T) {
	w, sessions := newWAN(t, 10*time.Millisecond)
	mustExecC(t, sessions["eu"].Exec, "INSERT INTO bookings (id, region, what) VALUES (1, 'eu', 'hotel')")
	mustExecC(t, sessions["us"].Exec, "INSERT INTO bookings (id, region, what) VALUES (2, 'us', 'car')")
	// All three sites converge to both rows.
	var reps []*Replica
	for _, s := range w.sites {
		reps = append(reps, s.Cluster.Master())
	}
	checkConverged(t, reps, "shop")
	res := mustExecC(t, sessions["asia"].Exec, "SELECT COUNT(*) FROM bookings")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("asia count = %d", res.Rows[0][0].Int())
	}
}

// TestWANApplyErrorStopsLink: eu and us insert the same primary key before
// either hears of the other's row. Shipping each row to the other site must
// fail with the duplicate-key error, and that error must stop the link and
// show in LinkErrors and Health, not be dropped while the sites diverge.
func TestWANApplyErrorStopsLink(t *testing.T) {
	w, sessions := newWAN(t, 100*time.Millisecond)
	mustExecC(t, sessions["eu"].Exec, "INSERT INTO bookings (id, region, what) VALUES (1, 'eu', 'hotel')")
	mustExecC(t, sessions["us"].Exec, "INSERT INTO bookings (id, region, what) VALUES (1, 'us', 'car')")
	links := []string{"eu->us", "us->eu"}
	deadline := time.Now().Add(10 * time.Second)
	var errs map[string]error
	for {
		errs = w.LinkErrors()
		if errs[links[0]] != nil && errs[links[1]] != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("links %v never reported an apply error: %v", links, errs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	health := w.Health().String()
	for _, link := range links {
		if !errors.Is(errs[link], engine.ErrDuplicateKey) {
			t.Errorf("%s: %v, want a duplicate-key error", link, errs[link])
		}
		if !strings.Contains(health, errs[link].Error()) {
			t.Errorf("health %q does not report %s: %v", health, link, errs[link])
		}
	}
}

// TestWANRetriesLockTimeout: a transaction at us holds the row a shipped eu
// update changes for many of us's lock timeouts. The apply takes no row
// lock, as at a slave, so it cannot time out: the update lands, survives
// the local rollback, and the link keeps shipping instead of stopping.
func TestWANRetriesLockTimeout(t *testing.T) {
	w, sessions := newWANWith(t, time.Millisecond,
		ReplicaConfig{Engine: engine.Config{LockTimeout: 20 * time.Millisecond}})
	us := w.site("us").Cluster.Master().Engine().NewSession("local")
	defer us.Close()
	mustExecC(t, us.Exec, "USE shop")
	waitWhat := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			res := mustExecC(t, us.Exec, "SELECT what FROM bookings WHERE id = 1")
			if len(res.Rows) == 1 && res.Rows[0][0].Str() == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("us never saw what = %q: %v (link errors %v)", want, res.Rows, w.LinkErrors())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	mustExecC(t, sessions["eu"].Exec, "INSERT INTO bookings (id, region, what) VALUES (1, 'eu', 'hotel')")
	waitWhat("hotel")

	mustExecC(t, us.Exec, "BEGIN")
	mustExecC(t, us.Exec, "UPDATE bookings SET what = 'held' WHERE id = 1")
	mustExecC(t, sessions["eu"].Exec, "UPDATE bookings SET what = 'flight' WHERE id = 1")
	time.Sleep(200 * time.Millisecond) // about ten lock timeouts at us
	mustExecC(t, us.Exec, "ROLLBACK")
	waitWhat("flight")
	if errs := w.LinkErrors(); len(errs) != 0 {
		t.Fatalf("a lock wait timeout stopped a link: %v", errs)
	}
}

// ---- provisioner ----

func TestProvisionerResync(t *testing.T) {
	// Build a source cluster whose events flow into a recovery log.
	ms, sess := newMSCluster(t, 0, MasterSlaveConfig{ReadFromMaster: true})
	mustExecC(t, sess.Exec, "CREATE TABLE t2 (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 1; i <= 40; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO t2 (id, v) VALUES (%d, %d)", i, i))
	}
	// Record the full committed history (including bootstrap DDL) into the
	// recovery log — a fresh replica replays from the beginning.
	prov := NewProvisioner(newRecoveryLog())
	events, _ := ms.Master().Engine().Binlog().ReadFrom(0, 0)
	for _, ev := range events {
		prov.RecordEvent(ev)
	}

	fresh := NewReplica(ReplicaConfig{Name: "fresh"})
	res, err := prov.Resync(fresh, 0, ResyncOptions{BatchWait: 10 * time.Millisecond}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CaughtUp || res.Replayed != len(events) {
		t.Fatalf("resync applied %d of %d entries (caught up %v)", res.Replayed, len(events), res.CaughtUp)
	}
	c1, err := ms.Master().Engine().TableChecksum("shop", "t2")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fresh.Engine().TableChecksum("shop", "t2")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("resync diverged")
	}
}

func TestProvisionerCheckpoints(t *testing.T) {
	prov := NewProvisioner(newRecoveryLog())
	evs := committedEvents(t, "CREATE DATABASE d", "USE d", "CREATE TABLE t (v INTEGER)",
		"INSERT INTO t (v) VALUES (1)", "INSERT INTO t (v) VALUES (2)")
	for _, ev := range evs[:len(evs)-1] {
		prov.RecordEvent(ev)
	}
	prov.CheckpointRemove("r2", prov.Log().Head())
	prov.RecordEvent(evs[len(evs)-1])
	seq, ok := prov.Log().CheckpointSeq("remove:r2")
	if !ok || seq != uint64(len(evs)-1) {
		t.Fatalf("checkpoint: %d, %v", seq, ok)
	}
	if after, err := prov.Log().ReadFrom(seq, 0); err != nil || len(after) != 1 {
		t.Fatalf("entries after checkpoint = %d, %v", len(after), err)
	}
}
