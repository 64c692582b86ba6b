// End-to-end recovery tests (PR 4): durable restart of a wire-served
// cluster, chaos failover with exact lost-transaction accounting driven by
// internal/failure, and a simnet-driven partition/heal scenario through the
// wire layer. Cluster bootstrap/teardown lives in internal/testutil.
package repro

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/gcs"
	"repro/internal/simnet"
	"repro/internal/sqltypes"
	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/replication"
)

// TestDurableClusterRestartServesCommittedRows is the -data-dir acceptance
// test: a cluster stopped and reopened against the same directory serves
// every previously committed row, recovering via checkpoint + tail, and
// keeps accepting writes in the same replication position space.
func TestDurableClusterRestartServesCommittedRows(t *testing.T) {
	dir := t.TempDir()
	cfg := replication.DurableConfig{
		Dir:             dir,
		Log:             replication.RecoveryLogOptions{SegmentEntries: 16, FsyncEvery: 1},
		Slaves:          1,
		Cluster:         replication.MasterSlaveConfig{Consistency: replication.SessionConsistent},
		CheckpointEvery: 20,
		MonitorInterval: time.Millisecond,
	}
	d1, err := replication.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := wire.NewServer("127.0.0.1:0", &wire.ClusterBackend{Cluster: d1.Cluster()})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(srv1.Addr(), wire.DriverConfig{User: "app"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE DATABASE shop", "USE shop",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const rows = 60
	for i := 1; i <= rows; i++ {
		if _, err := conn.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	srv1.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen against the same directory: all committed rows must be there.
	d2, err := replication.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup (not defer) so the wire server registered below closes first.
	t.Cleanup(func() { d2.Close() })
	// The first run's automatic checkpoints compacted the log, so this
	// recovery necessarily went checkpoint + tail, not full replay.
	if d2.RecoveryLog().CompactedThrough() == 0 {
		t.Fatal("log was never compacted; restart did not exercise checkpoint+tail")
	}
	conn2, err := wire.Dial(testutil.Serve(t, d2.Cluster()), wire.DriverConfig{User: "app", Database: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	resp, err := conn2.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != rows {
		t.Fatalf("restarted cluster serves %d rows, want %d", got, rows)
	}
	resp, err = conn2.Exec("SELECT v FROM t WHERE id = 17")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != 170 {
		t.Fatalf("row 17 has v=%d after restart, want 170", got)
	}
	// The restarted cluster keeps working in the same position space.
	if _, err := conn2.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1)", rows+1)); err != nil {
		t.Fatal(err)
	}
	resp, err = conn2.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != rows+1 {
		t.Fatalf("count after post-restart insert = %d", got)
	}
	testutil.WaitForLag(t, d2.Cluster())
	if err := d2.Provisioner().RecorderErr(); err != nil {
		t.Fatalf("recorder unhealthy after restart: %v", err)
	}
}

// TestDurableRestartKeepsRandomValues: a restart rebuilds rows from the
// logged write sets, so an UPDATE that drew RAND() comes back with the
// values clients read before the close, on the master and on the slave,
// although the reopened replicas' generators draw other numbers.
func TestDurableRestartKeepsRandomValues(t *testing.T) {
	cfg := replication.DurableConfig{
		Dir:             t.TempDir(),
		Log:             replication.RecoveryLogOptions{FsyncEvery: 1},
		Slaves:          1,
		Replica:         replication.ReplicaConfig{Engine: engine.Config{RandSeed: 1}},
		Cluster:         replication.MasterSlaveConfig{Consistency: replication.SessionConsistent},
		CheckpointEvery: -1, // no checkpoint: the reopen applies the whole log
		MonitorInterval: time.Millisecond,
	}
	prices := func(exec func(string, ...sqltypes.Value) (*engine.Result, error)) []float64 {
		t.Helper()
		res, err := exec("SELECT price FROM shop.p ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[0].Float()
		}
		return out
	}
	d1, err := replication.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := d1.NewSession("app")
	for _, sql := range []string{
		"CREATE DATABASE shop", "USE shop",
		"CREATE TABLE p (id INTEGER PRIMARY KEY, price FLOAT)",
		"INSERT INTO p (id, price) VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)",
		"UPDATE p SET price = RAND()",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	want := prices(sess.Exec)
	sess.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Replica.Engine.RandSeed = 2 // a new process draws other numbers
	d2, err := replication.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, rep := range append([]*replication.Replica{d2.Cluster().Master()}, d2.Cluster().Slaves()...) {
		s := rep.Engine().NewSession("check")
		got := prices(s.Exec)
		s.Close()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s serves prices %v after restart, clients read %v before it", rep.Name(), got, want)
		}
	}
}

// readIDSet reads the chaos table's ids directly from an engine (used to
// inspect the failed master's frozen state).
func readIDSet(t *testing.T, eng *engine.Engine) map[int64]bool {
	t.Helper()
	s := eng.NewSession("inspect")
	defer s.Close()
	if _, err := s.Exec("USE shop"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT id FROM chaos")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Int()] = true
	}
	return out
}

// TestEndToEndChaosMasterCrashExactLossAccounting kills the master
// mid-stream under concurrent wire writers (internal/failure injector),
// then checks the paper's 1-safe exposure to the row: the set of
// transactions committed on the dead master's frozen engine but missing
// from the promoted cluster must match LostTransactions exactly. The
// promoted cluster must serve session-consistent reads, and the recovered
// old master must rejoin automatically and reconverge.
func TestEndToEndChaosMasterCrashExactLossAccounting(t *testing.T) {
	d, err := replication.OpenDurable(replication.DurableConfig{
		Slaves: 2,
		Cluster: replication.MasterSlaveConfig{
			Consistency:     replication.SessionConsistent,
			FailoverTimeout: 2 * time.Second,
		},
		CheckpointEvery: 25,
		MonitorInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup (not defer) so the wire server registered below closes first.
	t.Cleanup(func() { d.Close() })
	cluster := d.Cluster()
	// Slaves pay a small apply cost so they visibly lag the burst — the
	// §2.2 condition that makes 1-safe failover lossy. The one the monitor
	// promotes keeps it; 200µs per client write changes nothing here.
	for _, sl := range cluster.Slaves() {
		sl.Degrade(0, 200*time.Microsecond)
	}

	addr := testutil.Serve(t, cluster)
	boot, err := wire.Dial(addr, wire.DriverConfig{User: "boot"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE DATABASE shop", "USE shop",
		"CREATE TABLE chaos (id INTEGER PRIMARY KEY, v INTEGER)",
	} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	boot.Close()
	testutil.WaitForLag(t, cluster)

	old := cluster.Master()
	inj := failure.NewInjector(4)
	defer inj.Stop()
	// The crash lands while the writers are committing.
	inj.Crash(old, 20*time.Millisecond)

	var nextID atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := wire.Dial(addr, wire.DriverConfig{
				User: fmt.Sprintf("w%d", w), Database: "shop",
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			ok := 0
			deadline := time.Now().Add(10 * time.Second)
			for ok < 40 && time.Now().Before(deadline) {
				// Fresh id on every attempt: a failed Exec may still have
				// committed on the dying master, so retrying the same id
				// would make the loss accounting ambiguous.
				id := nextID.Add(1)
				if _, err := conn.Exec(fmt.Sprintf("INSERT INTO chaos (id, v) VALUES (%d, %d)", id, w)); err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				ok++
			}
		}(w)
	}
	wg.Wait()

	// The monitor must have promoted a slave.
	deadline := time.Now().Add(3 * time.Second)
	for cluster.Master() == old && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cluster.Master() == old {
		t.Fatal("monitor never failed over during the chaos run")
	}
	testutil.WaitForLag(t, cluster)

	// Exact 1-safe loss accounting: ids committed on the frozen old master
	// but absent from the promoted lineage == LostTransactions. (The old
	// master is down and detached, so its engine state is frozen evidence.)
	lost := cluster.LostTransactions()
	oldIDs := readIDSet(t, old.Engine())
	newIDs := readIDSet(t, cluster.Master().Engine())
	missing := 0
	for id := range oldIDs {
		if !newIDs[id] {
			missing++
		}
	}
	if uint64(missing) != lost {
		t.Fatalf("loss accounting: %d committed-but-missing rows, LostTransactions=%d", missing, lost)
	}

	// Session-consistent reads on the promoted cluster: write then read on
	// one wire session must observe the write immediately.
	check, err := wire.Dial(addr, wire.DriverConfig{User: "check", Database: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	if _, err := check.Exec("INSERT INTO chaos (id, v) VALUES (999999, 7)"); err != nil {
		t.Fatal(err)
	}
	resp, err := check.Exec("SELECT COUNT(*) FROM chaos WHERE id = 999999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 1 {
		t.Fatal("session-consistent read after failover missed its own write")
	}

	// The old master comes back: the monitor rolls back its diverged
	// suffix (checkpoint clone) and rejoins it as a slave.
	old.Recover()
	deadline = time.Now().Add(10 * time.Second)
	for d.Monitor().Rejoins() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Monitor().Rejoins() == 0 {
		t.Fatal("recovered master never rejoined")
	}
	if len(cluster.Slaves()) != 2 {
		t.Fatalf("slave set after rejoin = %d, want 2", len(cluster.Slaves()))
	}
	testutil.WaitForLag(t, cluster)
	all := append([]*replication.Replica{cluster.Master()}, cluster.Slaves()...)
	testutil.WaitConverged(t, all, "shop")
}

// TestEndToEndChaosPartitionHealOverWire drives a simnet partition through
// the wire layer: a minority replica is cut off mid-traffic, the majority
// keeps serving wire clients, and after the partition heals the straggler
// catches up (gap nacks + retransmission) until all replicas reconverge.
func TestEndToEndChaosPartitionHealOverWire(t *testing.T) {
	const n = 3
	net, orderers, mm := testutil.BuildGCSMultiMaster(t, n, gcs.Config{
		Ordering:          gcs.Sequencer,
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    40 * time.Millisecond,
	}, 7, replication.MultiMasterConfig{
		QuorumOf:      n,
		CommitTimeout: 500 * time.Millisecond,
	})

	addr := testutil.Serve(t, mm)
	boot, err := wire.Dial(addr, wire.DriverConfig{User: "boot"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE DATABASE shop", "USE shop",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
	} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	boot.Close()

	// Cut node 3 into a minority while clients keep writing.
	net.Partition([]simnet.NodeID{1, 2}, []simnet.NodeID{3})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(orderers[2].View().Members) == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	acked := 0
	id := 0
	deadline = time.Now().Add(10 * time.Second)
	for acked < 20 && time.Now().Before(deadline) {
		// A wire session homed on the minority replica refuses writes
		// (ErrNoQuorum); reopen until one lands on the majority — that is
		// exactly what an application-side driver would do.
		conn, err := wire.Dial(addr, wire.DriverConfig{User: fmt.Sprintf("p%d", id), Database: "shop"})
		if err != nil {
			t.Fatal(err)
		}
		for acked < 20 {
			id++
			if _, err := conn.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1)", id)); err != nil {
				break // minority-homed or mid-view-change: reopen
			}
			acked++
		}
		conn.Close()
	}
	if acked < 20 {
		t.Fatalf("majority side only acked %d writes during the partition", acked)
	}

	// Heal. The straggler must close its gaps and reconverge.
	net.Heal()
	testutil.WaitConverged(t, mm.Replicas(), "shop")
}
