// Consistency certification matrix: every topology × isolation level ×
// consistency guarantee runs the deterministic seeded workload
// (internal/history), records the client-observable history at the Conn
// boundary, and hands it to the offline checkers. A cell passes when the
// strongest *sound* check for that configuration admits the history —
// the expectedCheck mapping below is the contract each topology actually
// promises, which is the paper's central theme: the guarantee delivered
// depends on the replication design, not on what the client requested
// (§2, §3.3). Fault cells rerun representative configurations with a
// mid-run master kill + automatic rejoin, a partitioned sub-cluster
// failover, a group-communication network partition, and a WAN site
// failover; 1-safe losses are excused via the dead master's binlog.
// A final test injects a genuine read-your-writes anomaly and proves the
// checkers catch it with a printed counterexample.
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/history"
	"repro/internal/testutil"
	"repro/replication"
)

// certWorkload is the per-cell deterministic workload: 4 concurrent
// sessions, 30 work units each, over an 8-key space — small enough that
// every cell finishes quickly, contended enough that write-write conflicts,
// certification aborts and stale-read windows all actually occur.
func certWorkload(seed int64) history.WorkloadConfig {
	return history.WorkloadConfig{
		Seed:         seed,
		Sessions:     4,
		Txns:         30,
		Keys:         8,
		ReadFraction: 0.4,
		TxnFraction:  0.3,
		OpsPerTxn:    2,
	}
}

// certFaultWorkload doubles the per-session unit count and paces the units
// so the workload demonstrably spans the injected fault: an unpaced run on
// an in-process cluster can drain its whole script between two polls of
// waitCommitted (assertWorkloadSpansFault would then fail).
func certFaultWorkload(seed int64) history.WorkloadConfig {
	cfg := certWorkload(seed)
	cfg.Txns = 60
	cfg.Pace = 300 * time.Microsecond
	return cfg
}

// certSeed returns the cell's fixed seed, or shifts it by CERT_SEED when CI
// asks for a randomized (but logged, hence reproducible) run.
func certSeed(t *testing.T, base int64) int64 {
	if s := os.Getenv("CERT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CERT_SEED %q: %v", s, err)
		}
		seed := base + n
		t.Logf("CERT_SEED=%d: running with seed %d", n, seed)
		return seed
	}
	return base
}

var certIsolations = []struct {
	name  string
	sql   string // accepted by Conn.SetIsolation
	level history.Level
}{
	{"read-committed", "READ COMMITTED", history.ReadCommitted},
	{"snapshot", "SNAPSHOT", history.SnapshotIsolation},
	{"serializable", "SERIALIZABLE", history.Serializable},
}

var certConsistencies = []struct {
	name string
	cons replication.Consistency
}{
	{"any", replication.ReadAny},
	{"session", replication.SessionConsistent},
	{"strong", replication.StrongConsistent},
}

// certTopologies lists the matrix rows. standalone is one engine behind the
// master-slave router with no slaves: it certifies the engine's own
// isolation levels, so an engine bug shows there first rather than being
// misread as a replication bug. It sits last so the other rows keep their
// seeds.
var certTopologies = []string{"master-slave", "multi-master", "partitioned", "wan", "standalone"}

// expectedCheck maps one matrix cell to the strongest offline check the
// configuration soundly promises. The reasoning, per dimension:
//
//   - consistency=any lets every read come from an arbitrarily stale
//     replica. Snapshot/serializable checks order a session's transactions
//     (session-order edges), which stale reads violate without being bugs,
//     so the ceiling is read committed — whose G1 axioms hold on any
//     committed-prefix read.
//   - master-slave has one binlog; session/strong reads are monotone
//     prefixes of it, so the requested level is sound (and strong adds
//     real-time edges: reads wait for the master's head). standalone is
//     the same with every read served by the master.
//   - multi-master certification is first-committer-wins over the totally
//     ordered write stream — snapshot isolation by construction, never
//     serializable, so the requested level is capped at snapshot.
//   - partitioned clusters commit every transaction inside one partition,
//     but session consistency tracks each partition independently: two
//     sessions can observe two partitions' writes in opposite orders (a
//     real long fork), so session caps at read committed. Strong reads
//     wait for each partition's head and single-partition linearizability
//     composes, restoring the requested level.
//   - WAN sites refresh each other asynchronously by design (§4.3.4.1):
//     remote-owned keys are served stale, so read committed is the
//     ceiling at every consistency level, with no real-time edges.
func expectedCheck(topo string, cons replication.Consistency, req history.Level) (history.Level, bool) {
	if cons == replication.ReadAny {
		return history.ReadCommitted, false
	}
	rt := cons == replication.StrongConsistent
	switch topo {
	case "master-slave", "standalone":
		return req, rt
	case "multi-master":
		if req > history.SnapshotIsolation {
			req = history.SnapshotIsolation
		}
		return req, rt
	case "partitioned":
		if cons == replication.SessionConsistent {
			return history.ReadCommitted, false
		}
		return req, rt
	default: // wan
		return history.ReadCommitted, false
	}
}

// kvPartitionRules shards the workload table by its key column.
func kvPartitionRules() []*replication.PartitionRule {
	return []*replication.PartitionRule{{
		Table: "kv", Column: "k", Strategy: replication.HashPartition,
	}}
}

// buildWANCluster wires two sites (one slave each), splitting the 8-key
// space between them. The schema is provisioned at both sites before the
// WAN starts shipping, so a forwarded write can never reach a site ahead
// of the DDL it needs. All recorded sessions home at the first site; its
// owned keys are the only ones session guarantees cover (remote-owned keys
// are refreshed asynchronously and promise nothing).
func buildWANCluster(t *testing.T, cons replication.Consistency) (*replication.WAN, []*replication.MasterSlave) {
	t.Helper()
	mk := func(site string) *replication.MasterSlave {
		m := replication.NewReplica(replication.ReplicaConfig{Name: site + "-m"})
		s := replication.NewReplica(replication.ReplicaConfig{Name: site + "-s"})
		ms := replication.NewMasterSlave(m, []*replication.Replica{s}, replication.MasterSlaveConfig{
			Consistency:         cons,
			TransparentFailover: true,
		})
		t.Cleanup(ms.Close)
		testutil.ExecAll(t, ms,
			"CREATE DATABASE app",
			"USE app",
			"CREATE TABLE IF NOT EXISTS kv (k INTEGER PRIMARY KEY, v INTEGER)")
		return ms
	}
	east, west := mk("east"), mk("west")
	owned := func(lo, hi int64) []replication.Value {
		var vs []replication.Value
		for k := lo; k <= hi; k++ {
			vs = append(vs, replication.IntValue(k))
		}
		return vs
	}
	w := testutil.BuildWAN(t, []*replication.SiteConfig{
		{Name: "east", Cluster: east, OwnedKeys: owned(1, 4)},
		{Name: "west", Cluster: west, OwnedKeys: owned(5, 8)},
	}, replication.WANConfig{
		Table:       "kv",
		Column:      "k",
		Latency:     200 * time.Microsecond,
		SyncForward: true,
	})
	return w, []*replication.MasterSlave{east, west}
}

// wanHomeKeys accepts the keys owned by the home (first) WAN site.
func wanHomeKeys(key string) bool {
	n, err := strconv.Atoi(key)
	return err == nil && n >= 1 && n <= 4
}

// buildCertCluster constructs one matrix cell's cluster. The returned key
// filter restricts the session-guarantee check (nil = every key).
func buildCertCluster(t *testing.T, topo string, cons replication.Consistency) (replication.Cluster, func(string) bool) {
	t.Helper()
	switch topo {
	case "master-slave":
		ms := testutil.BuildMasterSlave(t, 2, replication.MasterSlaveConfig{Consistency: cons})
		testutil.CreateDB(t, ms, "app")
		return ms, nil
	case "standalone":
		ms := testutil.BuildMasterSlave(t, 0, replication.MasterSlaveConfig{Consistency: cons})
		testutil.CreateDB(t, ms, "app")
		return ms, nil
	case "multi-master":
		mm := testutil.BuildMultiMaster(t, 3, replication.MultiMasterConfig{
			Consistency: cons,
		})
		testutil.CreateDB(t, mm, "app")
		return mm, nil
	case "partitioned":
		pc, _ := testutil.BuildPartitioned(t, 2, 1, kvPartitionRules(),
			replication.MasterSlaveConfig{Consistency: cons, TransparentFailover: true})
		testutil.CreateDB(t, pc, "app")
		return pc, nil
	case "wan":
		w, _ := buildWANCluster(t, cons)
		return w, wanHomeKeys
	}
	t.Fatalf("unknown topology %q", topo)
	return nil, nil
}

// certOpener hands the harness fresh connections on the app database at the
// cell's isolation level.
func certOpener(c replication.Cluster, isoSQL string) history.Opener {
	return func() (replication.Conn, error) {
		conn, err := c.NewConn("app")
		if err != nil {
			return nil, err
		}
		if _, err := conn.Exec("USE app"); err != nil {
			conn.Close()
			return nil, err
		}
		if err := conn.SetIsolation(isoSQL); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// runCertWorkload bootstraps the key space and drives the recorded workload,
// running chaos (if any) concurrently. The chaos callback receives the live
// recorder so it can pace fault injection off actual workload progress
// (waitCommitted) rather than wall-clock sleeps. It returns the recorded
// history.
func runCertWorkload(t *testing.T, c replication.Cluster, isoSQL string, cfg history.WorkloadConfig, chaos func(*history.Recorder)) *history.History {
	t.Helper()
	rec := history.NewRecorder(history.Spec{})
	open := certOpener(c, isoSQL)
	if err := history.Bootstrap(rec, open, cfg); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	var wg sync.WaitGroup
	if chaos != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chaos(rec)
		}()
	}
	err := history.RunWorkload(rec, open, cfg)
	wg.Wait()
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return rec.History()
}

// assertSubstantial fails if the history is too thin to certify anything —
// an empty or trivial history passing the checkers proves nothing.
func assertSubstantial(t *testing.T, h *history.History) {
	t.Helper()
	var writes, reads int
	for _, txn := range h.Txns() {
		if txn.Status != history.StatusCommitted {
			continue
		}
		for _, op := range txn.Ops {
			switch op.Kind {
			case history.OpRead:
				reads++
			case history.OpWrite:
				if op.Applied && op.Seq > 0 {
					writes++
				}
			}
		}
	}
	if writes < 20 || reads < 10 {
		t.Fatalf("history too thin to certify: %d committed positioned writes, %d committed reads", writes, reads)
	}
}

// waitCommitted blocks until the recorder holds at least n committed
// transactions, so a fault injected on return provably lands mid-workload —
// the remaining units run after it (assertWorkloadSpansFault verifies).
// Pacing off recorded progress instead of a fixed sleep keeps the overlap
// independent of machine speed.
func waitCommitted(rec *history.Recorder, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		committed := 0
		for _, txn := range rec.History().Txns() {
			if txn.Status == history.StatusCommitted {
				committed++
			}
		}
		if committed >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("workload never reached %d committed transactions", n)
}

// assertWorkloadSpansFault fails unless some committed transaction started
// after the fault fired — i.e. the fault genuinely hit a running workload
// instead of landing after it drained. Safe to read faultAt without
// synchronization: runCertWorkload joins the chaos goroutine before
// returning the history.
func assertWorkloadSpansFault(t *testing.T, h *history.History, faultAt int64) {
	t.Helper()
	if faultAt == 0 {
		t.Fatal("fault never fired")
	}
	for _, txn := range h.Txns() {
		if txn.Status == history.StatusCommitted && txn.Start > faultAt {
			return
		}
	}
	t.Fatal("no committed transaction started after the fault — the workload did not span it")
}

// assertCertVerdict runs the cell's isolation check plus (for session and
// strong consistency) the session-guarantee check, printing the checker's
// counterexample on failure.
func assertCertVerdict(t *testing.T, h *history.History, level history.Level, rt bool,
	cons replication.Consistency, ex history.Excused, keys func(string) bool) {
	t.Helper()
	assertSubstantial(t, h)
	if v := history.Check(h, history.CheckOpts{Level: level, RealTime: rt, Excused: ex}); v != nil {
		t.Fatalf("%v check rejected the history:\n%v", level, v)
	}
	if cons != replication.ReadAny {
		if v := history.CheckSessionGuarantees(h, history.SessionOpts{Excused: ex, KeyFilter: keys}); v != nil {
			t.Fatalf("session guarantees rejected the history:\n%v", v)
		}
	}
}

// TestConsistencyCertificationMatrix is the fault-free matrix: 5 topologies
// × 3 isolation levels × 3 consistency guarantees, each cell checked at the
// strongest level the configuration soundly promises.
func TestConsistencyCertificationMatrix(t *testing.T) {
	for ti, topo := range certTopologies {
		for ii, iso := range certIsolations {
			for ci, cc := range certConsistencies {
				topo, iso, cc := topo, iso, cc
				base := int64(1000 + 100*ti + 10*ii + ci)
				t.Run(fmt.Sprintf("%s/%s/%s", topo, iso.name, cc.name), func(t *testing.T) {
					t.Parallel()
					seed := certSeed(t, base)
					cluster, keys := buildCertCluster(t, topo, cc.cons)
					h := runCertWorkload(t, cluster, iso.sql, certWorkload(seed), nil)
					level, rt := expectedCheck(topo, cc.cons, iso.level)
					assertCertVerdict(t, h, level, rt, cc.cons, nil, keys)
				})
			}
		}
	}
}

// TestConsistencyCertMasterSlaveKillRejoin kills the durable cluster's
// master mid-workload. The monitor fails over automatically, the lost
// 1-safe suffix is excused from the dead master's binlog, and the recovered
// master rejoins as a slave — all while the recorded workload keeps running
// through the query cache (the failover cache flush is load-bearing here: a
// stale post-promotion cache hit would fail the session-guarantee check).
func TestConsistencyCertMasterSlaveKillRejoin(t *testing.T) {
	qc := replication.NewQueryCache(replication.QueryCacheConfig{})
	d, err := replication.OpenDurable(replication.DurableConfig{
		Slaves: 2,
		Cluster: replication.MasterSlaveConfig{
			Consistency:         replication.SessionConsistent,
			TransparentFailover: true,
			QueryCache:          qc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ms := d.Cluster()
	testutil.CreateDB(t, ms, "app")

	old := ms.Master()
	var ex history.Excused
	var faultAt int64
	var chaosErr error
	chaos := func(rec *history.Recorder) {
		if chaosErr = waitCommitted(rec, 60); chaosErr != nil {
			return
		}
		old.Fail()
		faultAt = history.Now()
		deadline := time.Now().Add(5 * time.Second)
		for ms.Master() == old {
			if time.Now().After(deadline) {
				chaosErr = fmt.Errorf("monitor never promoted a slave")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The dead master's binlog still holds the lost suffix; capture it
		// before Recover(), because the auto-rejoin rolls the replica back
		// to a checkpoint clone and the evidence vanishes with it.
		promoted := old.Engine().Binlog().Head() - ms.LostTransactions()
		ex = history.ExcusedFromBinlog(old.Engine(), promoted, history.Spec{})
		old.Recover()
		for d.Monitor().Rejoins() == 0 {
			if time.Now().After(deadline) {
				chaosErr = fmt.Errorf("recovered master never rejoined")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	h := runCertWorkload(t, ms, "SNAPSHOT", certFaultWorkload(certSeed(t, 2001)), chaos)
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	if d.Monitor().Failovers() == 0 || d.Monitor().Rejoins() == 0 {
		t.Fatalf("fault did not exercise the cluster: %d failovers, %d rejoins",
			d.Monitor().Failovers(), d.Monitor().Rejoins())
	}
	assertWorkloadSpansFault(t, h, faultAt)
	assertCertVerdict(t, h, history.SnapshotIsolation, false, replication.SessionConsistent, ex, nil)
}

// TestConsistencyCertPartitionedMasterKill kills one partition's master
// mid-workload and promotes its slave. Only that partition's unshipped
// suffix is excusable; every other key keeps full guarantees.
func TestConsistencyCertPartitionedMasterKill(t *testing.T) {
	pc, parts := testutil.BuildPartitioned(t, 2, 1, kvPartitionRules(),
		replication.MasterSlaveConfig{
			Consistency:         replication.SessionConsistent,
			TransparentFailover: true,
		})
	testutil.CreateDB(t, pc, "app")

	var ex history.Excused
	var faultAt int64
	var chaosErr error
	chaos := func(rec *history.Recorder) {
		if chaosErr = waitCommitted(rec, 60); chaosErr != nil {
			return
		}
		old := parts[0].Master()
		old.Fail()
		faultAt = history.Now()
		if _, err := parts[0].Failover(); err != nil {
			chaosErr = fmt.Errorf("partition failover: %w", err)
			return
		}
		promoted := old.Engine().Binlog().Head() - parts[0].LostTransactions()
		ex = history.ExcusedFromBinlog(old.Engine(), promoted, history.Spec{})
	}

	h := runCertWorkload(t, pc, "SNAPSHOT", certFaultWorkload(certSeed(t, 2002)), chaos)
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	assertWorkloadSpansFault(t, h, faultAt)
	level, rt := expectedCheck("partitioned", replication.SessionConsistent, history.SnapshotIsolation)
	assertCertVerdict(t, h, level, rt, replication.SessionConsistent, ex, nil)
}

// TestConsistencyCertMultiMasterPartitionHeal isolates one node of a
// 3-node certification cluster over real group communication mid-workload,
// then heals the network. Quorum keeps the majority serving; the isolated
// minority's writes fail (or time out as Unknown) rather than fork — the
// checker's snapshot verdict over the whole run proves it.
func TestConsistencyCertMultiMasterPartitionHeal(t *testing.T) {
	const n = 3
	net, _, mm := testutil.BuildGCSMultiMaster(t, n, gcs.Config{
		Ordering:          gcs.Sequencer,
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    40 * time.Millisecond,
	}, 2003, replication.MultiMasterConfig{
		Consistency:   replication.SessionConsistent,
		QuorumOf:      n,
		CommitTimeout: 500 * time.Millisecond,
	})
	testutil.CreateDB(t, mm, "app")

	var faultAt int64
	var chaosErr error
	chaos := func(rec *history.Recorder) {
		if chaosErr = waitCommitted(rec, 60); chaosErr != nil {
			return
		}
		net.Isolate(3)
		faultAt = history.Now()
		time.Sleep(150 * time.Millisecond)
		net.Heal()
	}

	h := runCertWorkload(t, mm, "SNAPSHOT", certFaultWorkload(certSeed(t, 2003)), chaos)
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	assertWorkloadSpansFault(t, h, faultAt)
	assertCertVerdict(t, h, history.SnapshotIsolation, false, replication.SessionConsistent, nil, nil)
}

// TestConsistencyCertWANSiteMasterKill kills the home site's master
// mid-workload and promotes its slave. Cross-site shipping may have
// outrun the promoted lineage, so the lost suffix is excused; guarantees
// on home-owned keys survive the failover.
func TestConsistencyCertWANSiteMasterKill(t *testing.T) {
	w, sites := buildWANCluster(t, replication.SessionConsistent)

	var ex history.Excused
	var faultAt int64
	var chaosErr error
	chaos := func(rec *history.Recorder) {
		if chaosErr = waitCommitted(rec, 60); chaosErr != nil {
			return
		}
		old := sites[0].Master()
		old.Fail()
		faultAt = history.Now()
		if _, err := sites[0].Failover(); err != nil {
			chaosErr = fmt.Errorf("site failover: %w", err)
			return
		}
		promoted := old.Engine().Binlog().Head() - sites[0].LostTransactions()
		ex = history.ExcusedFromBinlog(old.Engine(), promoted, history.Spec{})
	}

	h := runCertWorkload(t, w, "SNAPSHOT", certFaultWorkload(certSeed(t, 2004)), chaos)
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	assertWorkloadSpansFault(t, h, faultAt)
	level, rt := expectedCheck("wan", replication.SessionConsistent, history.SnapshotIsolation)
	assertCertVerdict(t, h, level, rt, replication.SessionConsistent, ex, wanHomeKeys)
}

// TestInjectedAnomalyIsCaught proves the certification pipeline detects a
// real bug: with cache invalidation deliberately skipped, a session that
// reads, writes and re-reads one key observes its pre-write value from the
// cache — a read-your-writes violation the checker must report with a
// concrete counterexample. The identical script passes once the injection
// is turned off.
func TestInjectedAnomalyIsCaught(t *testing.T) {
	script := func(inject bool) *replication.HistoryViolation {
		qc := replication.NewQueryCache(replication.QueryCacheConfig{})
		ms := testutil.BuildMasterSlave(t, 1, replication.MasterSlaveConfig{
			Consistency: replication.SessionConsistent,
			QueryCache:  qc,
		})
		testutil.CreateDB(t, ms, "app")
		rec := history.NewRecorder(history.Spec{})
		open := certOpener(ms, "SNAPSHOT")
		if err := history.Bootstrap(rec, open, history.WorkloadConfig{Keys: 2}); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		// The script below must not race the slave's catch-up: a read
		// served before the seed rows apply would be a (legal) stale miss,
		// not the cache anomaly this test injects.
		testutil.WaitForLag(t, ms)
		c, err := open()
		if err != nil {
			t.Fatal(err)
		}
		rc := history.WrapConn(c, rec)
		defer rc.Close()
		// r(k1) populates the cache; w(k1) should invalidate it; the second
		// r(k1) must observe the write. With invalidation skipped the stale
		// cached row comes back instead.
		mustExecConn(t, rc, "SELECT v FROM kv WHERE k = 1")
		ms.InjectSkipCacheInvalidation(inject)
		defer ms.InjectSkipCacheInvalidation(false)
		mustExecConn(t, rc, fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", history.NextValue()))
		mustExecConn(t, rc, "SELECT v FROM kv WHERE k = 1")
		return history.CheckSessionGuarantees(rec.History(), history.SessionOpts{})
	}

	v := script(true)
	if v == nil {
		t.Fatal("injected stale-cache anomaly was not caught")
	}
	if v.Kind != "read-your-writes" && v.Kind != "monotonic-reads" {
		t.Fatalf("anomaly misclassified as %q:\n%v", v.Kind, v)
	}
	t.Logf("checker counterexample for the injected anomaly:\n%v", v)

	if v := script(false); v != nil {
		t.Fatalf("clean run rejected:\n%v", v)
	}
}

func mustExecConn(t *testing.T, c replication.Conn, sql string) {
	t.Helper()
	if _, err := c.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
