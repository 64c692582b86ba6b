package replication_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gcs"
	"repro/internal/simnet"
	"repro/replication"
)

func TestFacadeMasterSlaveGoldenPath(t *testing.T) {
	master := replication.NewReplica(replication.ReplicaConfig{Name: "m"})
	slave := replication.NewReplica(replication.ReplicaConfig{Name: "s"})
	cluster := replication.NewMasterSlave(master, []*replication.Replica{slave},
		replication.MasterSlaveConfig{Consistency: replication.SessionConsistent})
	defer cluster.Close()
	sess := cluster.NewSession("app")
	defer sess.Close()
	for _, sql := range []string{
		"CREATE DATABASE d",
		"USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'x')",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := sess.Exec("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "x" {
		t.Fatalf("rows: %v", res.Rows)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.SlaveLag()["s"] == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	report, err := replication.CheckDivergence(
		append([]*replication.Replica{cluster.Master()}, cluster.Slaves()...), "d")
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("diverged: %v", report)
	}
}

func TestFacadeCertificationConflict(t *testing.T) {
	r1 := replication.NewReplica(replication.ReplicaConfig{Name: "r1"})
	r2 := replication.NewReplica(replication.ReplicaConfig{Name: "r2"})
	ord := replication.NewLocalOrderer()
	defer ord.Close()
	mm, err := replication.NewMultiMaster([]*replication.Replica{r1, r2},
		[]replication.Orderer{ord},
		replication.MultiMasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	boot, err := mm.NewSession("boot")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE DATABASE d", "USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER DEFAULT 0)",
		"INSERT INTO t (id) VALUES (1)",
	} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	boot.Close()
	time.Sleep(20 * time.Millisecond) // let both replicas apply

	open := func() *replication.MMSession {
		s, err := mm.NewSession("u")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("USE d"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(), open()
	defer s1.Close()
	defer s2.Close()
	_, err1 := s1.Exec("COMMIT")
	_, err2 := s2.Exec("COMMIT")
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("first-committer-wins violated: %v / %v", err1, err2)
	}
}

func TestFacadeQuorumRefusesMinorityWrites(t *testing.T) {
	// Multi-master over real group communication; partition one replica
	// away and verify the §4.3.4.3 behaviour: the minority refuses writes
	// (C before A under P), the majority keeps going.
	const n = 3
	net, orderers := replication.BuildGCSCluster(n, gcs.Config{
		Ordering:          gcs.Sequencer,
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    40 * time.Millisecond,
	}, 1)
	defer net.Close()
	reps := make([]*replication.Replica, n)
	ords := make([]replication.Orderer, n)
	for i := range reps {
		reps[i] = replication.NewReplica(replication.ReplicaConfig{Name: fmt.Sprintf("r%d", i+1)})
		ords[i] = orderers[i]
	}
	mm, err := replication.NewMultiMaster(reps, ords, replication.MultiMasterConfig{
		QuorumOf:      n,
		CommitTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	defer func() {
		for _, o := range orderers {
			o.Close()
		}
	}()

	boot, err := mm.NewSession("boot")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE DATABASE d", "USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER DEFAULT 0)",
	} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	boot.Close()

	// Partition node 3 into a minority.
	net.Partition([]simnet.NodeID{1, 2}, []simnet.NodeID{3})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(orderers[2].View().Members) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A session homed on the minority replica must refuse writes.
	minority := findSession(t, mm, reps[2])
	defer minority.Close()
	if _, err := minority.Exec("USE d"); err != nil {
		t.Fatal(err)
	}
	_, err = minority.Exec("INSERT INTO t (id) VALUES (99)")
	if !errors.Is(err, replication.ErrNoQuorum()) && err == nil {
		t.Fatalf("minority write should fail, got %v", err)
	}
	// A majority-homed session keeps working.
	majority := findSession(t, mm, reps[0])
	defer majority.Close()
	if _, err := majority.Exec("USE d"); err != nil {
		t.Fatal(err)
	}
	if _, err := majority.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatalf("majority write failed: %v", err)
	}
}

// findSession opens sessions until one is homed on the wanted replica.
func findSession(t *testing.T, mm *replication.MultiMaster, want *replication.Replica) *replication.MMSession {
	t.Helper()
	for i := 0; i < 64; i++ {
		s, err := mm.NewSession(fmt.Sprintf("probe%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if s.Home() == want {
			return s
		}
		s.Close()
	}
	t.Fatalf("could not home a session on %s", want.Name())
	return nil
}

func TestFacadeBackupRestore(t *testing.T) {
	r := replication.NewReplica(replication.ReplicaConfig{Name: "r"})
	s := r.Engine().NewSession("app")
	defer s.Close()
	for _, sql := range []string{
		"CREATE DATABASE d", "USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'x')",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	b, err := r.Engine().Dump(replication.BackupOptions{IncludeSequences: true})
	if err != nil {
		t.Fatal(err)
	}
	clone := replication.NewReplica(replication.ReplicaConfig{Name: "clone"})
	if err := clone.Engine().Restore(b); err != nil {
		t.Fatal(err)
	}
	c1, _ := r.Engine().TableChecksum("d", "t")
	c2, _ := clone.Engine().TableChecksum("d", "t")
	if c1 != c2 {
		t.Fatal("clone diverged")
	}
}
