package replication_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/replication"
)

// TestClusterParallelReadStress drives a master-slave cluster with one
// writer and several concurrent read-only sessions per isolation level of
// the underlying engines, under write-set shipping with group-commit
// batching. It checks that reads stay error-free while writes replicate,
// that the cluster converges, and runs clean under -race.
func TestClusterParallelReadStress(t *testing.T) {
	master := replication.NewReplica(replication.ReplicaConfig{Name: "m"})
	s1 := replication.NewReplica(replication.ReplicaConfig{Name: "s1"})
	s2 := replication.NewReplica(replication.ReplicaConfig{Name: "s2"})
	cluster := replication.NewMasterSlave(master, []*replication.Replica{s1, s2},
		replication.MasterSlaveConfig{Consistency: replication.SessionConsistent})
	defer cluster.Close()

	setup := cluster.NewSession("app")
	for _, sql := range []string{
		"CREATE DATABASE d",
		"USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, val INTEGER)",
	} {
		if _, err := setup.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for i := 0; i < 32; i++ {
		if _, err := setup.Exec(fmt.Sprintf(
			"INSERT INTO t (id, val) VALUES (%d, 0)", i)); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	// Let both slaves apply the schema before readers route to them.
	setupDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(setupDeadline) {
		lag := cluster.SlaveLag()
		if lag["s1"] == 0 && lag["s2"] == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const readers = 6
	const writes = 200
	const readIters = 120
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		w := cluster.NewSession("writer")
		defer w.Close()
		if _, err := w.Exec("USE d"); err != nil {
			errCh <- err
			return
		}
		for i := 0; i < writes; i++ {
			if _, err := w.Exec(fmt.Sprintf(
				"UPDATE t SET val = %d WHERE id = %d", i, i%32)); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := cluster.NewSession("reader")
			defer s.Close()
			if _, err := s.Exec("USE d"); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < readIters; i++ {
				res, err := s.Exec("SELECT COUNT(*) FROM t")
				if err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
				if n := res.Rows[0][0].Int(); n != 32 {
					errCh <- fmt.Errorf("reader: count %d, want 32", n)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Let the slaves drain, then check convergence.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lag := cluster.SlaveLag()
		if lag["s1"] == 0 && lag["s2"] == 0 {
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
		t.Fatalf("cluster diverged after stress: %v", report)
	}
}

// TestSlaveApplyBatching checks the group-commit apply path end to end: a
// slave attached after the master has accumulated a backlog must drain it
// in fewer engine lock round-trips than events, and still converge to the
// master's state.
func TestSlaveApplyBatching(t *testing.T) {
	master := replication.NewReplica(replication.ReplicaConfig{Name: "m"})
	cluster := replication.NewMasterSlave(master, nil, replication.MasterSlaveConfig{})
	defer cluster.Close()

	sess := cluster.NewSession("app")
	defer sess.Close()
	for _, sql := range []string{
		"CREATE DATABASE d",
		"USE d",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, val INTEGER)",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const writes = 120
	for i := 0; i < writes; i++ {
		if _, err := sess.Exec(fmt.Sprintf(
			"INSERT INTO t (id, val) VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Attach a fresh slave against the accumulated backlog.
	slave := replication.NewReplica(replication.ReplicaConfig{Name: "late"})
	if err := cluster.Failback(slave, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.SlaveLag()["late"] == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lag := cluster.SlaveLag()["late"]; lag != 0 {
		t.Fatalf("slave still lagging by %d events", lag)
	}

	events, batches := slave.ApplyStats()
	if events == 0 || batches == 0 {
		t.Fatalf("no apply stats recorded (events=%d batches=%d)", events, batches)
	}
	if batches >= events {
		t.Errorf("backlog drained without batching: %d events in %d lock round-trips",
			events, batches)
	}
	t.Logf("drained %d events in %d batches (%.1f events/lock round-trip)",
		events, batches, float64(events)/float64(batches))

	report, err := replication.CheckDivergence(
		[]*replication.Replica{cluster.Master(), slave}, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("diverged after batched apply: %v", report)
	}
}
