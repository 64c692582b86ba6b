package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/recoverylog"
)

// TestMasterSlaveDifferential is the write-set shipping gate: a seeded
// workload full of what statement re-execution gets wrong — RAND() and
// NOW() on replicas whose generators and clocks disagree, multi-row and
// primary-key-changing updates, procedures, rollbacks, temp tables,
// AUTO_INCREMENT and sequences — must leave every slave byte-identical to
// the master, before a master kill and again on the promoted lineage.
func TestMasterSlaveDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reps := diffReplicas(4, seed)
			ms := NewMasterSlave(reps[0], reps[1:], MasterSlaveConfig{})
			t.Cleanup(ms.Close)
			w := newDiffWorkload(t, ms, seed, true)
			check := func(reps []*Replica) {
				waitCaughtUp(t, ms)
				w.converged(reps)
				w.binlogsAligned(reps)
			}
			w.run(300)
			check(reps)

			old := ms.Master()
			old.Fail()
			promoted, err := ms.Failover()
			if err != nil {
				t.Fatal(err)
			}
			if lost := ms.LostTransactions(); lost != 0 {
				t.Fatalf("failover of a caught-up cluster lost %d transactions", lost)
			}
			w.tempTables()
			w.run(300)
			check(append([]*Replica{promoted}, ms.Slaves()...))
		})
	}
}

// TestMultiMasterDifferential is the certification gate: the same seeded
// workload (less temp tables, which are master-slave only), issued through
// sessions homed on three replicas whose generators and clocks disagree,
// must leave every replica byte-identical once the ordered stream drains.
// Commits that lose certification are counted, not retried: the workload
// only ever depends on row images, never on which transactions won.
func TestMultiMasterDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reps := diffReplicas(3, seed)
			ord := NewLocalOrderer()
			t.Cleanup(ord.Close)
			mm, err := NewMultiMaster(reps, []Orderer{ord}, MultiMasterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mm.Close)
			w := newDiffWorkload(t, mm, seed, false)
			waitMMCaughtUp(t, mm) // every home holds the schema
			w.run(300)
			waitMMCaughtUp(t, mm)
			w.converged(reps)
			if mm.Commits() == 0 {
				t.Fatal("no transaction committed")
			}
			t.Logf("%d commits, %d certification aborts (%d seen by the workload)", mm.Commits(), mm.Aborts(), w.aborts)
		})
	}
}

// TestRecoveryDifferential is the recovery-log gate: the same seeded
// workload (less temp tables, as in the multi-master gate) runs on a
// master-slave cluster whose binlog is recorded into a recovery log, with
// one checkpoint backup taken halfway. Two fresh
// replicas, whose generators and clocks disagree with the master's, are then
// rebuilt from the log alone: one by applying the whole log from position
// 0, one by ResyncAuto (checkpoint restore + tail). Each must end
// byte-identical to the master, with its binlog aligned.
func TestRecoveryDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reps := diffReplicas(4, seed)
			ms := NewMasterSlave(reps[0], reps[1:2], MasterSlaveConfig{})
			t.Cleanup(ms.Close)
			prov := NewProvisioner(recoverylog.New())
			prov.Follow(reps[0], FollowOptions{})
			t.Cleanup(prov.Unfollow)
			w := newDiffWorkload(t, ms, seed, false)
			w.run(150)
			waitRecorded(t, prov, reps[0])
			if _, err := prov.CheckpointBackup("mid", reps[0], FaithfulBackup); err != nil {
				t.Fatal(err)
			}
			w.run(150)
			waitCaughtUp(t, ms)
			waitRecorded(t, prov, reps[0])

			full, tail := reps[2], reps[3]
			opts := ResyncOptions{BatchWait: 5 * time.Millisecond}
			if _, err := prov.Resync(full, 0, opts, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			res, err := prov.ResyncAuto(tail, opts, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cloned {
				t.Fatalf("fresh replica did not restore the checkpoint: %+v", res)
			}
			rebuilt := []*Replica{reps[0], full, tail}
			w.converged(rebuilt)
			w.binlogsAligned(rebuilt)
		})
	}
}

// TestWANDifferential is the cross-site gate: the same seeded workload (less
// temp tables) enters the first of three sites, whose masters' generators and
// clocks disagree, and ships to the other two. Once shipping drains, every
// site master and the first site's slave must be identical to the origin,
// and no link may have stopped.
func TestWANDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reps := diffReplicas(4, seed)
			var sites []*SiteConfig
			for i, name := range []string{"eu", "us", "asia"} {
				var slaves []*Replica
				if i == 0 {
					slaves = reps[3:]
				}
				ms := NewMasterSlave(reps[i], slaves, MasterSlaveConfig{})
				t.Cleanup(ms.Close)
				sites = append(sites, &SiteConfig{Name: name, Cluster: ms})
			}
			wan, err := NewWAN(sites, WANConfig{Latency: 100 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(wan.Close)
			w := newDiffWorkload(t, wan, seed, false)
			w.run(200)

			// Drained: every site master has logged one event per origin
			// event, or a link stopped.
			head := reps[0].Engine().Binlog().Head()
			deadline := time.Now().Add(10 * time.Second)
			for _, s := range sites[1:] {
				for s.Cluster.MasterSeq() < head && len(wan.LinkErrors()) == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			if errs := wan.LinkErrors(); len(errs) != 0 {
				t.Fatalf("links stopped: %v", errs)
			}
			for _, s := range sites {
				waitCaughtUp(t, s.Cluster)
			}
			w.converged(reps)
			w.binlogsAligned(reps)
		})
	}
}

// diffReplicas builds n replicas whose random generators and clocks
// disagree: re-executing a statement on them cannot reproduce its result.
func diffReplicas(n int, seed int64) []*Replica {
	reps := make([]*Replica, n)
	for i := range reps {
		skew := time.Duration(i) * time.Hour
		reps[i] = NewReplica(ReplicaConfig{
			Name: fmt.Sprintf("r%d", i+1),
			Engine: engine.Config{
				RandSeed: seed*100 + int64(i),
				Now:      func() time.Time { return time.Now().Add(skew) },
			},
		})
	}
	return reps
}

// diffWorkload drives one seeded statement stream through three
// connections of a cluster.
type diffWorkload struct {
	t      *testing.T
	rng    *rand.Rand
	sess   []Conn
	temp   bool // the topology keeps per-session temp tables
	accts  int  // AUTO_INCREMENT ids handed out so far, an upper bound
	next   int  // next fresh ledger id
	aborts int  // commits lost to certification
}

func newDiffWorkload(t *testing.T, c Cluster, seed int64, temp bool) *diffWorkload {
	w := &diffWorkload{t: t, rng: rand.New(rand.NewSource(seed)), temp: temp, next: 1}
	for i := 0; i < 3; i++ {
		s, err := c.NewConn(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		w.sess = append(w.sess, s)
	}
	w.exec(w.sess[0], "CREATE DATABASE bank")
	for _, s := range w.sess {
		w.exec(s, "USE bank")
	}
	for _, sql := range []string{
		"CREATE TABLE acct (id INTEGER PRIMARY KEY AUTO_INCREMENT, owner TEXT, bal FLOAT DEFAULT 0, seen TIMESTAMP)",
		"CREATE TABLE ledger (id INTEGER PRIMARY KEY, acct INTEGER, amt FLOAT)",
		"CREATE TABLE notes (body TEXT, at TIMESTAMP)", // no primary key
		"CREATE SEQUENCE refs START 1 INCREMENT 1",
		"CREATE PROCEDURE credit(k, n) BEGIN UPDATE acct SET bal = bal + n * RAND(), seen = NOW() WHERE id = k; INSERT INTO notes (body, at) VALUES ('credit', NOW()); END",
	} {
		w.exec(w.sess[0], sql)
	}
	if temp {
		w.tempTables()
	}
	return w
}

// tempTables creates each session's temp table on the current master; a
// failover loses them with the old master's sessions (§4.1.4).
func (w *diffWorkload) tempTables() {
	for _, s := range w.sess {
		w.exec(s, "CREATE TEMP TABLE pick (v INTEGER)")
	}
}

// exec runs one statement. A certification abort (at an autocommit write
// or at COMMIT) is counted: it ends the transaction, and the workload's
// bookkeeping holds whether or not the transaction committed.
func (w *diffWorkload) exec(s Conn, sql string) {
	w.t.Helper()
	if _, err := s.Exec(sql); errors.Is(err, ErrCertificationAbort) {
		w.aborts++
	} else if err != nil {
		w.t.Fatalf("%s: %v", sql, err)
	}
}

func (w *diffWorkload) acct() int { return 1 + w.rng.Intn(w.accts+1) }

func (w *diffWorkload) ledger() int { return 1 + w.rng.Intn(w.next) }

func (w *diffWorkload) run(ops int) {
	for i := 0; i < ops; i++ {
		s := w.sess[w.rng.Intn(len(w.sess))]
		op := w.rng.Intn(10)
		if op == 7 && !w.temp { // no temp tables: redraw among the others
			op = w.rng.Intn(7)
		}
		switch op {
		case 0: // multi-row insert, AUTO_INCREMENT keys, non-deterministic values
			n := 1 + w.rng.Intn(4)
			rows := make([]string, n)
			for j := range rows {
				rows[j] = fmt.Sprintf("('o%d', RAND() * 100, NOW())", w.rng.Intn(50))
			}
			w.exec(s, "INSERT INTO acct (owner, bal, seen) VALUES "+strings.Join(rows, ", "))
			w.accts += n
		case 1: // multi-row update
			w.exec(s, fmt.Sprintf("UPDATE acct SET bal = bal + RAND(), seen = NOW() WHERE id %% 3 = %d", w.rng.Intn(3)))
		case 2: // ledger insert keyed by a sequence and by explicit ids
			w.exec(s, fmt.Sprintf("INSERT INTO ledger (id, acct, amt) VALUES (%d, %d, RAND()), (%d, NEXTVAL('refs'), 1)",
				w.next, w.acct(), w.next+1))
			w.next += 2
		case 3: // primary-key-changing updates, single- and multi-row; a
			// ledger id is only ever its fresh value or that negated
			if w.rng.Intn(2) == 0 {
				k := w.ledger()
				if w.rng.Intn(2) == 0 {
					k = -k
				}
				w.exec(s, fmt.Sprintf("UPDATE ledger SET id = -id WHERE id = %d", k))
			} else {
				w.exec(s, fmt.Sprintf("UPDATE ledger SET id = -id, amt = amt * 2 WHERE acct = %d", w.acct()))
			}
		case 4:
			w.exec(s, fmt.Sprintf("CALL credit(%d, %d)", w.acct(), 1+w.rng.Intn(9)))
		case 5: // rolled back: consumes AUTO_INCREMENT and sequence values only
			w.exec(s, "BEGIN")
			w.exec(s, "INSERT INTO acct (owner, bal) VALUES ('gone', RAND())")
			w.exec(s, fmt.Sprintf("INSERT INTO ledger (id, acct, amt) VALUES (%d, NEXTVAL('refs'), 0)", w.next))
			w.exec(s, fmt.Sprintf("DELETE FROM ledger WHERE id = %d", w.ledger()))
			w.exec(s, "ROLLBACK")
			w.accts++
		case 6: // committed transaction, including a row inserted and deleted again
			w.exec(s, "BEGIN")
			w.exec(s, fmt.Sprintf("INSERT INTO ledger (id, acct, amt) VALUES (%d, %d, RAND())", w.next, w.acct()))
			w.exec(s, fmt.Sprintf("DELETE FROM ledger WHERE id = %d", w.next))
			w.exec(s, fmt.Sprintf("UPDATE acct SET bal = bal - 1 WHERE id = %d", w.acct()))
			w.exec(s, "INSERT INTO notes (body, at) VALUES ('txn', NOW())")
			w.exec(s, "COMMIT")
			w.next++
		case 7: // temp table steering a write the slaves cannot re-derive
			w.exec(s, fmt.Sprintf("INSERT INTO pick (v) VALUES (%d), (%d)", w.acct(), w.acct()))
			w.exec(s, "UPDATE acct SET bal = bal * 2 WHERE id IN (SELECT v FROM pick)")
			w.exec(s, "DELETE FROM pick")
		case 8: // deletes, by key and without one
			if w.rng.Intn(2) == 0 {
				w.exec(s, fmt.Sprintf("DELETE FROM ledger WHERE id = %d", w.ledger()))
			} else {
				w.exec(s, "DELETE FROM notes WHERE body = 'credit' AND at < NOW()")
			}
		case 9: // an insert-then-delete transaction: an empty write set
			w.exec(s, "BEGIN")
			w.exec(s, fmt.Sprintf("INSERT INTO acct (owner) VALUES ('tmp%d')", i))
			w.exec(s, fmt.Sprintf("DELETE FROM acct WHERE owner = 'tmp%d'", i))
			w.exec(s, "COMMIT")
			w.accts++
		}
	}
}

// converged requires every replica in reps to match the first, table by
// table; the caller first waits for replication to drain.
func (w *diffWorkload) converged(reps []*Replica) {
	w.t.Helper()
	rep, err := CheckDivergence(reps, "bank")
	if err != nil {
		w.t.Fatal(err)
	}
	if !rep.OK() {
		w.t.Fatalf("replicas diverged from %s: %v", reps[0].Name(), rep)
	}
}

// binlogsAligned requires every slave's binlog to stay aligned with the
// master's (reps[0]).
func (w *diffWorkload) binlogsAligned(reps []*Replica) {
	w.t.Helper()
	head := reps[0].Engine().Binlog().Head()
	for _, r := range reps[1:] {
		if h := r.Engine().Binlog().Head(); h != head {
			w.t.Fatalf("%s logged through %d, master through %d", r.Name(), h, head)
		}
	}
}
