package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
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
			reps := make([]*Replica, 4)
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
			ms := NewMasterSlave(reps[0], reps[1:], MasterSlaveConfig{})
			t.Cleanup(ms.Close)
			w := newDiffWorkload(t, ms, seed)
			w.run(300)
			w.converged(reps)

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
			w.converged(append([]*Replica{promoted}, ms.Slaves()...))
		})
	}
}

// diffWorkload drives one seeded statement stream through three sessions
// of a master-slave cluster.
type diffWorkload struct {
	t     *testing.T
	ms    *MasterSlave
	rng   *rand.Rand
	sess  []*MSSession
	accts int // AUTO_INCREMENT ids handed out so far, an upper bound
	next  int // next fresh ledger id
}

func newDiffWorkload(t *testing.T, ms *MasterSlave, seed int64) *diffWorkload {
	w := &diffWorkload{t: t, ms: ms, rng: rand.New(rand.NewSource(seed)), next: 1}
	for i := 0; i < 3; i++ {
		s := ms.NewSession(fmt.Sprintf("u%d", i))
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
	w.tempTables()
	return w
}

// tempTables creates each session's temp table on the current master; a
// failover loses them with the old master's sessions (§4.1.4).
func (w *diffWorkload) tempTables() {
	for _, s := range w.sess {
		w.exec(s, "CREATE TEMP TABLE pick (v INTEGER)")
	}
}

func (w *diffWorkload) exec(s *MSSession, sql string) {
	w.t.Helper()
	if _, err := s.Exec(sql); err != nil {
		w.t.Fatalf("%s: %v", sql, err)
	}
}

func (w *diffWorkload) acct() int { return 1 + w.rng.Intn(w.accts+1) }

func (w *diffWorkload) ledger() int { return 1 + w.rng.Intn(w.next) }

func (w *diffWorkload) run(ops int) {
	for i := 0; i < ops; i++ {
		s := w.sess[w.rng.Intn(len(w.sess))]
		switch w.rng.Intn(10) {
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

// converged waits for the slaves to drain the master's binlog, then
// requires every replica in reps to match the first, table by table, and
// every slave's binlog to stay aligned with the master's.
func (w *diffWorkload) converged(reps []*Replica) {
	w.t.Helper()
	waitCaughtUp(w.t, w.ms)
	rep, err := CheckDivergence(reps, "bank")
	if err != nil {
		w.t.Fatal(err)
	}
	if !rep.OK() {
		w.t.Fatalf("slaves diverged from the master: %v", rep)
	}
	head := reps[0].Engine().Binlog().Head()
	for _, r := range reps[1:] {
		if h := r.Engine().Binlog().Head(); h != head {
			w.t.Fatalf("%s logged through %d, master through %d", r.Name(), h, head)
		}
	}
}
