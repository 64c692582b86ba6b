package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// These tests pin the unified bind-argument (?) path on every topology's
// session type — the seed only supported args on engine sessions and the
// wire layer, so a parameterized statement silently lost its bindings at
// the router (MMSession/PSession/WSession had no args path at all) and a
// statement-shipped parameterized write stalled slave appliers with
// "parameter not bound".

func intv(i int64) sqltypes.Value     { return sqltypes.NewInt(i) }
func strv(s string) sqltypes.Value    { return sqltypes.NewString(s) }
func floatv(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// TestMSSessionBindArgs covers args through the master-slave router. The
// bound values must reach the master's write sets, since slaves apply the
// row images and nothing else, and the slave must log the events the master
// logged: same write sets, same database, and statement text for DDL only.
func TestMSSessionBindArgs(t *testing.T) {
	master := NewReplica(ReplicaConfig{Name: "m"})
	slave := NewReplica(ReplicaConfig{Name: "s"})
	ms := NewMasterSlave(master, []*Replica{slave}, MasterSlaveConfig{
		Consistency: SessionConsistent,
	})
	defer ms.Close()
	sess := ms.NewSession("app")
	defer sess.Close()
	mustExecC(t, sess.Exec, "CREATE DATABASE d")
	mustExecC(t, sess.Exec, "USE d")
	mustExecC(t, sess.Exec, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, price FLOAT)")
	if _, err := sess.Exec("INSERT INTO t (id, name, price) VALUES (?, ?, ?)",
		intv(1), strv("it's"), floatv(2.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("UPDATE t SET price = ? WHERE id = ?", floatv(9.75), intv(1)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT name, price FROM t WHERE id = ?", intv(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "it's" || res.Rows[0][1].Float() != 9.75 {
		t.Fatalf("rows = %v", res.Rows)
	}
	waitCaughtUp(t, ms)
	rep, err := CheckDivergence([]*Replica{master, slave}, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("replicas diverged after parameterized writes: %v", rep)
	}
	mevs, _ := master.Engine().Binlog().ReadFrom(0, 0)
	sevs, _ := slave.Engine().Binlog().ReadFrom(0, 0)
	if len(mevs) != len(sevs) {
		t.Fatalf("master logged %d events, slave %d", len(mevs), len(sevs))
	}
	for i, ev := range mevs {
		sev := sevs[i]
		if ev.DDL != sev.DDL || ev.Database != sev.Database ||
			fmt.Sprint(ev.Stmts) != fmt.Sprint(sev.Stmts) || !reflect.DeepEqual(ev.WriteSet, sev.WriteSet) {
			t.Errorf("event %d: slave logged %+v, master %+v", ev.Seq, sev, ev)
		}
	}
	// CREATE DATABASE, CREATE TABLE, then the INSERT and the UPDATE.
	if len(mevs) != 4 {
		t.Fatalf("master logged %d events, want 4", len(mevs))
	}
	ins, upd := mevs[2].WriteSet.Ops, mevs[3].WriteSet.Ops
	if len(ins) != 1 || ins[0].Kind != engine.WriteInsert || ins[0].PK.Int() != 1 ||
		ins[0].After[1].Str() != "it's" || ins[0].After[2].Float() != 2.5 {
		t.Errorf("INSERT write set = %+v, want the row (1, 'it''s', 2.5)", ins)
	}
	if len(upd) != 1 || upd[0].Kind != engine.WriteUpdate || upd[0].PK.Int() != 1 ||
		upd[0].After[2].Float() != 9.75 {
		t.Errorf("UPDATE write set = %+v, want row 1 at price 9.75", upd)
	}
	// Explicit transaction with args (exercises the txn replay log path).
	mustExecC(t, sess.Exec, "BEGIN")
	if _, err := sess.Exec("INSERT INTO t (id, name, price) VALUES (?, ?, ?)",
		intv(2), strv("two"), floatv(1)); err != nil {
		t.Fatal(err)
	}
	mustExecC(t, sess.Exec, "COMMIT")
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
}

// TestMMSessionBindArgs covers args through the multi-master router: they
// bind at the home replica's run and ship as row images.
func TestMMSessionBindArgs(t *testing.T) {
	// Certification is the one multi-master mode; the subtest keeps the
	// name it had when the mode was a choice.
	t.Run("certification", func(t *testing.T) {
		replicas := []*Replica{
			NewReplica(ReplicaConfig{Name: "a"}),
			NewReplica(ReplicaConfig{Name: "b"}),
		}
		mm, err := NewMultiMaster(replicas, []Orderer{NewLocalOrderer()},
			MultiMasterConfig{Consistency: SessionConsistent})
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		sess, err := mm.NewSession("app")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		mustExecC(t, sess.Exec, "CREATE DATABASE d")
		mustExecC(t, sess.Exec, "USE d")
		mustExecC(t, sess.Exec, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (?, ?)", intv(1), strv("x")); err != nil {
			t.Fatal(err)
		}
		// Transaction with args.
		mustExecC(t, sess.Exec, "BEGIN")
		if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (?, ?)", intv(2), strv("y")); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Exec("SELECT v FROM t WHERE id = ?", intv(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "y" {
			t.Fatalf("txn read-own-write: %v", res.Rows)
		}
		mustExecC(t, sess.Exec, "COMMIT")
		// Every replica applied the parameterized writes identically.
		deadline := time.Now().Add(5 * time.Second)
		for {
			rep, err := CheckDivergence(replicas, "d")
			if err == nil && rep.OK() {
				if n, _ := replicas[1].Engine().RowCount("d", "t"); n == 2 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("replicas never converged: %v", rep)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestPSessionBindArgs covers args through the partition router: the
// binding must happen BEFORE key extraction, or a parameterized statement
// could not be routed at all.
func TestPSessionBindArgs(t *testing.T) {
	_, sess := newPartitioned(t, 3)
	for i := int64(1); i <= 12; i++ {
		if _, err := sess.Exec("INSERT INTO items (id, name) VALUES (?, ?)",
			intv(i), strv(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Exec("SELECT name FROM items WHERE id = ?", intv(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "n5" {
		t.Fatalf("keyed select: %v", res.Rows)
	}
	if _, err := sess.Exec("UPDATE items SET name = ? WHERE id = ?", strv("renamed"), intv(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("DELETE FROM items WHERE id = ?", intv(12)); err != nil {
		t.Fatal(err)
	}
	res = mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 11 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
	// Args inside a single-partition transaction.
	mustExecC(t, sess.Exec, "BEGIN")
	if _, err := sess.Exec("UPDATE items SET name = ? WHERE id = ?", strv("txn"), intv(5)); err != nil {
		t.Fatal(err)
	}
	mustExecC(t, sess.Exec, "COMMIT")
	res = mustExecC(t, sess.Exec, "SELECT name FROM items WHERE id = 5")
	if res.Rows[0][0].Str() != "txn" {
		t.Fatalf("name = %q", res.Rows[0][0].Str())
	}
}

// TestWSessionBindArgs covers args through the WAN router: the geo key must
// be extractable from bound statements so remote-owner writes still forward
// to the owning site.
func TestWSessionBindArgs(t *testing.T) {
	mkSite := func(name string) *SiteConfig {
		r := NewReplica(ReplicaConfig{Name: name})
		return &SiteConfig{
			Name:    name,
			Cluster: NewMasterSlave(r, nil, MasterSlaveConfig{ReadFromMaster: true}),
		}
	}
	eu := mkSite("eu")
	us := mkSite("us")
	eu.OwnedKeys = []sqltypes.Value{strv("eu")}
	us.OwnedKeys = []sqltypes.Value{strv("us")}
	w, err := NewWAN([]*SiteConfig{eu, us}, WANConfig{Table: "bookings", Column: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer eu.Cluster.Close()
	defer us.Cluster.Close()

	boot, err := w.NewSession("eu", "setup")
	if err != nil {
		t.Fatal(err)
	}
	mustExecC(t, boot.Exec, "CREATE DATABASE travel")
	mustExecC(t, boot.Exec, "USE travel")
	mustExecC(t, boot.Exec, "CREATE TABLE bookings (id INTEGER PRIMARY KEY, region TEXT)")
	boot.Close()
	// Wait for the DDL to replicate to the US site.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := us.Cluster.Master().Engine().RowCount("travel", "bookings"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("schema never reached the US site")
		}
		time.Sleep(time.Millisecond)
	}

	sess, err := w.NewSession("eu", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mustExecC(t, sess.Exec, "USE travel")
	// A bound write whose key belongs to the remote site must forward
	// there synchronously: the owning master holds it immediately.
	if _, err := sess.Exec("INSERT INTO bookings (id, region) VALUES (?, ?)",
		intv(1), strv("us")); err != nil {
		t.Fatal(err)
	}
	if n, _ := us.Cluster.Master().Engine().RowCount("travel", "bookings"); n != 1 {
		t.Fatalf("remote-owner write not forwarded: us rows = %d", n)
	}
	// A local-key bound write stays local.
	if _, err := sess.Exec("INSERT INTO bookings (id, region) VALUES (?, ?)",
		intv(2), strv("eu")); err != nil {
		t.Fatal(err)
	}
	if n, _ := eu.Cluster.Master().Engine().RowCount("travel", "bookings"); n < 1 {
		t.Fatal("local write missing at local site")
	}
	res, err := sess.Exec("SELECT COUNT(*) FROM bookings WHERE region = ?", strv("eu"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("local read with args: %d", res.Rows[0][0].Int())
	}
}

// TestWSessionRejectsRemoteWriteInTxn pins the WAN transaction guard: a
// transaction is local to its site, and a keyed write owned by another site
// must be refused (forwarding it would autocommit at the owner, outside the
// transaction — a rollback could never undo it).
func TestWSessionRejectsRemoteWriteInTxn(t *testing.T) {
	mkSite := func(name string) *SiteConfig {
		r := NewReplica(ReplicaConfig{Name: name})
		return &SiteConfig{
			Name:    name,
			Cluster: NewMasterSlave(r, nil, MasterSlaveConfig{ReadFromMaster: true}),
		}
	}
	eu := mkSite("eu2")
	us := mkSite("us2")
	eu.OwnedKeys = []sqltypes.Value{strv("eu")}
	us.OwnedKeys = []sqltypes.Value{strv("us")}
	w, err := NewWAN([]*SiteConfig{eu, us}, WANConfig{Table: "bookings", Column: "region"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer eu.Cluster.Close()
	defer us.Cluster.Close()
	sess, err := w.NewSession("eu2", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mustExecC(t, sess.Exec, "CREATE DATABASE travel")
	mustExecC(t, sess.Exec, "USE travel")
	mustExecC(t, sess.Exec, "CREATE TABLE bookings (id INTEGER PRIMARY KEY, region TEXT)")
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO bookings (id, region) VALUES (1, 'us')"); err == nil {
		t.Fatal("remote-owner write inside a transaction was accepted")
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Nothing escaped to the owning site.
	if n, _ := us.Cluster.Master().Engine().RowCount("travel", "bookings"); n != 0 {
		t.Fatalf("remote site has %d rows from a rolled-back transaction", n)
	}
	// Local-key writes inside a transaction still work.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO bookings (id, region) VALUES (2, 'eu')"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMSSessionCommitConflictClearsTxnState pins the failed-COMMIT repair:
// a first-committer-wins abort ends the transaction at the engine, and the
// router session must agree — or later writes pile into a stale replay log
// and session consistency breaks.
func TestMSSessionCommitConflictClearsTxnState(t *testing.T) {
	master := NewReplica(ReplicaConfig{Name: "m"})
	ms := NewMasterSlave(master, nil, MasterSlaveConfig{
		ReadFromMaster: true, Consistency: SessionConsistent,
	})
	defer ms.Close()
	a := ms.NewSession("a")
	defer a.Close()
	b := ms.NewSession("b")
	defer b.Close()
	mustExecC(t, a.Exec, "CREATE DATABASE d")
	mustExecC(t, a.Exec, "USE d")
	mustExecC(t, a.Exec, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExecC(t, a.Exec, "INSERT INTO t (id, v) VALUES (1, 0)")
	mustExecC(t, b.Exec, "USE d")

	mustExecC(t, a.Exec, "BEGIN")
	mustExecC(t, a.Exec, "INSERT INTO t (id, v) VALUES (2, 10)")
	// b commits the same key first: a's COMMIT fails the deferred PK
	// uniqueness check (first committer wins).
	mustExecC(t, b.Exec, "INSERT INTO t (id, v) VALUES (2, 20)")
	if _, err := a.Exec("COMMIT"); err == nil {
		t.Fatal("conflicting COMMIT succeeded")
	}
	// The session is out of the transaction and fully usable: autocommit
	// writes run, update lastWriteSeq, and read-your-writes holds.
	mustExecC(t, a.Exec, "UPDATE t SET v = 30 WHERE id = 1")
	res := mustExecC(t, a.Exec, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("v = %d, want 30", res.Rows[0][0].Int())
	}
	if _, err := a.Exec("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK succeeded with no open transaction")
	}
}
