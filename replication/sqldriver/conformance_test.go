package sqldriver_test

import (
	"database/sql"
	"fmt"
	"testing"

	"repro/internal/testutil"
	"repro/replication"
	_ "repro/replication/sqldriver"
)

// This file is the driver conformance suite: ONE application, written
// purely against database/sql, runs unmodified against master-slave,
// multi-master and partitioned clusters — only the DSN's target changes.
// It exercises CRUD with bind arguments, explicit transactions (commit and
// rollback), prepared point lookups over server-side statement handles, and
// a mid-run failover that the application never observes (§4.3.3: the
// driver+pool absorb it). Cluster bootstrap/teardown (wire front-end,
// database provisioning, catchup waits) lives in internal/testutil.

// topology builds one cluster kind and returns its DSN target plus a chaos
// action that kills a replica mid-run (with the failover the operator or
// monitor would drive).
type topology struct {
	name  string
	setup func(t *testing.T) (addr string, chaos func())
}

func topologies() []topology {
	return []topology{
		{name: "master-slave", setup: func(t *testing.T) (string, func()) {
			ms := testutil.BuildMasterSlave(t, 2, replication.MasterSlaveConfig{
				Consistency:         replication.SessionConsistent,
				TransparentFailover: true,
			})
			testutil.CreateDB(t, ms, "app")
			chaos := func() {
				testutil.WaitForLag(t, ms)
				ms.Master().Fail()
				if _, err := ms.Failover(); err != nil {
					t.Fatalf("failover: %v", err)
				}
			}
			return testutil.Serve(t, ms), chaos
		}},
		{name: "multi-master", setup: func(t *testing.T) (string, func()) {
			mm := testutil.BuildMultiMaster(t, 3, replication.MultiMasterConfig{
				Consistency: replication.SessionConsistent,
			})
			testutil.CreateDB(t, mm, "app")
			reps := mm.Replicas()
			chaos := func() {
				// Kill two of three replicas. Any pooled connection homed
				// on a dead one becomes useless for writes; the pool must
				// absorb that via ErrBadConn + reconnect, invisibly to
				// the app.
				reps[0].Fail()
				reps[1].Fail()
			}
			return testutil.Serve(t, mm), chaos
		}},
		{name: "partitioned", setup: func(t *testing.T) (string, func()) {
			pc, parts := testutil.BuildPartitioned(t, 2, 1, []*replication.PartitionRule{{
				Table: "kv", Column: "id", Strategy: replication.HashPartition,
			}}, replication.MasterSlaveConfig{
				Consistency:         replication.SessionConsistent,
				TransparentFailover: true,
			})
			testutil.CreateDB(t, pc, "app")
			chaos := func() {
				testutil.WaitForLag(t, parts[0])
				parts[0].Master().Fail()
				if _, err := parts[0].Failover(); err != nil {
					t.Fatalf("partition failover: %v", err)
				}
			}
			return testutil.Serve(t, pc), chaos
		}},
	}
}

// TestDriverConformance runs the identical database/sql application against
// every topology; only the DSN changes.
func TestDriverConformance(t *testing.T) {
	for _, topo := range topologies() {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			addr, chaos := topo.setup(t)
			dsn := fmt.Sprintf("repl://app@%s/app?consistency=session&heartbeat=100ms", addr)
			db, err := sql.Open("repl", dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			runApplication(t, db, chaos)
		})
	}
}

// runApplication is the application under test: pure database/sql, zero
// topology awareness.
func runApplication(t *testing.T, db *sql.DB, chaos func()) {
	t.Helper()
	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	mustExec(t, db, "CREATE TABLE kv (id INTEGER PRIMARY KEY, name TEXT, qty INTEGER)")

	// CRUD with bind arguments through the pool.
	for i := 1; i <= 20; i++ {
		res, err := db.Exec("INSERT INTO kv (id, name, qty) VALUES (?, ?, ?)",
			i, fmt.Sprintf("item-%d", i), i*10)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if n, _ := res.RowsAffected(); n != 1 {
			t.Fatalf("insert %d: rows affected = %d", i, n)
		}
	}
	var name string
	if err := db.QueryRow("SELECT name FROM kv WHERE id = ?", 7).Scan(&name); err != nil {
		t.Fatalf("point read: %v", err)
	}
	if name != "item-7" {
		t.Fatalf("point read: name = %q", name)
	}
	mustExec(t, db, "UPDATE kv SET qty = ? WHERE id = ?", 777, 7)
	var qty int
	if err := db.QueryRow("SELECT qty FROM kv WHERE id = ?", 7).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 777 {
		t.Fatalf("read-your-writes: qty = %d", qty)
	}
	mustExec(t, db, "DELETE FROM kv WHERE id = ?", 20)
	assertCount(t, db, 19)

	// Explicit transaction: commit.
	tx, err := db.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Exec("UPDATE kv SET qty = ? WHERE id = ?", 1111, 11); err != nil {
		t.Fatalf("txn update: %v", err)
	}
	// The transaction sees its own write.
	if err := tx.QueryRow("SELECT qty FROM kv WHERE id = ?", 11).Scan(&qty); err != nil {
		t.Fatalf("txn read: %v", err)
	}
	if qty != 1111 {
		t.Fatalf("txn read-own-write: qty = %d", qty)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := db.QueryRow("SELECT qty FROM kv WHERE id = ?", 11).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 1111 {
		t.Fatalf("committed qty = %d", qty)
	}

	// Explicit transaction: rollback leaves no trace.
	tx, err = db.Begin()
	if err != nil {
		t.Fatalf("begin 2: %v", err)
	}
	if _, err := tx.Exec("UPDATE kv SET qty = ? WHERE id = ?", -1, 11); err != nil {
		t.Fatalf("txn update 2: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := db.QueryRow("SELECT qty FROM kv WHERE id = ?", 11).Scan(&qty); err != nil {
		t.Fatal(err)
	}
	if qty != 1111 {
		t.Fatalf("rollback leaked: qty = %d", qty)
	}

	// Prepared point lookups over server-side statement handles.
	stmt, err := db.Prepare("SELECT qty FROM kv WHERE id = ?")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer stmt.Close()
	for i := 1; i <= 19; i++ {
		want := i * 10
		switch i {
		case 7:
			want = 777
		case 11:
			want = 1111
		}
		if err := stmt.QueryRow(i).Scan(&qty); err != nil {
			t.Fatalf("prepared lookup %d: %v", i, err)
		}
		if qty != want {
			t.Fatalf("prepared lookup %d: qty = %d, want %d", i, qty, want)
		}
	}

	// Mid-run failover: a replica dies (and, where the topology needs it,
	// a promotion runs). The application keeps going with the same *sql.DB.
	chaos()

	for i := 21; i <= 30; i++ {
		if _, err := db.Exec("INSERT INTO kv (id, name, qty) VALUES (?, ?, ?)",
			i, fmt.Sprintf("item-%d", i), i*10); err != nil {
			t.Fatalf("post-failover insert %d: %v", i, err)
		}
	}
	if err := db.QueryRow("SELECT name FROM kv WHERE id = ?", 25).Scan(&name); err != nil {
		t.Fatalf("post-failover read: %v", err)
	}
	if name != "item-25" {
		t.Fatalf("post-failover read: name = %q", name)
	}
	// Data from before the failover survived.
	if err := stmt.QueryRow(11).Scan(&qty); err != nil {
		t.Fatalf("post-failover prepared lookup: %v", err)
	}
	if qty != 1111 {
		t.Fatalf("post-failover prepared lookup: qty = %d", qty)
	}
	assertCount(t, db, 29)
}

func mustExec(t *testing.T, db *sql.DB, query string, args ...any) {
	t.Helper()
	if _, err := db.Exec(query, args...); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
}

func assertCount(t *testing.T, db *sql.DB, want int) {
	t.Helper()
	var n int
	if err := db.QueryRow("SELECT COUNT(*) FROM kv").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("COUNT(*) = %d, want %d", n, want)
	}
}
