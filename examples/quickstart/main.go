// Command quickstart shows the intended way to use the replication stack
// from an application: through the standard database/sql interface. A
// master-slave cluster runs in-process behind a wire server; the app talks
// plain database/sql to a repl:// DSN and never learns the topology —
// swap the backend for a multi-master or partitioned cluster and this
// program does not change (that is the paper's "transparency" argument,
// reproduced; see replication/sqldriver's conformance suite, which runs
// one app against all three).
package main

import (
	"database/sql"
	"fmt"
	"log"

	"repro/internal/wire"
	"repro/replication"
	_ "repro/replication/sqldriver"
)

func main() {
	// --- server side: a replicated cluster behind the wire protocol ---
	master := replication.NewReplica(replication.ReplicaConfig{Name: "master"})
	slaveA := replication.NewReplica(replication.ReplicaConfig{Name: "slave-a"})
	slaveB := replication.NewReplica(replication.ReplicaConfig{Name: "slave-b"})
	qc := replication.NewQueryCache(replication.QueryCacheConfig{})
	cluster := replication.NewMasterSlave(master,
		[]*replication.Replica{slaveA, slaveB},
		replication.MasterSlaveConfig{
			Consistency: replication.SessionConsistent,
			QueryCache:  qc,
		})
	defer cluster.Close()

	// Provision the application database (DSNs name it, so every pooled
	// connection lands there).
	boot, err := cluster.NewConn("setup")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := boot.Exec("CREATE DATABASE shop"); err != nil {
		log.Fatal(err)
	}
	boot.Close()

	srv, err := wire.NewServer("127.0.0.1:0", &wire.ClusterBackend{Cluster: cluster})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// --- application side: pure database/sql ---
	dsn := fmt.Sprintf("repl://app@%s/shop?consistency=session", srv.Addr())
	db, err := sql.Open("repl", dsn)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec("CREATE TABLE items (id INTEGER PRIMARY KEY AUTO_INCREMENT, name TEXT, price FLOAT)"); err != nil {
		log.Fatal(err)
	}
	// Bind arguments route through the whole stack (driver, wire, router,
	// engine); slaves apply the rows the master wrote, not the statement.
	for _, item := range []struct {
		name  string
		price float64
	}{{"espresso", 2.2}, {"flat white", 3.8}} {
		if _, err := db.Exec("INSERT INTO items (name, price) VALUES (?, ?)", item.name, item.price); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := db.Exec("UPDATE items SET price = price * 1.1 WHERE name = ?", "espresso"); err != nil {
		log.Fatal(err)
	}

	// Session consistency guarantees this read sees our writes even when
	// routed to a slave.
	rows, err := db.Query("SELECT name, price FROM items ORDER BY price")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("menu:")
	for rows.Next() {
		var name string
		var price float64
		if err := rows.Scan(&name, &price); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %.2f\n", name, price)
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// A transaction through the standard interface.
	tx, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO items (name, price) VALUES (?, ?)", "cortado", 3.1); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// A prepared statement maps to a server-side handle: parsed once,
	// executed with fresh bindings — the engine's fast path over the wire.
	lookup, err := db.Prepare("SELECT price FROM items WHERE id = ?")
	if err != nil {
		log.Fatal(err)
	}
	defer lookup.Close()
	var price float64
	if err := lookup.QueryRow(3).Scan(&price); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("item 3 costs %.2f\n", price)

	// Topology-agnostic introspection through the unified Cluster API.
	fmt.Printf("cluster: %s\n", cluster.Health())
	st := qc.Stats()
	fmt.Printf("query cache: hits=%d misses=%d invalidation events=%d\n",
		st.Hits, st.Misses, st.InvalidationEvents)
}
