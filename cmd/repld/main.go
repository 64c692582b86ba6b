// Command repld is the replication middleware daemon: it builds a cluster
// of embedded replicas — master-slave, multi-master or partitioned — and
// serves it over the wire protocol, so any wire client (cmd/replctl,
// application drivers, database/sql via replication/sqldriver) can use the
// replicated database as a single logical endpoint (Figure 7's deployment).
// The served surface is identical across topologies: the daemon talks to
// the cluster only through the unified Cluster/Conn API.
//
// With -topology ms and -data-dir the cluster is durable: every committed
// transaction is recorded into a segmented recovery log with periodic
// checkpoint backups, and a restarted daemon recovers all previously
// committed state from disk (newest checkpoint + log tail). The monitor
// fails over automatically and rejoins a recovered master as a slave.
//
// With -auth user:password the engines require authentication and the wire
// server rejects bad credentials (the credential check is delegated to the
// cluster, not short-circuited at the daemon).
//
// Usage:
//
//	repld -listen 127.0.0.1:5455 -slaves 2 -consistency session \
//	      -data-dir /var/lib/repld
//	repld -topology mm -replicas 3
//	repld -topology partitioned -partitions 4 -partition-rules orders:id
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/ops"
	"repro/internal/wire"
	"repro/replication"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5455", "wire protocol listen address")
	topology := flag.String("topology", "ms", "cluster topology: ms | mm | partitioned")
	slaves := flag.Int("slaves", 2, "slave replicas (per partition for -topology partitioned)")
	replicas := flag.Int("replicas", 3, "replicas for -topology mm")
	partitions := flag.Int("partitions", 2, "partition count for -topology partitioned")
	partitionRules := flag.String("partition-rules", "", "comma list of table:column hash-partitioned tables (-topology partitioned)")
	consistency := flag.String("consistency", "session", "read consistency: any | session | strong")
	twoSafe := flag.Bool("two-safe", false, "wait for slave receipt before acking commits (ms)")
	monitorEvery := flag.Duration("monitor", 10*time.Millisecond, "health monitor poll interval (durable master-slave only)")
	queryCache := flag.Int("query-cache", 4096, "query result cache entries (0 disables)")
	maxConns := flag.Int("max-conns", 0, "max concurrent client connections (0 = unbounded); over-limit connects are refused before handshake with a retryable error")
	httpAddr := flag.String("http", "", "ops HTTP listen address serving /healthz and /metrics (empty disables)")
	admSlots := flag.Int("admission-slots", 0, "admission control concurrency slots (0 disables admission control)")
	admQueue := flag.Int("admission-queue", 0, "admission wait-queue capacity (0 = 4x slots)")
	admPerUser := flag.Int("admission-per-user", 0, "per-user concurrent statement limit (0 = unlimited)")
	stmtTimeout := flag.Duration("statement-timeout", 0, "default per-statement deadline, covering queueing and execution (0 = none; clients override with SET DEADLINE)")
	slowQuery := flag.Duration("slow-query", 100*time.Millisecond, "slow-statement threshold for admission metrics")
	auth := flag.String("auth", "", "user:password required on connect (enables engine RequireAuth)")
	dataDir := flag.String("data-dir", "", "recovery log directory (ms only); empty runs in-memory")
	checkpointEvery := flag.Int("checkpoint-every", 256, "take an automatic checkpoint backup at most every N committed events, and only once the log since the last checkpoint outweighs it (<0 disables)")
	segmentEntries := flag.Int("segment-entries", 1024, "recovery log entries per segment file")
	fsyncEvery := flag.Int("fsync-every", 64, "batch size between recovery log fsyncs (1 = every commit)")
	groupCommit := flag.Duration("group-commit-window", 0, "commit acks wait for a recovery-log fsync, batched over this coalescing window (ms with -data-dir only; 0 keeps async fsync batching)")
	elastic := flag.Bool("elastic", false, "enable online elasticity (-topology partitioned): virtual-bucket routing plus live split/merge/migration")
	buckets := flag.Int("buckets", 0, "virtual routing buckets for -elastic (0 = 16x partitions)")
	autoscale := flag.Bool("autoscale", false, "enable load-driven replica autoscaling (-topology ms; requires -admission-slots)")
	autoscaleMax := flag.Int("autoscale-max", 8, "replica ceiling for -autoscale")
	flag.Parse()

	if (*elastic || *buckets > 0) && *topology != "partitioned" {
		log.Fatalf("repld: -elastic/-buckets need -topology partitioned")
	}
	if *autoscale && *topology != "ms" {
		log.Fatalf("repld: -autoscale is master-slave only (use -topology ms)")
	}

	cons, err := replication.ParseConsistency(*consistency)
	if err != nil {
		log.Fatalf("repld: %v", err)
	}
	authUser, authPass := "", ""
	if *auth != "" {
		var ok bool
		authUser, authPass, ok = strings.Cut(*auth, ":")
		if !ok || authUser == "" {
			log.Fatalf("repld: -auth wants user:password, got %q", *auth)
		}
	}
	var replicaTpl replication.ReplicaConfig
	replicaTpl.Engine.RequireAuth = authUser != ""

	var qc *replication.QueryCache
	if *queryCache > 0 {
		qc = replication.NewQueryCache(replication.QueryCacheConfig{MaxEntries: *queryCache})
	}

	var adm *replication.AdmissionController
	if *admSlots > 0 {
		adm = replication.NewAdmissionController(replication.AdmissionConfig{
			Slots:         *admSlots,
			Queue:         *admQueue,
			PerUser:       *admPerUser,
			SlowThreshold: *slowQuery,
		})
	}

	// createAuthUser registers the -auth principal (with a grant on every
	// database) on one replica's engine. Access control is deliberately
	// not replicated (§4.1.5), so it runs per engine. A durable restart
	// restores users from the checkpoint backup (FaithfulBackup includes
	// them), so an already-existing principal is expected — it just gets
	// its password refreshed to match the current flag.
	createAuthUser := func(r *replication.Replica) {
		if authUser == "" {
			return
		}
		if err := r.Engine().CreateUser(authUser, authPass); err != nil {
			if err := r.Engine().SetPassword(authUser, authPass); err != nil {
				log.Fatalf("repld: create auth user on %s: %v", r.Name(), err)
			}
		}
		if err := r.Engine().Grant("*", authUser); err != nil {
			log.Fatalf("repld: grant auth user on %s: %v", r.Name(), err)
		}
	}

	var cluster replication.Cluster
	var durable *replication.DurableCluster
	var msCluster *replication.MasterSlave
	var lagTracker *replication.LagTracker
	var rebalancer *replication.Rebalancer
	var autoscaler *replication.Autoscaler
	switch *topology {
	case "ms":
		msCfg := replication.MasterSlaveConfig{
			Consistency: cons, TransparentFailover: true, QueryCache: qc,
			Admission: adm, StatementTimeout: *stmtTimeout,
		}
		if *twoSafe {
			msCfg.Safety = replication.TwoSafe
		}
		durable, err = replication.OpenDurable(replication.DurableConfig{
			Dir:               *dataDir,
			Log:               replication.RecoveryLogOptions{SegmentEntries: *segmentEntries, FsyncEvery: *fsyncEvery},
			Slaves:            *slaves,
			Replica:           replicaTpl,
			Cluster:           msCfg,
			CheckpointEvery:   *checkpointEvery,
			MonitorInterval:   *monitorEvery,
			GroupCommitWindow: *groupCommit,
		})
		if err != nil {
			log.Fatalf("repld: %v", err)
		}
		ms := durable.Cluster()
		createAuthUser(ms.Master())
		for _, sl := range ms.Slaves() {
			createAuthUser(sl)
		}
		msCluster = ms
		if *autoscale || *httpAddr != "" {
			lagTracker = replication.NewLagTracker(ms, *monitorEvery, 0)
			defer lagTracker.Close()
		}
		if *autoscale {
			if adm == nil {
				log.Fatalf("repld: -autoscale needs -admission-slots for its load signals")
			}
			spareSeq := 0
			autoscaler, err = replication.NewAutoscaler(ms, adm, lagTracker, replication.AutoscalerConfig{
				MinReplicas: *slaves,
				MaxReplicas: *autoscaleMax,
				Spare: func() *replication.Replica {
					spareSeq++
					tpl := replicaTpl
					tpl.Name = fmt.Sprintf("auto-%d", spareSeq)
					r := replication.NewReplica(tpl)
					createAuthUser(r)
					return r
				},
			})
			if err != nil {
				log.Fatalf("repld: %v", err)
			}
			defer autoscaler.Close()
		}
		cluster = ms
	case "mm":
		if *dataDir != "" {
			log.Fatalf("repld: -data-dir durability is master-slave only (use -topology ms)")
		}
		if *groupCommit > 0 {
			log.Fatalf("repld: -group-commit-window is master-slave only (use -topology ms)")
		}
		reps := make([]*replication.Replica, *replicas)
		for i := range reps {
			tpl := replicaTpl
			tpl.Name = fmt.Sprintf("node-%d", i+1)
			reps[i] = replication.NewReplica(tpl)
			createAuthUser(reps[i])
		}
		mm, err := replication.NewMultiMaster(reps,
			[]replication.Orderer{replication.NewLocalOrderer()}, replication.MultiMasterConfig{
				Consistency: cons, QueryCache: qc,
				Admission: adm, StatementTimeout: *stmtTimeout,
			})
		if err != nil {
			log.Fatalf("repld: %v", err)
		}
		cluster = mm
	case "partitioned":
		if *dataDir != "" {
			log.Fatalf("repld: -data-dir durability is master-slave only (use -topology ms)")
		}
		if *groupCommit > 0 {
			log.Fatalf("repld: -group-commit-window is master-slave only (use -topology ms)")
		}
		parts := make([]*replication.MasterSlave, *partitions)
		for i := range parts {
			tpl := replicaTpl
			tpl.Name = fmt.Sprintf("p%d-master", i)
			master := replication.NewReplica(tpl)
			createAuthUser(master)
			sls := make([]*replication.Replica, *slaves)
			for j := range sls {
				stpl := replicaTpl
				stpl.Name = fmt.Sprintf("p%d-slave-%d", i, j+1)
				sls[j] = replication.NewReplica(stpl)
				createAuthUser(sls[j])
			}
			// Sub-clusters get the statement deadline (it is enforced at
			// the executing layer) but NOT the admission controller: in a
			// layered deployment exactly one controller — the top-level
			// one, attached below — gates each statement.
			parts[i] = replication.NewMasterSlave(master, sls, replication.MasterSlaveConfig{
				Consistency: cons, TransparentFailover: true, QueryCache: qc,
				StatementTimeout: *stmtTimeout,
			})
		}
		var rules []*replication.PartitionRule
		if *partitionRules != "" {
			for _, spec := range strings.Split(*partitionRules, ",") {
				table, column, ok := strings.Cut(strings.TrimSpace(spec), ":")
				if !ok || table == "" || column == "" {
					log.Fatalf("repld: -partition-rules wants table:column, got %q", spec)
				}
				rules = append(rules, &replication.PartitionRule{
					Table: table, Column: column, Strategy: replication.HashPartition,
				})
			}
		}
		var pc *replication.Partitioned
		if *elastic || *buckets > 0 {
			nb := *buckets
			if nb <= 0 {
				nb = 16 * *partitions
			}
			pc, err = replication.NewElasticPartitioned(parts, rules, nb)
		} else {
			pc, err = replication.NewPartitioned(parts, rules)
		}
		if err != nil {
			log.Fatalf("repld: %v", err)
		}
		pc.SetAdmission(adm)
		if *elastic {
			rebalancer = replication.NewRebalancer(pc, replication.RebalancerConfig{})
		}
		cluster = pc
	default:
		log.Fatalf("repld: unknown -topology %q (want ms, mm or partitioned)", *topology)
	}

	var wireOpts []wire.ServerOption
	if *maxConns > 0 {
		wireOpts = append(wireOpts, wire.WithMaxConns(*maxConns))
	}
	srv, err := wire.NewServer(*listen, &wire.ClusterBackend{Cluster: cluster}, wireOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if *httpAddr != "" {
		opsOpts := ops.Options{
			Cluster:      cluster,
			Admission:    adm,
			QueryCache:   qc,
			WireRejected: srv.RejectedConns,
			Extra: func(w io.Writer) {
				if durable != nil {
					mon := durable.Monitor()
					fmt.Fprintf(w, "repl_monitor_failovers_total %d\n", mon.Failovers())
					fmt.Fprintf(w, "repl_rejoins_total %d\n", mon.Rejoins())
				}
			},
		}
		if msCluster != nil {
			opsOpts.FailoverHistory = msCluster.FailoverHistory
		}
		if lagTracker != nil {
			opsOpts.LagSeries = lagTracker.Series
		}
		if rebalancer != nil || autoscaler != nil {
			opsOpts.Elastic = func(w io.Writer) {
				if rebalancer != nil {
					rebalancer.WriteMetrics(w)
				}
				if autoscaler != nil {
					autoscaler.WriteMetrics(w)
				}
			}
		}
		opsSrv, err := ops.NewServer(*httpAddr, opsOpts)
		if err != nil {
			log.Fatalf("repld: ops endpoint: %v", err)
		}
		defer opsSrv.Close()
		log.Printf("repld: ops endpoint on http://%s (/healthz /metrics)", opsSrv.Addr())
	}

	h := cluster.Health()
	extra := ""
	if durable != nil {
		durability := "ephemeral"
		if *dataDir != "" {
			durability = *dataDir
		}
		extra = fmt.Sprintf(" data-dir=%s recovered-through=%d", durability, durable.RecoveryLog().Head())
	}
	log.Printf("repld: serving %s cluster on %s (%s consistency=%s auth=%v query-cache=%d%s)",
		*topology, srv.Addr(), h, *consistency, authUser != "", *queryCache, extra)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if durable != nil {
		mon := durable.Monitor()
		log.Printf("repld: shutting down; availability: %s failovers=%d rejoins=%d log-head=%d",
			mon.Availability(), mon.Failovers(), mon.Rejoins(), durable.RecoveryLog().Head())
	} else {
		log.Printf("repld: shutting down; health: %s", cluster.Health())
	}
	if qc != nil {
		st := qc.Stats()
		log.Printf("repld: query cache: hits=%d misses=%d puts=%d invalidations=%d evictions=%d",
			st.Hits, st.Misses, st.Puts, st.InvalidationEvents, st.Evictions)
	}
	if adm != nil {
		st := adm.Stats()
		log.Printf("repld: admission: admitted=%d queued=%d shed=%d expired=%d slow=%d rejected-conns=%d",
			st.Admitted, st.Queued, st.ShedTotal(), st.Expired, st.SlowTotal(), srv.RejectedConns())
	}
	if durable != nil {
		if err := durable.Close(); err != nil {
			log.Printf("repld: close: %v", err)
		}
	} else {
		cluster.Close()
	}
}
