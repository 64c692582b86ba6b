package main

import (
	"context"
	"database/sql"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/wire"
	"repro/replication"
	_ "repro/replication/sqldriver"
)

// The system under test is the cluster cmd/repld builds for
// `-topology ms -data-dir DIR -admission-slots 64` with every other flag at
// its default; the constants below are those defaults, copied here because
// repld keeps them in its flag declarations.
//
// -checkpoint-every stays at its default of 256 although the recovery log
// keeps every checkpoint it has taken and rewrites all of them whenever it
// adds one, so that a sustained write load re-serialises the 100 000-row
// database several times a second into a file that grows by 3.6 MB each time.
// That is what a user of repld's defaults gets, it is the largest cost of
// the write workloads, and a change that fixes it must have a number to move.
const (
	sutSlaves          = 2
	sutQueryCache      = 4096
	sutCheckpointEvery = 256
	sutSegmentEntries  = 1024
	sutFsyncEvery      = 64
	sutMonitor         = 10 * time.Millisecond
	sutAdmissionSlots  = 64
	sutSlowQuery       = 100 * time.Millisecond
	sutDatabase        = "bench"
	sutUser            = "bench"
)

// sut is one assembled system under test: a durable master-slave cluster
// behind a wire server on loopback TCP, and the database/sql pool the load
// generator drives it through.
type sut struct {
	dir     string
	durable *replication.DurableCluster
	ms      *replication.MasterSlave
	qc      *replication.QueryCache
	adm     *replication.AdmissionController
	srv     *wire.Server
	db      *sql.DB
}

// openCluster opens (or, on a used directory, recovers) the durable cluster.
// groupCommit > 0 makes commit acks wait for the recovery-log fsync.
func openCluster(dir string, groupCommit time.Duration) (*replication.DurableCluster, *replication.QueryCache, *replication.AdmissionController, error) {
	qc := replication.NewQueryCache(replication.QueryCacheConfig{MaxEntries: sutQueryCache})
	adm := replication.NewAdmissionController(replication.AdmissionConfig{
		Slots: sutAdmissionSlots, SlowThreshold: sutSlowQuery,
	})
	d, err := replication.OpenDurable(replication.DurableConfig{
		Dir:               dir,
		Log:               replication.RecoveryLogOptions{SegmentEntries: sutSegmentEntries, FsyncEvery: sutFsyncEvery},
		Slaves:            sutSlaves,
		Cluster:           replication.MasterSlaveConfig{Consistency: replication.SessionConsistent, TransparentFailover: true, QueryCache: qc, Admission: adm},
		CheckpointEvery:   sutCheckpointEvery,
		MonitorInterval:   sutMonitor,
		GroupCommitWindow: groupCommit,
	})
	return d, qc, adm, err
}

// openSUT assembles the system on a fresh data directory and connects a
// pool of `clients` connections to it.
func openSUT(dir string, groupCommit time.Duration, clients int) (*sut, error) {
	d, qc, adm, err := openCluster(dir, groupCommit)
	if err != nil {
		return nil, fmt.Errorf("open cluster: %w", err)
	}
	s := &sut{dir: dir, durable: d, ms: d.Cluster(), qc: qc, adm: adm}
	s.srv, err = wire.NewServer("127.0.0.1:0", &wire.ClusterBackend{Cluster: s.ms})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("wire server: %w", err)
	}
	// The database must exist on every replica before a connection can
	// name it in its DSN (the server issues USE on open).
	boot, err := wire.Dial(s.srv.Addr(), wire.DriverConfig{User: sutUser, Protocol: wire.ProtocolBinary})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("bootstrap dial: %w", err)
	}
	_, err = boot.Exec("CREATE DATABASE " + sutDatabase)
	boot.Close()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("create database: %w", err)
	}
	if err := s.quiesce(); err != nil {
		s.close()
		return nil, err
	}
	s.db, err = sql.Open("repl", fmt.Sprintf("repl://%s@%s/%s?protocol=binary", sutUser, s.srv.Addr(), sutDatabase))
	if err != nil {
		s.close()
		return nil, err
	}
	s.db.SetMaxOpenConns(clients)
	s.db.SetMaxIdleConns(clients)
	return s, nil
}

// quiesce waits until every slave has applied the master's head and the
// recovery log has recorded it, so no replication work from an earlier
// phase runs inside a later one.
func (s *sut) quiesce() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		head := s.ms.MasterSeq()
		behind := s.durable.RecoveryLog().Head() < head
		for _, lag := range s.ms.SlaveLag() {
			if lag > 0 {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: replication still behind head %d after 60s (lag %v, log head %d)",
				head, s.ms.SlaveLag(), s.durable.RecoveryLog().Head())
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the pool, the server and the cluster down, in that order. It
// returns the cluster's close error: a recovery log that could not flush.
func (s *sut) close() error {
	if s.db != nil {
		s.db.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return s.durable.Close()
}

// loadDataset creates kv and scan_t and fills them through the driver with
// insertBatch-row INSERT statements, the way an application bulk-loads.
func (s *sut) loadDataset(ctx context.Context, ds dataset) error {
	conn, err := s.db.Conn(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, t := range ds.tables() {
		if _, err := conn.ExecContext(ctx, t.ddl()); err != nil {
			return fmt.Errorf("create %s: %w", t.name, err)
		}
		for lo := 0; lo < t.rows; lo += insertBatch {
			if _, err := conn.ExecContext(ctx, t.insertSQL(lo, min(lo+insertBatch, t.rows))); err != nil {
				return fmt.Errorf("load %s: %w", t.name, err)
			}
		}
	}
	return nil
}

// dataDirBytes is the size of the recovery log's directory.
func (s *sut) dataDirBytes() (int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		// Temporary files of an atomic rewrite may vanish between ReadDir
		// and Info; they are not part of the durable footprint.
		if fi, err := e.Info(); err == nil && !strings.HasSuffix(e.Name(), ".tmp") {
			n += fi.Size()
		}
	}
	return n, nil
}
