package replication

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/recoverylog"
)

// Durable recovery types (PR 4): a disk-backed recovery log plus the
// provisioning machinery that makes a cluster survive restarts and heal
// itself after failures.
type (
	// RecoveryLog is the segmented, checkpointed recovery log (§4.4.2).
	RecoveryLog = recoverylog.Log
	// RecoveryLogOptions tunes a disk-backed recovery log.
	RecoveryLogOptions = recoverylog.Options
	// FollowOptions tunes the provisioner's binlog recorder.
	FollowOptions = core.FollowOptions
	// ResyncResult summarizes a replica resynchronization.
	ResyncResult = core.ResyncResult
)

// FaithfulBackupOptions captures users, code objects and sequences — what a
// recovery checkpoint must include so a restored replica is a true clone
// (§4.1.5).
var FaithfulBackupOptions = core.FaithfulBackup

// OpenRecoveryLog opens (or creates) a disk-backed recovery log.
func OpenRecoveryLog(dir string, opts RecoveryLogOptions) (*RecoveryLog, error) {
	return recoverylog.Open(dir, opts)
}

// NewProvisionerWithLog wraps an existing recovery log (disk-backed or not)
// for replica lifecycle management. NewProvisioner remains the in-memory
// shorthand.
func NewProvisionerWithLog(log *RecoveryLog) *Provisioner {
	return core.NewProvisioner(log)
}

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Dir is the recovery log directory. Empty means in-memory (the
	// cluster then behaves like the seed: nothing survives the process).
	Dir string
	// Log tunes the disk-backed recovery log (segment size, fsync batch).
	Log RecoveryLogOptions
	// Slaves is how many slave replicas to run.
	Slaves int
	// Replica is the template for every replica (Name is overridden).
	Replica ReplicaConfig
	// Cluster configures the master-slave controller.
	Cluster MasterSlaveConfig
	// CheckpointEvery takes an automatic checkpoint backup and compacts
	// the log at most every N committed events, and only once the log since
	// the last checkpoint outweighs it; zero means 256, negative disables.
	CheckpointEvery int
	// MonitorInterval is the health poll / failure detection bound; zero
	// means 10 ms.
	MonitorInterval time.Duration
	// ResyncTimeout bounds each replica's recovery replay; zero means 30 s.
	ResyncTimeout time.Duration
	// GroupCommitWindow, when > 0, makes every commit acknowledgement wait
	// until its position is fsynced into the recovery log — but batched:
	// commits arriving while a flush is in flight share the next binlog
	// copy and the next fsync (cross-connection group commit, PR 9). The
	// length is unused: the committer waits for the previous fsync, never
	// for a timer. Zero keeps the seed behaviour: acks do not wait for the
	// log flush (1-safe window = Log.FsyncEvery).
	GroupCommitWindow time.Duration
}

// DurableCluster is a master-slave cluster bootstrapped from (and
// continuously recorded into) a recovery log:
//
//   - on open, the master restores the newest checkpoint backup and
//     replays only the log tail (or starts empty on a fresh directory);
//     slaves clone the same way and attach at their synced positions;
//   - a recorder follows the master binlog into the log, checkpointing and
//     compacting as configured, so the footprint stays bounded;
//   - the monitor fails over automatically when the master dies, repairs
//     the log (truncating the lost suffix), and rejoins the recovered old
//     master as a slave by rolling back its diverged state via checkpoint
//     clone.
type DurableCluster struct {
	ms   *MasterSlave
	prov *Provisioner
	mon  *Monitor
	rlog *RecoveryLog
	gc   *core.GroupCommitter // nil when GroupCommitWindow is zero
}

// OpenDurable boots a cluster from cfg.Dir, recovering all previously
// committed state when the directory holds an earlier run's log.
func OpenDurable(cfg DurableConfig) (*DurableCluster, error) {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.ResyncTimeout <= 0 {
		cfg.ResyncTimeout = 30 * time.Second
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 10 * time.Millisecond
	}

	var rlog *RecoveryLog
	var err error
	if cfg.Dir == "" {
		rlog = recoverylog.New()
	} else if rlog, err = recoverylog.Open(cfg.Dir, cfg.Log); err != nil {
		return nil, err
	}
	prov := core.NewProvisioner(rlog)

	mk := func(name string) *Replica {
		tpl := cfg.Replica
		tpl.Name = name
		return NewReplica(tpl)
	}
	master := mk("master")
	_, _, haveCkpt := rlog.LatestCheckpoint()
	if rlog.Head() > 0 || haveCkpt {
		// Recover committed state: newest checkpoint backup + tail replay.
		// The resync resets the master's binlog to the checkpoint position,
		// so the replication position space continues across the restart.
		if _, err := prov.ResyncAuto(master, core.ResyncOptions{BatchWait: 5 * time.Millisecond}, cfg.ResyncTimeout); err != nil {
			rlog.Close()
			return nil, fmt.Errorf("replication: recover master: %w", err)
		}
	}

	ms := NewMasterSlave(master, nil, cfg.Cluster)
	for i := 0; i < cfg.Slaves; i++ {
		sl := mk(fmt.Sprintf("slave-%d", i+1))
		res, err := prov.ResyncAuto(sl, core.ResyncOptions{BatchWait: 5 * time.Millisecond}, cfg.ResyncTimeout)
		if err != nil {
			ms.Close()
			rlog.Close()
			return nil, fmt.Errorf("replication: seed %s: %w", sl.Name(), err)
		}
		if err := ms.Failback(sl, res.To); err != nil {
			ms.Close()
			rlog.Close()
			return nil, fmt.Errorf("replication: attach %s: %w", sl.Name(), err)
		}
	}

	fopts := core.FollowOptions{Backup: core.FaithfulBackup}
	if cfg.CheckpointEvery > 0 {
		fopts.CheckpointEvery = uint64(cfg.CheckpointEvery)
	}
	prov.Follow(master, fopts)

	var gc *core.GroupCommitter
	if cfg.GroupCommitWindow > 0 {
		gc = core.NewGroupCommitter(prov, ms.Master)
		ms.SetDurability(gc)
	}

	mon := NewMonitor(ms, cfg.MonitorInterval)
	mon.EnableAutoRejoin(prov, core.ResyncOptions{})
	mon.Start()

	return &DurableCluster{ms: ms, prov: prov, mon: mon, rlog: rlog, gc: gc}, nil
}

// Cluster returns the underlying master-slave controller.
func (d *DurableCluster) Cluster() *MasterSlave { return d.ms }

// Provisioner returns the recovery provisioner (checkpointing, resync).
func (d *DurableCluster) Provisioner() *Provisioner { return d.prov }

// Monitor returns the health monitor driving failover and rejoin.
func (d *DurableCluster) Monitor() *Monitor { return d.mon }

// RecoveryLog returns the backing log.
func (d *DurableCluster) RecoveryLog() *RecoveryLog { return d.rlog }

// GroupCommitter returns the commit-durability batcher, or nil when
// GroupCommitWindow was zero.
func (d *DurableCluster) GroupCommitter() *core.GroupCommitter { return d.gc }

// NewSession opens a client session on the cluster.
func (d *DurableCluster) NewSession(user string) *MSSession { return d.ms.NewSession(user) }

// Close shuts the cluster down, draining the recorder and syncing the log
// so everything acknowledged is on disk for the next open.
func (d *DurableCluster) Close() error {
	d.mon.Stop()
	d.prov.Unfollow()
	d.ms.Close()
	if d.gc != nil {
		d.gc.Close()
	}
	err := d.rlog.Sync()
	if cerr := d.rlog.Close(); err == nil {
		err = cerr
	}
	return err
}
