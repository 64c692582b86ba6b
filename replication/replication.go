// Package replication is the public API of the middleware-based database
// replication library: a Go reproduction of the system design space in
// Cecchet, Candea & Ailamaki, "Middleware-based Database Replication: The
// Gaps Between Theory and Practice" (SIGMOD 2008).
//
// The library provides, as one coherent stack:
//
//   - an embedded multi-database SQL engine with MVCC snapshot isolation,
//     read-committed and serializable modes, sequences, temporary tables,
//     triggers, stored procedures and per-vendor behaviour profiles;
//   - master-slave replication with 1-safe/2-safe commits, lag tracking,
//     automatic failover/failback and Sequoia-style transparent failover;
//   - multi-master replication over totally-ordered broadcast, in both
//     statement-based and certification (write-set) modes;
//   - partitioned (hash/range/list) and WAN multi-site deployments;
//   - connection/transaction/query-level load balancing (round robin,
//     LPRF, weighted);
//   - a recovery log with checkpoints and online replica provisioning;
//   - cluster-consistent backups and a replica divergence detector;
//   - a wire protocol with TCP-keepalive and heartbeat failure detection.
//
// Quick start:
//
//	master := replication.NewReplica(replication.ReplicaConfig{Name: "m"})
//	slave := replication.NewReplica(replication.ReplicaConfig{Name: "s"})
//	cluster := replication.NewMasterSlave(master, []*replication.Replica{slave},
//		replication.MasterSlaveConfig{Consistency: replication.SessionConsistent})
//	sess := cluster.NewSession("app")
//	sess.Exec("CREATE DATABASE shop")
//	sess.Exec("USE shop")
//	...
//
// See examples/ for runnable scenarios and DESIGN.md for the experiment
// index.
package replication

import (
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/engine"
	"repro/internal/gcs"
	"repro/internal/lb"
	"repro/internal/metrics"
	"repro/internal/qcache"
	"repro/internal/recoverylog"
	"repro/internal/simnet"
)

// Unified client API (PR 5). Cluster and Conn are the topology-agnostic
// contracts every replication design implements: application code written
// against them (or against database/sql via replication/sqldriver) runs
// unmodified on master-slave, multi-master, partitioned and WAN clusters.
type (
	// Cluster hands out Conns and reports topology-agnostic health.
	Cluster = core.Cluster
	// Conn is the uniform client connection: Exec/Query with ? bind
	// arguments, Prepare, Begin/Commit/Rollback, SetIsolation,
	// SetConsistency, Close.
	Conn = core.Conn
	// Stmt is a prepared statement on a Conn.
	Stmt = core.Stmt
	// ClusterHealth is a topology-agnostic cluster state snapshot.
	ClusterHealth = core.Health
	// Consistency is the read-routing guarantee (§3.3).
	Consistency = core.Consistency
)

// ParseConsistency maps "any" / "session" / "strong" to the enum (DSNs and
// SET CONSISTENCY use the same names).
func ParseConsistency(level string) (Consistency, error) {
	return core.ParseConsistency(level)
}

// Core cluster types.
type (
	// Replica wraps one database engine with service-time modelling,
	// health state and replication progress counters.
	Replica = core.Replica
	// ReplicaConfig configures a Replica.
	ReplicaConfig = core.ReplicaConfig
	// MasterSlave is the master-slave replication controller (Figures 1, 3).
	MasterSlave = core.MasterSlave
	// MasterSlaveConfig configures a MasterSlave cluster.
	MasterSlaveConfig = core.MasterSlaveConfig
	// MSSession is a client session on a MasterSlave cluster.
	MSSession = core.MSSession
	// MultiMaster is the multi-master controller (§2.1, §4.3.2).
	MultiMaster = core.MultiMaster
	// MultiMasterConfig configures a MultiMaster cluster.
	MultiMasterConfig = core.MultiMasterConfig
	// MMSession is a client session on a MultiMaster cluster.
	MMSession = core.MMSession
	// Partitioned shards writes across sub-clusters (Figure 2).
	Partitioned = core.Partitioned
	// PartitionRule maps a table's rows to partitions.
	PartitionRule = core.PartitionRule
	// PSession is a client session on a Partitioned cluster.
	PSession = core.PSession
	// WAN interconnects geographic sites (Figure 4).
	WAN = core.WAN
	// WANConfig configures a WAN deployment.
	WANConfig = core.WANConfig
	// SiteConfig describes one WAN site.
	SiteConfig = core.SiteConfig
	// WSession is a client session homed at one WAN site.
	WSession = core.WSession
	// Certifier performs first-committer-wins certification.
	Certifier = core.Certifier
	// Monitor watches health and drives automatic failover.
	Monitor = core.Monitor
	// Provisioner manages recovery-log based replica lifecycle (§4.4.2).
	Provisioner = core.Provisioner
	// ResyncOptions tunes replica resynchronization.
	ResyncOptions = core.ResyncOptions
	// DivergenceReport lists replica state mismatches.
	DivergenceReport = core.DivergenceReport
	// Orderer is the total-order broadcast abstraction.
	Orderer = core.Orderer
	// LocalOrderer is the in-process sequencer.
	LocalOrderer = core.LocalOrderer
	// GCSOrderer runs total order over real group communication.
	GCSOrderer = core.GCSOrderer
	// Value is a SQL value (for partition rules and site ownership).
	Value = core.Value
)

// Online elasticity types (PR 10): live partition migration and replica
// autoscaling.
type (
	// RouteTable is one immutable epoch-stamped version of the partition
	// routing state.
	RouteTable = core.RouteTable
	// FailoverRecord is one entry of a cluster's failover history.
	FailoverRecord = core.FailoverRecord
	// LagTracker samples per-replica apply lag into time series.
	LagTracker = core.LagTracker
	// LagSample is one time-stamped lag observation.
	LagSample = metrics.Sample
	// Rebalancer migrates buckets between partitions while serving traffic.
	Rebalancer = elastic.Rebalancer
	// RebalancerConfig tunes live migrations.
	RebalancerConfig = elastic.RebalancerConfig
	// Autoscaler provisions and retires read replicas from load signals.
	Autoscaler = elastic.Autoscaler
	// AutoscalerConfig tunes the autoscaler's signals and hysteresis.
	AutoscalerConfig = elastic.AutoscalerConfig
)

// NewRebalancer builds a live-migration controller for a partitioned
// cluster.
func NewRebalancer(pc *Partitioned, cfg RebalancerConfig) *Rebalancer {
	return elastic.NewRebalancer(pc, cfg)
}

// NewAutoscaler starts a replica autoscaler on a master-slave cluster.
func NewAutoscaler(ms *MasterSlave, adm *AdmissionController, lag *LagTracker, cfg AutoscalerConfig) (*Autoscaler, error) {
	return elastic.NewAutoscaler(ms, adm, lag, cfg)
}

// NewLagTracker starts sampling a cluster's per-replica apply lag.
func NewLagTracker(ms *MasterSlave, interval Duration, capSamples int) *LagTracker {
	return core.NewLagTracker(ms, interval, capSamples)
}

// ErrRangeMoved returns the typed retryable sentinel statements receive
// when a live migration moves their key range mid-flight.
func ErrRangeMoved() error { return core.ErrRangeMoved }

// ErrPartitionConfig returns the typed sentinel wrapped by partition-rule
// and routing-table validation failures.
func ErrPartitionConfig() error { return core.ErrPartitionConfig }

// Engine-level types callers may need directly.
type (
	// Engine is the embedded database engine.
	Engine = engine.Engine
	// EngineConfig configures an Engine.
	EngineConfig = engine.Config
	// Session is a direct engine session (bypassing the middleware).
	Session = engine.Session
	// Result is a statement result.
	Result = engine.Result
	// Backup is a consistent engine snapshot.
	Backup = engine.Backup
	// BackupOptions selects what a backup captures (§4.1.5).
	BackupOptions = engine.BackupOptions
	// Profile captures vendor-specific engine behaviour (§4.1).
	Profile = engine.Profile
	// WriteSet is a transaction's captured row changes.
	WriteSet = engine.WriteSet
	// ApplyOptions tunes write-set application on a replica engine.
	ApplyOptions = engine.ApplyOptions
)

// Query result cache types (set MasterSlaveConfig.QueryCache /
// MultiMasterConfig.QueryCache to enable middleware result caching).
type (
	// QueryCache is a sharded, bounded query result cache with
	// table-granularity invalidation from the committed write stream.
	QueryCache = qcache.Cache
	// QueryCacheConfig sizes a QueryCache.
	QueryCacheConfig = qcache.Config
	// QueryCacheStats are the cache's hit/miss/invalidation counters.
	QueryCacheStats = qcache.Stats
)

// NewQueryCache builds a query result cache. One cache may back several
// clusters (each attaches its own scope), sharing a single memory budget.
func NewQueryCache(cfg QueryCacheConfig) *QueryCache { return qcache.New(cfg) }

// Overload-protection types (set MasterSlaveConfig.Admission /
// MultiMasterConfig.Admission, or Partitioned.SetAdmission /
// WAN.SetAdmission, to gate statements through admission control; in
// layered deployments attach ONE controller at the top-level cluster).
type (
	// AdmissionController bounds in-flight statements with a prioritized
	// wait queue and a graceful degradation ladder.
	AdmissionController = admission.Controller
	// AdmissionConfig sizes an AdmissionController.
	AdmissionConfig = admission.Config
	// AdmissionStats are the controller's occupancy and shed counters.
	AdmissionStats = admission.Stats
)

// NewAdmissionController builds an overload controller.
func NewAdmissionController(cfg AdmissionConfig) *AdmissionController {
	return admission.NewController(cfg)
}

// ErrOverloaded returns the sentinel wrapped by admission-control sheds
// (concurrency slots and wait queue full, or per-user limit reached).
func ErrOverloaded() error { return admission.ErrOverloaded }

// Safety, consistency and mode enums.
const (
	OneSafe           = core.OneSafe
	TwoSafe           = core.TwoSafe
	ReadAny           = core.ReadAny
	SessionConsistent = core.SessionConsistent
	StrongConsistent  = core.StrongConsistent
	StatementMode     = core.StatementMode
	CertificationMode = core.CertificationMode
	RewriteAndReject  = core.RewriteAndReject
	RewriteAndAllow   = core.RewriteAndAllow
	HashPartition     = core.HashPartition
	RangePartition    = core.RangePartition
	ListPartition     = core.ListPartition
	ConnectionLevel   = lb.ConnectionLevel
	TransactionLevel  = lb.TransactionLevel
	QueryLevel        = lb.QueryLevel
)

// Vendor profiles.
var (
	ProfilePostgres = engine.ProfilePostgres
	ProfileMySQL    = engine.ProfileMySQL
	ProfileSybase   = engine.ProfileSybase
)

// NewReplica builds a replica from its configuration.
func NewReplica(cfg ReplicaConfig) *Replica { return core.NewReplica(cfg) }

// NewMasterSlave wires a master and slaves and starts binlog shipping.
func NewMasterSlave(master *Replica, slaves []*Replica, cfg MasterSlaveConfig) *MasterSlave {
	return core.NewMasterSlave(master, slaves, cfg)
}

// NewMultiMaster builds a multi-master cluster over the given orderer(s).
func NewMultiMaster(replicas []*Replica, orderers []Orderer, cfg MultiMasterConfig) (*MultiMaster, error) {
	return core.NewMultiMaster(replicas, orderers, cfg)
}

// NewPartitioned builds a partitioned cluster.
func NewPartitioned(partitions []*MasterSlave, rules []*PartitionRule) (*Partitioned, error) {
	return core.NewPartitioned(partitions, rules)
}

// NewElasticPartitioned builds a partitioned cluster routing through
// nbuckets virtual buckets, so live migrations (elastic.Rebalancer) can
// move fractions of a partition's key space between sub-clusters.
func NewElasticPartitioned(partitions []*MasterSlave, rules []*PartitionRule, nbuckets int) (*Partitioned, error) {
	return core.NewElasticPartitioned(partitions, rules, nbuckets)
}

// NewWAN wires geographic sites with asynchronous cross-site replication.
func NewWAN(sites []*SiteConfig, cfg WANConfig) (*WAN, error) { return core.NewWAN(sites, cfg) }

// NewLocalOrderer creates the in-process total order sequencer.
func NewLocalOrderer() *LocalOrderer { return core.NewLocalOrderer() }

// NewCertifier creates a write-set certifier.
func NewCertifier() *Certifier { return core.NewCertifier() }

// NewMonitor creates a health monitor for a master-slave cluster.
func NewMonitor(ms *MasterSlave, interval Duration) *Monitor { return core.NewMonitor(ms, interval) }

// NewProvisioner wraps a recovery log for replica lifecycle management.
func NewProvisioner() *Provisioner { return core.NewProvisioner(recoverylog.New()) }

// CheckDivergence compares table checksums across replicas.
func CheckDivergence(replicas []*Replica, db string) (*DivergenceReport, error) {
	return core.CheckDivergence(replicas, db)
}

// BuildGCSCluster wires n group-communication orderers on a simulated
// network (for distributed multi-master and partition experiments).
func BuildGCSCluster(n int, cfg gcs.Config, seed int64) (*simnet.Network, []*GCSOrderer) {
	return core.BuildGCSCluster(n, cfg, seed)
}

// StringValue and IntValue build SQL values for rules and ownership lists.
func StringValue(s string) Value { return core.NewStringValue(s) }

// IntValue builds an integer SQL value.
func IntValue(i int64) Value { return core.NewIntValue(i) }

// Duration is re-exported time.Duration for the façade's constructors.
type Duration = time.Duration

// FiveNinesBudget returns the yearly downtime budget of a 99.999 %
// availability target (§5.1: 5.26 minutes).
func FiveNinesBudget() Duration { return metrics.FiveNinesBudget }

// ErrNoQuorum returns the sentinel error writes receive in a minority
// partition, for errors.Is checks.
func ErrNoQuorum() error { return core.ErrNoQuorum }
