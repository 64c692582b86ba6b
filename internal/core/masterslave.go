package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// SafetyMode is the commit durability contract of §2.2.
type SafetyMode int

// Safety modes.
const (
	// OneSafe commits at the master without consulting slaves: fast, but
	// transactions can be lost on failover.
	OneSafe SafetyMode = iota
	// TwoSafe delays commit acknowledgement until the required number of
	// slaves confirmed *receipt* of the update (they need not have
	// applied or persisted it) — "avoids transaction loss, but increases
	// latency".
	TwoSafe
)

// Consistency is the read routing guarantee (§3.3).
type Consistency int

// Read consistency levels.
const (
	// ReadAny routes reads to any healthy replica regardless of lag
	// (loose consistency with no freshness guarantee).
	ReadAny Consistency = iota
	// SessionConsistent guarantees read-your-writes: reads go to replicas
	// that have applied this session's last write (strong session SI).
	SessionConsistent
	// StrongConsistent guarantees reads observe the globally latest
	// commit (global strong SI / RSI-PC): only fully caught-up slaves or
	// the master qualify.
	StrongConsistent
)

// MasterSlaveConfig configures a master-slave (hot standby / scale-out)
// cluster. Slaves apply the master's captured write sets (§4.3.2), never
// re-execute its SQL, so non-deterministic statements cannot make them
// diverge; only DDL, which has no write set, ships as a statement.
type MasterSlaveConfig struct {
	Safety SafetyMode
	// TwoSafeAcks is how many slaves must confirm receipt before a commit
	// returns under TwoSafe; zero means all slaves.
	TwoSafeAcks int
	// ReadPolicy balances reads over slaves; nil means LPRF.
	ReadPolicy lb.Policy
	// ReadLevel is the balancing granularity. The zero value is
	// ConnectionLevel: a session's reads stick to one replica for as long
	// as it stays healthy AND keeps satisfying the session's consistency
	// guarantee (a pinned-but-lagging replica is re-picked, never served
	// stale). QueryLevel rebalances every read.
	ReadLevel lb.Level
	// ReadFromMaster additionally allows routing reads to the master.
	ReadFromMaster bool
	// Consistency is the default read guarantee for sessions.
	Consistency Consistency
	// TransparentFailover replays the in-flight transaction on the new
	// master after failover (Sequoia-style, §4.3.3). Only sound with
	// deterministic statements.
	TransparentFailover bool
	// FailoverTimeout bounds how long sessions wait for a promotion
	// before giving up; zero means 5 s.
	FailoverTimeout time.Duration
	// QueryCache, when non-nil, serves eligible reads (deterministic
	// SELECTs under read-committed/snapshot isolation) from a middleware
	// result cache with table-granularity invalidation. The cluster
	// attaches its own scope, so one Cache may back several clusters
	// (e.g. every partition of a partitioned deployment) without result
	// collisions. Entries are position-tagged: a session-consistent read
	// is never served a result older than the session's last write.
	QueryCache *qcache.Cache
	// Admission, when non-nil, gates every routed statement through the
	// cluster's overload-protection controller: bounded concurrency, a
	// prioritized wait queue (writes rejected last), per-user limits, and
	// slow-query accounting. Nil means no admission control. In layered
	// deployments (partitioned, WAN) attach the controller to the TOP
	// cluster only, or statements pay admission twice.
	Admission *admission.Controller
	// StatementTimeout is the default per-statement budget for new
	// sessions (admission-queue wait + replica wait + execution). Zero
	// means none; sessions override it with SET DEADLINE.
	StatementTimeout time.Duration
}

// ErrTxnLost is wrapped when a master failover destroys an in-flight
// transaction and TransparentFailover is off (§4.3.3: session failover
// only). Deliberately not retryable — the application must restart the
// transaction from BEGIN; replaying just the failed statement would apply
// it outside any transaction.
var ErrTxnLost = errors.New("core: transaction lost by master failover")

// MasterSlave is a master-slave replication controller (Figures 1 and 3).
type MasterSlave struct {
	cfg MasterSlaveConfig

	mu       sync.Mutex
	master   *Replica
	slaves   []*Replica
	appliers map[string]*slaveApplier
	policy   lb.Policy
	// failingOver blocks Failback while Failover is between its two locked
	// sections: an applier attached in that window would ship from the
	// dying master and never be halted.
	failingOver bool
	// epoch is bumped at each failover. Atomic so the read hot path can
	// detect promotions without taking ms.mu.
	epoch atomic.Uint64

	// qc is the cluster's scope on the configured query result cache (nil
	// when caching is off). invalMu serializes draining the master binlog
	// into the scope's invalidation state; invalCursor is the last binlog
	// position folded in. Writers drain up to their own commit position
	// before acknowledging, so invalidation is never later than the ack.
	qc          *qcache.Scope
	invalMu     sync.Mutex
	invalCursor uint64
	// skipInval disables write-side cache invalidation. Fault injection for
	// the consistency certification harness ONLY: with it set, an acked
	// write leaves stale results cached, and the history checker must catch
	// the resulting read-your-writes violation.
	skipInval atomic.Bool

	// durab, when set, is awaited before any committed write is
	// acknowledged: the commit's position must be flushed to the recovery
	// log first (cross-connection group commit, PR 9). Atomic holder so the
	// write hot path never takes ms.mu for it.
	durab atomic.Value // holds durabHolder

	lostOnLastFailover uint64
	// failoverHist records every promotion this cluster performed, newest
	// last: the operability surface exports it, and post-mortems need the
	// exact lost-transaction count per event, not just the last one.
	failoverHist []FailoverRecord
}

// FailoverRecord is one completed promotion: when it happened, which master
// died, which slave was promoted, and how many committed-but-unshipped
// transactions the 1-safe window lost.
type FailoverRecord struct {
	At        time.Time
	Lost      uint64
	OldMaster string
	NewMaster string
}

// FailoverHistory returns every failover this cluster performed, oldest
// first.
func (ms *MasterSlave) FailoverHistory() []FailoverRecord {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return append([]FailoverRecord(nil), ms.failoverHist...)
}

// durabHolder wraps the DurabilityWaiter for atomic.Value (which requires a
// single concrete stored type).
type durabHolder struct{ w DurabilityWaiter }

// SetDurability installs (or, with nil, removes) the durability gate awaited
// before commit acknowledgements. DurableCluster wires a GroupCommitter here
// when group commit is on.
func (ms *MasterSlave) SetDurability(w DurabilityWaiter) {
	ms.durab.Store(durabHolder{w: w})
}

func (ms *MasterSlave) durability() DurabilityWaiter {
	if h, ok := ms.durab.Load().(durabHolder); ok {
		return h.w
	}
	return nil
}

// slaveApplier consumes the master binlog serially into one slave.
type slaveApplier struct {
	slave *Replica
	stop  chan struct{}
	done  chan struct{}
}

// applyBatch caps how many queued write-set events a slave applies per
// engine lock acquisition (group commit): a lagging slave drains its
// backlog with one lock round-trip per batch instead of one per
// transaction. DDL events apply one at a time.
const applyBatch = 32

// NewMasterSlave wires a master and its slaves and starts binlog shipping.
func NewMasterSlave(master *Replica, slaves []*Replica, cfg MasterSlaveConfig) *MasterSlave {
	if cfg.ReadPolicy == nil {
		cfg.ReadPolicy = lb.NewLPRF()
	}
	if cfg.FailoverTimeout == 0 {
		cfg.FailoverTimeout = 5 * time.Second
	}
	ms := &MasterSlave{
		cfg:      cfg,
		master:   master,
		slaves:   append([]*Replica(nil), slaves...),
		appliers: make(map[string]*slaveApplier),
		policy:   cfg.ReadPolicy,
	}
	if cfg.QueryCache != nil {
		ms.qc = cfg.QueryCache.NewScope()
		// Events before attachment cannot have cached results; start the
		// invalidation cursor at the current head instead of replaying.
		ms.invalCursor = master.Engine().Binlog().Head()
	}
	for _, sl := range ms.slaves {
		ms.startApplier(sl, 0)
	}
	return ms
}

// Master returns the current master replica.
func (ms *MasterSlave) Master() *Replica {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.master
}

// Slaves returns the current slave set.
func (ms *MasterSlave) Slaves() []*Replica {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return append([]*Replica(nil), ms.slaves...)
}

// MasterSeq returns the master's current binlog head.
func (ms *MasterSlave) MasterSeq() uint64 {
	return ms.Master().Engine().Binlog().Head()
}

// SlaveLag returns how many events each slave still has to apply.
func (ms *MasterSlave) SlaveLag() map[string]uint64 {
	head := ms.MasterSeq()
	out := make(map[string]uint64)
	for _, sl := range ms.Slaves() {
		applied := sl.AppliedSeq()
		if head > applied {
			out[sl.Name()] = head - applied
		} else {
			out[sl.Name()] = 0
		}
	}
	return out
}

// startApplier begins shipping the master binlog into a slave from position
// `from`. Caller must not hold ms.mu... it only reads ms.master once.
func (ms *MasterSlave) startApplier(sl *Replica, from uint64) {
	ms.mu.Lock()
	master := ms.master
	a := &slaveApplier{
		slave: sl,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	ms.appliers[sl.Name()] = a
	ms.mu.Unlock()
	go a.run(master.Engine(), from)
}

// run ships events serially: receive (ack position), then apply with the
// slave's write service cost. Application stays serial — one event stream,
// in commit order, which is exactly why a loaded slave lags a parallel
// master (§2.2, experiment C3) — but a backlog drains in group-commit
// batches: one engine lock acquisition applies up to applyBatch queued
// write sets, each still committing individually so binlog positions stay
// aligned one-event-one-commit across replicas.
func (a *slaveApplier) run(masterEng *engine.Engine, from uint64) {
	defer close(a.done)
	pos := from
	if pos == 0 {
		pos = a.slave.AppliedSeq()
	}
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		events, trimmed := masterEng.Binlog().ReadFrom(pos, 64)
		if trimmed {
			return // needs full resync from backup (§4.4.2)
		}
		if len(events) == 0 {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		for len(events) > 0 {
			if a.stopped() {
				return
			}
			// A batch is one DDL event or a run of write-set events.
			n := 1
			for !events[0].DDL && n < len(events) && n < applyBatch && !events[n].DDL {
				n++
			}
			batch := events[:n]
			events = events[n:]
			// Receive and service each event, honoring halt between events;
			// a stop request shrinks the batch to the events already
			// serviced.
			received := 0
			for _, ev := range batch {
				if received > 0 && a.stopped() {
					break
				}
				a.receive(ev)
				received++
			}
			applied, err := a.slave.Engine().ApplyEvents(batch[:received])
			if applied > 0 {
				pos = batch[applied-1].Seq
				a.slave.appliedSeq.Store(pos)
				if !batch[0].DDL {
					a.slave.noteApplied(applied, 1)
				}
			}
			if err != nil || received < len(batch) {
				// Apply errors stall the slave (like a broken replica);
				// operators must intervene — matching field behaviour.
				return
			}
		}
	}
}

// receive acknowledges an event's arrival (what 2-safe commits wait for)
// and pays any degradation delay (Replica.Degrade).
func (a *slaveApplier) receive(ev engine.Event) {
	a.slave.receivedSeq.Store(ev.Seq)
	a.slave.applyDelay()
}

func (a *slaveApplier) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

func (a *slaveApplier) halt() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

// waitTwoSafe blocks until enough slaves confirmed receipt of seq.
func (ms *MasterSlave) waitTwoSafe(seq uint64) error {
	need := ms.cfg.TwoSafeAcks
	slaves := ms.Slaves()
	if need <= 0 || need > len(slaves) {
		need = len(slaves)
	}
	deadline := time.Now().Add(ms.cfg.FailoverTimeout)
	for {
		acked := 0
		for _, sl := range slaves {
			if sl.ReceivedSeq() >= seq {
				acked++
			}
		}
		if acked >= need {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: 2-safe commit timed out waiting for %d acks at seq %d", need, seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// replicaFresh reports whether r currently satisfies the session's read
// guarantee. The master always does. It runs on every pinned read, so the
// common modes (ReadAny; SessionConsistent with a caught-up replica)
// answer from r's atomics alone without touching ms.mu or the master's
// binlog mutex.
func (ms *MasterSlave) replicaFresh(r *Replica, cons Consistency, floor uint64) bool {
	if cons == ReadAny || (cons == SessionConsistent && r.AppliedSeq() >= floor) {
		return true
	}
	master := ms.Master()
	return r == master || fresh(cons, r.AppliedSeq(), floor, master.Engine().Binlog().Head())
}

// pickRead selects a replica for a read under the session's consistency
// requirement: a fresh healthy slave (or the master, with ReadFromMaster),
// else the master, which satisfies every guarantee.
func (ms *MasterSlave) pickRead(cons Consistency, floor uint64) (*Replica, error) {
	ms.mu.Lock()
	master := ms.master
	slaves := append([]*Replica(nil), ms.slaves...)
	ms.mu.Unlock()

	head := master.Engine().Binlog().Head()
	var candidates []lb.Target
	for _, sl := range slaves {
		if sl.Healthy() && fresh(cons, sl.AppliedSeq(), floor, head) {
			candidates = append(candidates, sl)
		}
	}
	if ms.cfg.ReadFromMaster && master.Healthy() {
		candidates = append(candidates, master)
	}
	if len(candidates) == 0 {
		if master.Healthy() {
			return master, nil
		}
		return nil, ErrReplicaDown
	}
	t := ms.policy.Pick(candidates)
	if t == nil {
		return nil, ErrReplicaDown
	}
	return t.(*Replica), nil
}

// QueryCacheScope exposes the cluster's result cache scope (nil when
// caching is off); tests and operators use it to probe entries directly.
func (ms *MasterSlave) QueryCacheScope() *qcache.Scope { return ms.qc }

// Admission exposes the cluster's admission controller (nil when admission
// control is off); the metrics endpoint and tests read its counters.
func (ms *MasterSlave) Admission() *admission.Controller { return ms.cfg.Admission }

// readPos is the replication position a read routed to r can be tagged
// with: what r had applied (or, for the master, committed) at the time.
func (ms *MasterSlave) readPos(r *Replica) uint64 {
	master := ms.Master()
	if r == master {
		return master.Engine().Binlog().Head()
	}
	return r.AppliedSeq()
}

// latest is the master's binlog head.
func (ms *MasterSlave) latest() uint64 { return ms.MasterSeq() }

// pinnable keeps reads from pinning the master: a master fallback (no
// slave was fresh enough) must stay temporary, or write-then-read sessions
// would migrate to the master forever and collapse read-one/write-all
// scaling.
func (ms *MasterSlave) pinnable(r *Replica) bool { return r != ms.Master() }

func (ms *MasterSlave) incarnation() uint64 { return ms.Epoch() }

// invalidateThrough folds master binlog events up to seq into the query
// cache's invalidation state. Writers call it after committing and before
// acknowledging, so no write is ever acked with its tables still cached.
func (ms *MasterSlave) invalidateThrough(master *Replica, seq uint64) {
	if ms.qc == nil || ms.skipInval.Load() {
		return
	}
	ms.invalMu.Lock()
	defer ms.invalMu.Unlock()
	for ms.invalCursor < seq {
		events, trimmed := master.Engine().Binlog().ReadFrom(ms.invalCursor, 256)
		if trimmed {
			// The events between cursor and seq are gone; their table
			// footprints are unknowable. Flush everything.
			ms.qc.FlushAll()
			ms.invalCursor = seq
			return
		}
		if len(events) == 0 {
			return
		}
		for _, ev := range events {
			ms.qc.ApplyEvent(ev)
			ms.invalCursor = ev.Seq
		}
	}
}

// InjectSkipCacheInvalidation toggles the harness's fault injection: while
// set, writes are acknowledged WITHOUT invalidating the query result cache.
// This deliberately breaks read-your-writes so the certification checker can
// prove it detects real anomalies. Never use outside tests.
func (ms *MasterSlave) InjectSkipCacheInvalidation(v bool) { ms.skipInval.Store(v) }

// LostTransactions reports how many committed-but-unshipped events the last
// failover lost (1-safe's exposure, §2.2).
func (ms *MasterSlave) LostTransactions() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.lostOnLastFailover
}

// Epoch identifies the current master incarnation.
func (ms *MasterSlave) Epoch() uint64 {
	return ms.epoch.Load()
}

// Failover promotes the most-up-to-date healthy slave to master and rewires
// shipping. It returns the new master. The failed master's unshipped suffix
// is counted as lost transactions.
//
// Shipping from the dead master is halted BEFORE roles swap: appliers are
// mid-stream, and every event a slave drains from the dead binlog after the
// promotion decision would falsify the lost-transaction count (the seed
// computed it from a still-moving position) and, worse, smuggle lost
// transactions into a slave that the promoted lineage never saw.
func (ms *MasterSlave) Failover() (*Replica, error) {
	ms.mu.Lock()
	oldMaster := ms.master
	anyHealthy := false
	for _, sl := range ms.slaves {
		if sl.Healthy() {
			anyHealthy = true
			break
		}
	}
	if !anyHealthy {
		ms.mu.Unlock()
		return nil, fmt.Errorf("core: no healthy slave to promote")
	}
	appliers := ms.appliers
	ms.appliers = make(map[string]*slaveApplier)
	ms.failingOver = true
	ms.mu.Unlock()
	// Freeze every position before measuring anything.
	for _, a := range appliers {
		a.halt()
	}

	ms.mu.Lock()
	ms.failingOver = false
	if ms.master != oldMaster {
		// A concurrent failover won; keep its outcome.
		m := ms.master
		ms.mu.Unlock()
		return m, nil
	}
	// Select the promotee only now that positions are frozen: a slave that
	// drained more of the dead master's binlog during the halt would
	// otherwise be passed over, its extra committed transactions counted
	// as lost and wiped by the re-seed below.
	var best *Replica
	for _, sl := range ms.slaves {
		if !sl.Healthy() {
			continue
		}
		if best == nil || sl.AppliedSeq() > best.AppliedSeq() {
			best = sl
		}
	}
	if best == nil {
		// Every slave died during the halt window. Re-attach appliers so a
		// later failover (or recovery) starts from a consistent state and
		// report the outage.
		slaves := append([]*Replica(nil), ms.slaves...)
		ms.mu.Unlock()
		for _, sl := range slaves {
			ms.startApplier(sl, sl.AppliedSeq())
		}
		return nil, fmt.Errorf("core: no healthy slave to promote")
	}
	remaining := make([]*Replica, 0, len(ms.slaves))
	for _, sl := range ms.slaves {
		if sl != best {
			remaining = append(remaining, sl)
		}
	}
	ms.master = best
	ms.slaves = remaining
	ms.epoch.Add(1)
	// Lost transactions: committed on the old master but never applied by
	// the promoted slave. (We can inspect the in-memory binlog; in the
	// field this is "a manual procedure requiring careful inspection of
	// the master's transaction log", §2.2.) Positions are frozen, so the
	// count is exact.
	oldHead := oldMaster.Engine().Binlog().Head()
	applied := best.AppliedSeq()
	if oldHead > applied {
		ms.lostOnLastFailover = oldHead - applied
	} else {
		ms.lostOnLastFailover = 0
	}
	ms.failoverHist = append(ms.failoverHist, FailoverRecord{
		At:        time.Now(),
		Lost:      ms.lostOnLastFailover,
		OldMaster: oldMaster.Name(),
		NewMaster: best.Name(),
	})
	// A slave that drained the dead master's backlog past the promoted
	// position contains transactions the new lineage lost: its state is
	// diverged, not merely ahead, and its freshness counter would lie to
	// the read router. Take it out of routing under the same lock that
	// installs the new master; it is re-seeded below.
	var reseed []*Replica
	for _, sl := range remaining {
		if sl.AppliedSeq() > applied {
			sl.Fail()
			reseed = append(reseed, sl)
		}
	}
	// Failover re-aligns the replication position space (the lost suffix
	// never happened); cached positions stop being comparable, so drop
	// everything and restart invalidation from the new master's head.
	//
	// This must happen INSIDE the critical section that installs the new
	// master. When it ran after the unlock, a writer could commit on the
	// already-visible new master, find invalCursor still pointing into the
	// old position space (so invalidateThrough was a no-op), and acknowledge
	// — leaving a pre-failover cached result tagged with an old-space
	// position high enough to satisfy the session's minPos. The session's
	// next read would then be served pre-write state: a read-your-writes
	// violation the certification harness catches. Lock order ms.mu →
	// invalMu is safe: no path acquires them in the opposite order.
	if ms.qc != nil {
		ms.invalMu.Lock()
		ms.qc.FlushAll()
		ms.invalCursor = best.Engine().Binlog().Head()
		ms.invalMu.Unlock()
	}
	ms.mu.Unlock()

	// Re-seed overshot slaves from the new master: the seed's position
	// clamp left the lost rows in their engines (a session-consistent read
	// could then be served data the cluster never committed, or miss data
	// it did).
	var dump *engine.Backup
	for _, sl := range reseed {
		if dump == nil {
			b, err := best.Engine().Dump(FaithfulBackup)
			if err != nil {
				break // leave them failed; a monitor rejoin can repair later
			}
			dump = b
		}
		if err := sl.Engine().Restore(dump); err != nil {
			continue
		}
		sl.Engine().Binlog().Reset(dump.AtSeq)
		sl.appliedSeq.Store(dump.AtSeq)
		sl.receivedSeq.Store(dump.AtSeq)
		sl.Recover()
	}
	// Re-point remaining slaves at the new master, resuming from their own
	// positions (binlog positions are aligned one-event-one-commit).
	for _, sl := range remaining {
		ms.startApplier(sl, sl.AppliedSeq())
	}
	return best, nil
}

// Failback re-adds a recovered replica as a slave, resynchronizing it from
// the current master's binlog (or reporting that a backup-based resync is
// required when the binlog was trimmed, §4.4.2).
func (ms *MasterSlave) Failback(rep *Replica, from uint64) error {
	if head := ms.MasterSeq(); from > head {
		// A replica claiming a position the master has not reached holds
		// state from a lost lineage; attaching it would let the read router
		// treat diverged data as maximally fresh. It needs a resync
		// (checkpoint clone), not a failback.
		return fmt.Errorf("core: failback of %s at %d is ahead of master head %d: diverged, resync required",
			rep.Name(), from, head)
	}
	// Counters must be truthful BEFORE the replica becomes routable: a
	// rejoining old master still carries its dead lineage's (higher)
	// positions, and a session-consistent read racing the attach would
	// trust them.
	rep.appliedSeq.Store(from)
	rep.receivedSeq.Store(from)
	rep.Recover()
	ms.mu.Lock()
	if ms.failingOver {
		ms.mu.Unlock()
		return fmt.Errorf("core: failover in progress; retry failback of %s", rep.Name())
	}
	for _, sl := range ms.slaves {
		if sl == rep {
			ms.mu.Unlock()
			return fmt.Errorf("core: replica %s already attached", rep.Name())
		}
	}
	ms.slaves = append(ms.slaves, rep)
	ms.mu.Unlock()
	ms.startApplier(rep, from)
	return nil
}

// Retire detaches the named slave from the cluster: its applier halts and
// it leaves read routing. The replica itself is returned alive (the
// autoscaler keeps retired replicas as warm spares). The epoch bump drops
// connection-level read pins, so no session keeps reading a replica that
// will never advance again — safe, because retiring changes no positions
// and routeRead's epoch handling only ever clamps floors downward to the
// (unchanged) master head.
func (ms *MasterSlave) Retire(name string) (*Replica, error) {
	ms.mu.Lock()
	if ms.failingOver {
		ms.mu.Unlock()
		return nil, fmt.Errorf("core: failover in progress; retry retire of %s", name)
	}
	var target *Replica
	remaining := make([]*Replica, 0, len(ms.slaves))
	for _, sl := range ms.slaves {
		if sl.Name() == name && target == nil {
			target = sl
			continue
		}
		remaining = append(remaining, sl)
	}
	if target == nil {
		ms.mu.Unlock()
		return nil, fmt.Errorf("core: no slave named %s to retire", name)
	}
	ms.slaves = remaining
	a := ms.appliers[name]
	delete(ms.appliers, name)
	ms.epoch.Add(1)
	ms.mu.Unlock()
	if a != nil {
		a.halt()
	}
	return target, nil
}

// SeedFrom overwrites every replica of this cluster — master and slaves —
// with the given backup and restarts shipping from the backup's position.
// This is the first phase of a live partition migration: the destination
// sub-cluster becomes a faithful clone of the source at AtSeq, its binlog
// reset so that applying the source's tail events one-for-one keeps the
// destination head equal to the last applied source position (the
// migration's resume cursor). Only sound on a cluster not yet serving
// client traffic.
func (ms *MasterSlave) SeedFrom(b *engine.Backup) error {
	ms.mu.Lock()
	appliers := ms.appliers
	ms.appliers = make(map[string]*slaveApplier)
	master := ms.master
	slaves := append([]*Replica(nil), ms.slaves...)
	ms.mu.Unlock()
	for _, a := range appliers {
		a.halt()
	}
	for _, rep := range append([]*Replica{master}, slaves...) {
		if err := rep.Engine().Restore(b); err != nil {
			return fmt.Errorf("core: seed of %s failed: %w", rep.Name(), err)
		}
		rep.Engine().Binlog().Reset(b.AtSeq)
		rep.appliedSeq.Store(b.AtSeq)
		rep.receivedSeq.Store(b.AtSeq)
	}
	if ms.qc != nil {
		ms.invalMu.Lock()
		ms.qc.FlushAll()
		ms.invalCursor = b.AtSeq
		ms.invalMu.Unlock()
	}
	for _, sl := range slaves {
		ms.startApplier(sl, b.AtSeq)
	}
	return nil
}

// SurvivableSeq returns the highest source position guaranteed to exist in
// ANY lineage this cluster can fail over to: the max applied position over
// healthy slaves (promotion always picks the max-applied slave, so events
// at or below it survive a master kill). A migration tail that never
// applies beyond this can resume from its contiguous prefix after a source
// failover without re-cloning. With no healthy slave it falls back to the
// master head.
func (ms *MasterSlave) SurvivableSeq() uint64 {
	var best uint64
	any := false
	for _, sl := range ms.Slaves() {
		if !sl.Healthy() {
			continue
		}
		if a := sl.AppliedSeq(); !any || a > best {
			best, any = a, true
		}
	}
	if !any {
		return ms.MasterSeq()
	}
	return best
}

// Close stops all shipping.
func (ms *MasterSlave) Close() {
	ms.mu.Lock()
	appliers := ms.appliers
	ms.appliers = make(map[string]*slaveApplier)
	ms.mu.Unlock()
	for _, a := range appliers {
		a.halt()
	}
}

// ---- client sessions ----

// boundStmt is a statement with its bind arguments: the unit of the
// transparent-failover replay log (a replay must re-bind the original
// argument vector, not just re-execute the text).
type boundStmt struct {
	st   sqlparse.Statement
	args []sqltypes.Value
}

// MSSession is a client session against a master-slave cluster. It
// implements the unified Conn contract.
type MSSession struct {
	replicaSession
	ms *MasterSlave

	mu sync.Mutex
	// txnLog keeps the in-flight transaction's parsed statements (with
	// their bind arguments) for transparent failover replay — ASTs, not
	// SQL text, so a replay does not re-parse.
	txnLog []boundStmt
	inTxn  bool
}

// NewSession opens a client session on the cluster.
func (ms *MasterSlave) NewSession(user string) *MSSession {
	cs := &MSSession{ms: ms}
	cs.replicaSession = replicaSession{
		sessionCore: newSessionCore(cs, user, ms.cfg.Admission, ms.cfg.Consistency, ms.cfg.StatementTimeout),
		pool:        newSessionPool(user),
		topo:        ms,
		qc:          ms.qc,
		level:       ms.cfg.ReadLevel,
		skipInval:   &ms.skipInval,
		pinEpoch:    ms.Epoch(),
		// A new session has observed nothing yet, but its client may have
		// seen another connection create a database or table: a slave
		// that has not applied the master's DDL as of the open cannot
		// serve it, as MMSession.openSeq keeps a lagging home from running
		// it. The floor is the newest DDL, not the head: under a flash
		// crowd of new connections, a head floor sends every first read
		// to the master while busy slaves trail the writes. Read after
		// the epoch, so a failover in between clamps it.
		lastReadSeq: ms.Master().Engine().Binlog().LastDDL(),
	}
	cs.serializable = ms.Master().Engine().Profile().DefaultIsolation == engine.Serializable
	return cs
}

// NewConn implements Cluster.
func (ms *MasterSlave) NewConn(user string) (Conn, error) {
	return ms.NewSession(user), nil
}

// Authenticate implements Cluster: credentials are checked against the
// current master's engine (access control is engine state, §4.1.5).
func (ms *MasterSlave) Authenticate(user, password string) error {
	return ms.Master().Engine().Authenticate(user, password)
}

// Health implements Cluster.
func (ms *MasterSlave) Health() Health {
	ms.mu.Lock()
	master := ms.master
	slaves := append([]*Replica(nil), ms.slaves...)
	ms.mu.Unlock()
	h := Health{Topology: "master-slave", Replicas: 1 + len(slaves)}
	if master.Healthy() {
		h.HealthyReplicas++
	}
	h.Head = master.Engine().Binlog().Head()
	for _, sl := range slaves {
		if sl.Healthy() {
			h.HealthyReplicas++
		}
		if applied := sl.AppliedSeq(); h.Head > applied && h.Head-applied > h.MaxLag {
			h.MaxLag = h.Head - applied
		}
	}
	return h
}

// Close releases the session.
func (cs *MSSession) Close() { cs.pool.closeAll() }

// ExecStmtArgs routes a pre-parsed statement with bind arguments: reads
// outside a transaction through the read pipeline, everything else to the
// master.
func (cs *MSSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	// Inside a transaction SET ISOLATION goes to the master, whose session
	// rejects it like the engine would.
	if _, iso := st.(*sqlparse.SetIsolation); !iso || !cs.inTxn {
		if res, ok, err := cs.setting(st, cs.pool.announce); ok {
			return res, err
		}
	}
	// BEGIN must open the transaction on the master. Its IsRead() is true
	// (it takes no locks), but routing it like a read opened the
	// transaction on whatever replica served this session's reads while
	// the transaction's writes autocommitted on the master.
	if _, begin := st.(*sqlparse.BeginTxn); st.IsRead() && !cs.inTxn && !begin {
		return cs.execRead(st, args)
	}
	return cs.execWrite(st, args)
}

// execWrite sends the statement to the master, handling safety mode and
// (optionally) transparent failover. Writes are the LAST class the
// admission ladder rejects; once admitted, the slot is held across a
// failover retry (the cluster is doing real work for this statement the
// whole time).
func (cs *MSSession) execWrite(st sqlparse.Statement, args []sqltypes.Value) (res *engine.Result, err error) {
	slot, deadline, err := cs.admit(admission.ClassWrite)
	if err != nil {
		return nil, err
	}
	defer func() { slot.Done(err) }()
	for attempt := 0; ; attempt++ {
		master := cs.ms.Master()
		sess, err := cs.pool.get(master)
		if err != nil {
			return nil, err
		}
		res, err := master.ExecStmtArgsDeadlineOn(sess, st, false, args, deadline)
		if err != nil {
			if errors.Is(err, ErrReplicaDown) && attempt == 0 {
				if rerr := cs.recoverFromMasterFailure(master); rerr == nil {
					continue
				}
			}
			// A failed COMMIT/ROLLBACK still ends the transaction: the
			// engine terminates its txn before reporting (a conflicting
			// commit is rolled back, §4.1.2). Tracking it as still open
			// would wedge the session — later autocommit writes would pile
			// into txnLog, skip lastWriteSeq, and a failover could replay
			// already-settled statements.
			switch st.(type) {
			case *sqlparse.CommitTxn, *sqlparse.RollbackTxn:
				cs.inTxn = false
				cs.txnLog = nil
			}
			return nil, err
		}
		cs.trackTxn(st, args)
		if !cs.inTxn && !st.IsRead() {
			// Prefer the commit's own binlog position over the head: the
			// head may already include later commits from concurrent
			// sessions, which would over-constrain this session's reads
			// (and mis-tag its history). Statements that committed nothing
			// (read-only COMMIT, DDL without an AtSeq) fall back to head.
			seq := res.AtSeq
			if seq == 0 {
				seq = master.Engine().Binlog().Head()
			}
			cs.lastWriteSeq = seq
			// Invalidate cached results for the tables this write (or
			// anything committed before it) touched BEFORE acknowledging:
			// once the client sees the commit, no read — from any session
			// the ack is relayed to — may be served the pre-write result.
			cs.ms.invalidateThrough(master, seq)
			// Group commit: hold the acknowledgement until this commit's
			// position is on disk, sharing the fsync with every commit that
			// lands while the previous fsync runs. Rollbacks made nothing
			// durable and skip the wait. A durability failure is reported
			// even though the commit executed — the caller cannot be told
			// "durable" when the log could not confirm it.
			if w := cs.ms.durability(); w != nil {
				if _, rollback := st.(*sqlparse.RollbackTxn); !rollback {
					if err := w.WaitDurable(seq); err != nil {
						return nil, err
					}
				}
			}
			if cs.ms.cfg.Safety == TwoSafe {
				if err := cs.ms.waitTwoSafe(seq); err != nil {
					return nil, err
				}
			}
		}
		return res, nil
	}
}

// trackTxn maintains explicit-transaction state and the replay log.
func (cs *MSSession) trackTxn(st sqlparse.Statement, args []sqltypes.Value) {
	switch st.(type) {
	case *sqlparse.BeginTxn:
		cs.inTxn = true
		cs.txnLog = cs.txnLog[:0]
		cs.txnLog = append(cs.txnLog, boundStmt{st: st})
	case *sqlparse.CommitTxn, *sqlparse.RollbackTxn:
		cs.inTxn = false
		cs.txnLog = nil
	default:
		if cs.inTxn {
			cs.txnLog = append(cs.txnLog, boundStmt{st: st, args: args})
		}
	}
}

// recoverFromMasterFailure waits for a promotion and, when configured,
// replays the in-flight transaction on the new master (§4.3.3: without this
// cooperation "the entire transaction has to be replayed ... which cannot
// succeed without the cooperation of the application").
func (cs *MSSession) recoverFromMasterFailure(failed *Replica) error {
	deadline := time.Now().Add(cs.ms.cfg.FailoverTimeout)
	for {
		m := cs.ms.Master()
		if m != failed && m.Healthy() {
			break
		}
		if time.Now().After(deadline) {
			// No replica was promoted in time: the cluster currently has no
			// master. Wrapping ErrReplicaDown keeps the session-failover
			// contract — pooled drivers discard the connection and retry,
			// and a later attempt may find a promoted master.
			return fmt.Errorf("%w: no failover within %v", ErrReplicaDown, cs.ms.cfg.FailoverTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	cs.pool.drop(failed)
	if !cs.inTxn {
		return nil
	}
	if !cs.ms.cfg.TransparentFailover {
		cs.inTxn = false
		cs.txnLog = nil
		return fmt.Errorf("%w: session failover only, §4.3.3", ErrTxnLost)
	}
	// Replay the transaction context on the new master.
	master := cs.ms.Master()
	sess, err := cs.pool.get(master)
	if err != nil {
		return err
	}
	for _, b := range cs.txnLog {
		if _, err := master.ExecStmtArgsOn(sess, b.st, false, b.args); err != nil {
			cs.inTxn = false
			cs.txnLog = nil
			return fmt.Errorf("core: transparent failover replay failed: %w", err)
		}
	}
	return nil
}
