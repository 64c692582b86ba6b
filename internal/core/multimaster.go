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
)

// ErrCertificationAbort is returned when certification detects a
// write-write conflict with a concurrently committed transaction.
var ErrCertificationAbort = errors.New("core: transaction aborted by certification (first-committer-wins)")

// ErrNoQuorum is returned for writes submitted from a minority partition
// (the replicated database "must favor C and A over P", §4.3.4.3).
var ErrNoQuorum = errors.New("core: no quorum — writes refused in minority partition")

// ErrCommitUncertain is wrapped when a commit was submitted for total-order
// delivery but no decision arrived within CommitTimeout. The outcome is
// unknown: the script may yet commit cluster-wide. Deliberately NOT a
// deadline sentinel (it must not wrap context.DeadlineExceeded): a pooled
// driver that classified this as retryable would re-submit and could
// double-apply a non-idempotent write after the original commits.
var ErrCommitUncertain = errors.New("core: commit outcome uncertain — ordered but unacknowledged")

// MultiMasterConfig configures a multi-master cluster.
type MultiMasterConfig struct {
	// ReadPolicy balances reads; nil means LPRF.
	ReadPolicy lb.Policy
	// ReadLevel is the balancing granularity for reads.
	ReadLevel lb.Level
	// Consistency is the read guarantee.
	Consistency Consistency
	// Certifier detects write-write conflicts; nil means a
	// replicated certifier (one deterministic instance per replica, no
	// SPOF). Set a shared *Certifier for the centralized variant whose
	// SPOF behaviour C5 measures.
	Certifier *Certifier
	// CommitTimeout bounds how long a session waits for its transaction
	// to come back ordered and applied; zero means 10 s.
	CommitTimeout time.Duration
	// QuorumOf, when > 0, is the total group size; writes require a
	// majority view (only meaningful with GCS orderers).
	QuorumOf int
	// QueryCache, when non-nil, serves eligible reads from a middleware
	// result cache (see MasterSlaveConfig.QueryCache). Certified writes
	// invalidate exactly the tables of their write set; DDL flushes its
	// database.
	QueryCache *qcache.Cache
	// Admission, when non-nil, gates every statement through the overload
	// controller (see MasterSlaveConfig.Admission). In layered deployments
	// attach a controller to the TOP-level cluster only.
	Admission *admission.Controller
	// StatementTimeout is the default per-statement deadline applied to
	// every session (overridable per session with SET DEADLINE). Zero means
	// no deadline. It bounds admission wait, replica queueing, and read /
	// dry-run execution; ordered commits stay bounded by CommitTimeout
	// (aborting after ordering would be unsafe).
	StatementTimeout time.Duration
}

// mmTxn is the ordered payload: either a write set or one DDL statement.
type mmTxn struct {
	ID       uint64
	Origin   string // home replica name
	Database string
	DDL      string
	WS       *engine.WriteSet
	Snapshot uint64 // position the transaction read at
	User     string
}

// txnOutcome reports a transaction's fate back to the waiting session.
type txnOutcome struct {
	res *engine.Result
	err error
}

// MultiMaster is a multi-master replication controller (§2.1).
type MultiMaster struct {
	cfg      MultiMasterConfig
	replicas []*Replica
	orderers []Orderer // one per replica, or a single shared local orderer
	policy   lb.Policy

	// certifiers: one per replica in replicated mode; all pointing at
	// cfg.Certifier in centralized mode.
	certifiers []*Certifier

	// qc is the cluster's scope on the configured query result cache (nil
	// when caching is off).
	qc *qcache.Scope

	mu      sync.Mutex
	waiters map[uint64]*txnWaiter
	nextTxn atomic.Uint64
	head    atomic.Uint64 // highest ordered seq seen by any applier

	stopped bool
	stops   []chan struct{}
	wg      sync.WaitGroup

	// aborts counts certification aborts (for Gray's-law experiments).
	aborts atomic.Uint64
	// commits counts certified/applied transactions.
	commits atomic.Uint64
}

type txnWaiter struct {
	home string
	ch   chan txnOutcome
}

// NewMultiMaster builds a multi-master cluster. orderers must be either a
// single shared Orderer (in-process deployment) or exactly one per replica
// (distributed deployment over gcs).
func NewMultiMaster(replicas []*Replica, orderers []Orderer, cfg MultiMasterConfig) (*MultiMaster, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("core: no replicas")
	}
	if len(orderers) != 1 && len(orderers) != len(replicas) {
		return nil, fmt.Errorf("core: need 1 shared orderer or one per replica (%d replicas, %d orderers)", len(replicas), len(orderers))
	}
	if cfg.ReadPolicy == nil {
		cfg.ReadPolicy = lb.NewLPRF()
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = 10 * time.Second
	}
	mm := &MultiMaster{
		cfg:      cfg,
		replicas: append([]*Replica(nil), replicas...),
		orderers: orderers,
		policy:   cfg.ReadPolicy,
		waiters:  make(map[uint64]*txnWaiter),
	}
	if cfg.QueryCache != nil {
		mm.qc = cfg.QueryCache.NewScope()
	}
	mm.certifiers = make([]*Certifier, len(replicas))
	for i := range replicas {
		if cfg.Certifier != nil {
			mm.certifiers[i] = cfg.Certifier
		} else {
			mm.certifiers[i] = NewCertifier()
		}
	}
	for i, r := range mm.replicas {
		ord := orderers[0]
		if len(orderers) > 1 {
			ord = orderers[i]
		}
		stop := make(chan struct{})
		mm.stops = append(mm.stops, stop)
		mm.wg.Add(1)
		go mm.applier(r, ord.Subscribe(), mm.certifiers[i], stop)
	}
	return mm, nil
}

// Replicas returns the cluster members.
func (mm *MultiMaster) Replicas() []*Replica {
	return append([]*Replica(nil), mm.replicas...)
}

// Head returns the highest ordered position any replica has applied.
func (mm *MultiMaster) Head() uint64 { return mm.head.Load() }

// Commits returns the number of transactions committed cluster-wide.
func (mm *MultiMaster) Commits() uint64 { return mm.commits.Load() }

// Aborts returns the number of certification aborts.
func (mm *MultiMaster) Aborts() uint64 { return mm.aborts.Load() }

// Close stops the appliers (orderers are owned by the caller).
func (mm *MultiMaster) Close() {
	mm.mu.Lock()
	if mm.stopped {
		mm.mu.Unlock()
		return
	}
	mm.stopped = true
	stops := mm.stops
	mm.mu.Unlock()
	for _, st := range stops {
		close(st)
	}
	mm.wg.Wait()
}

// applier consumes the totally-ordered stream into one replica and runs
// the (replicated or centralized) certifier on its write sets.
func (mm *MultiMaster) applier(r *Replica, in <-chan Ordered, cert *Certifier, stop chan struct{}) {
	defer mm.wg.Done()
	for {
		select {
		case <-stop:
			return
		case ord, ok := <-in:
			if !ok {
				return
			}
			txn, isTxn := ord.Payload.(mmTxn)
			if !isTxn {
				continue
			}
			var outcome txnOutcome
			// Cluster-wide counters tick once per transaction: at the
			// origin replica only.
			count := r.Name() == txn.Origin
			r.snapMu.Lock()
			if txn.WS != nil {
				outcome = mm.certify(cert, ord.Seq, txn, count)
			}
			if outcome.err == nil {
				outcome = mm.apply(r, txn, count)
			}
			r.receivedSeq.Store(ord.Seq)
			r.appliedSeq.Store(ord.Seq)
			r.snapMu.Unlock()
			for {
				h := mm.head.Load()
				if ord.Seq <= h || mm.head.CompareAndSwap(h, ord.Seq) {
					break
				}
			}
			// Invalidate cached results BEFORE notify: the origin applier's
			// notify is what acknowledges the commit to the writing session,
			// and no ack may race its own invalidation. Certified write sets
			// name their tables exactly; DDL flushes its database (empty
			// database: flush everything).
			if mm.qc != nil && count && outcome.err == nil {
				if txn.WS != nil {
					mm.qc.InvalidateTables(txn.WS.Tables(), ord.Seq)
				} else {
					mm.qc.ApplyEvent(engine.Event{
						Seq: ord.Seq, Stmts: []string{txn.DDL}, Database: txn.Database, DDL: true,
					})
				}
			}
			// Stamp the outcome with the transaction's own ordered position.
			// The session must not substitute AppliedSeq() sampled after the
			// ack: the applier may have applied later transactions by then,
			// and an inflated position makes the client believe its write is
			// newer than a subsequent writer's — a phantom session-guarantee
			// violation in recorded histories.
			if outcome.err == nil && outcome.res != nil && outcome.res.AtSeq == 0 {
				outcome.res.AtSeq = ord.Seq
			}
			mm.notify(r, txn.ID, outcome)
		}
	}
}

// certify runs certification on a write set; a write set that fails it
// is aborted.
func (mm *MultiMaster) certify(cert *Certifier, seq uint64, txn mmTxn, count bool) txnOutcome {
	ok, err := cert.Certify(seq, txn.Snapshot, txn.WS)
	if err != nil {
		return txnOutcome{err: err}
	}
	if !ok {
		if count {
			mm.aborts.Add(1)
		}
		return txnOutcome{err: ErrCertificationAbort}
	}
	return txnOutcome{}
}

// apply applies an ordered transaction at r as one binlog event: a
// certified write set, or a schema change by its statement.
func (mm *MultiMaster) apply(r *Replica, txn mmTxn, count bool) txnOutcome {
	if err := r.acquire(); err != nil {
		return txnOutcome{err: err}
	}
	defer r.release()
	r.applyDelay()
	ev := engine.Event{WriteSet: txn.WS, User: txn.User, Database: txn.Database}
	res := &engine.Result{}
	if txn.WS == nil {
		ev.Stmts, ev.WriteSet, ev.DDL = []string{txn.DDL}, &engine.WriteSet{}, true
	} else {
		res.RowsAffected = int64(len(txn.WS.Ops))
	}
	if _, err := r.Engine().ApplyEvents([]engine.Event{ev}); err != nil {
		return txnOutcome{err: err}
	}
	if count {
		mm.commits.Add(1)
	}
	return txnOutcome{res: res}
}

// notify wakes the waiting session when its home replica has processed the
// transaction.
func (mm *MultiMaster) notify(r *Replica, txnID uint64, outcome txnOutcome) {
	mm.mu.Lock()
	w, ok := mm.waiters[txnID]
	if ok && w.home == r.Name() {
		delete(mm.waiters, txnID)
	} else {
		w = nil
	}
	mm.mu.Unlock()
	if w != nil {
		w.ch <- outcome
	}
}

// submitAndWait orders a transaction and waits until the session's home
// replica has applied it.
func (mm *MultiMaster) submitAndWait(ord Orderer, home *Replica, txn mmTxn) (*engine.Result, error) {
	if mm.cfg.QuorumOf > 0 {
		if g, ok := ord.(*GCSOrderer); ok {
			if len(g.View().Members) <= mm.cfg.QuorumOf/2 {
				return nil, ErrNoQuorum
			}
		}
	}
	w := &txnWaiter{home: home.Name(), ch: make(chan txnOutcome, 1)}
	mm.mu.Lock()
	mm.waiters[txn.ID] = w
	mm.mu.Unlock()
	if err := ord.Submit(txn); err != nil {
		mm.mu.Lock()
		delete(mm.waiters, txn.ID)
		mm.mu.Unlock()
		return nil, err
	}
	select {
	case out := <-w.ch:
		return out.res, out.err
	case <-time.After(mm.cfg.CommitTimeout):
		mm.mu.Lock()
		delete(mm.waiters, txn.ID)
		mm.mu.Unlock()
		return nil, fmt.Errorf("%w: no ordering decision after %v (partition or overload)", ErrCommitUncertain, mm.cfg.CommitTimeout)
	}
}

// ordererFor returns the orderer a session on the given replica submits to.
func (mm *MultiMaster) ordererFor(home *Replica) Orderer {
	if len(mm.orderers) == 1 {
		return mm.orderers[0]
	}
	for i, r := range mm.replicas {
		if r == home {
			return mm.orderers[i]
		}
	}
	return mm.orderers[0]
}

// QueryCacheScope exposes the cluster's result cache scope (nil when
// caching is off).
func (mm *MultiMaster) QueryCacheScope() *qcache.Scope { return mm.qc }

// Admission returns the cluster's admission controller (nil when overload
// protection is off).
func (mm *MultiMaster) Admission() *admission.Controller { return mm.cfg.Admission }

// replicaFresh reports whether r currently satisfies the given read
// guarantee for a session whose read floor is floor.
func (mm *MultiMaster) replicaFresh(r *Replica, cons Consistency, floor uint64) bool {
	return fresh(cons, r.AppliedSeq(), floor, mm.head.Load())
}

// pickRead selects a healthy read replica under the given consistency.
func (mm *MultiMaster) pickRead(cons Consistency, floor uint64) (*Replica, error) {
	var candidates []lb.Target
	for _, r := range mm.replicas {
		if r.Healthy() && mm.replicaFresh(r, cons, floor) {
			candidates = append(candidates, r)
		}
	}
	t := mm.policy.Pick(candidates)
	if t == nil {
		return nil, ErrReplicaDown
	}
	return t.(*Replica), nil
}

// readPos samples r's applied position exactly (sampleApplied).
func (mm *MultiMaster) readPos(r *Replica) uint64 { return sampleApplied(r) }

func (mm *MultiMaster) latest() uint64 { return mm.head.Load() }

// pinnable: every replica of a multi-master cluster serves reads alike.
func (mm *MultiMaster) pinnable(*Replica) bool { return true }

// incarnation is constant: positions come from one total order that no
// failover re-aligns.
func (mm *MultiMaster) incarnation() uint64 { return 0 }

// NewConn implements Cluster.
func (mm *MultiMaster) NewConn(user string) (Conn, error) {
	return mm.NewSession(user)
}

// Authenticate implements Cluster: credentials are checked against the
// first healthy replica's engine.
func (mm *MultiMaster) Authenticate(user, password string) error {
	for _, r := range mm.replicas {
		if r.Healthy() {
			return r.Engine().Authenticate(user, password)
		}
	}
	return ErrReplicaDown
}

// Health implements Cluster.
func (mm *MultiMaster) Health() Health {
	h := Health{Topology: "multi-master", Replicas: len(mm.replicas), Head: mm.head.Load()}
	for _, r := range mm.replicas {
		if r.Healthy() {
			h.HealthyReplicas++
		}
		if applied := r.AppliedSeq(); h.Head > applied && h.Head-applied > h.MaxLag {
			h.MaxLag = h.Head - applied
		}
	}
	return h
}

// pickHome assigns a session's home replica (round robin over healthy).
func (mm *MultiMaster) pickHome() (*Replica, error) {
	var candidates []lb.Target
	for _, r := range mm.replicas {
		if r.Healthy() {
			candidates = append(candidates, r)
		}
	}
	t := mm.policy.Pick(candidates)
	if t == nil {
		return nil, ErrReplicaDown
	}
	return t.(*Replica), nil
}
