package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// PartitionStrategy selects how a key maps to a bucket (§2.1: "range
// partitioning, list partitioning and hash partitioning").
type PartitionStrategy int

// Partitioning strategies.
const (
	HashPartition PartitionStrategy = iota
	RangePartition
	ListPartition
)

// PartitionRule maps one table's rows onto virtual buckets by a key column.
// Buckets (not partitions) are the unit of the rule: the routing table's
// assignment vector maps buckets onto partitions, so elasticity moves
// buckets without ever rewriting rules.
type PartitionRule struct {
	Table    string // unqualified table name
	Column   string // partition key column
	Strategy PartitionStrategy
	// Bounds are ascending upper bounds for RangePartition: bucket i holds
	// keys < Bounds[i]; the last bucket holds the rest. Must have
	// nbuckets-1 strictly ascending entries.
	Bounds []sqltypes.Value
	// Lists enumerate the key values per bucket for ListPartition.
	Lists [][]sqltypes.Value
}

// partitionFor maps a key value to a bucket index out of n.
func (r *PartitionRule) partitionFor(v sqltypes.Value, n int) (int, error) {
	switch r.Strategy {
	case HashPartition:
		return int(sqltypes.HashValue(v) % uint64(n)), nil
	case RangePartition:
		for i, b := range r.Bounds {
			if sqltypes.Compare(v, b) < 0 {
				return i, nil
			}
		}
		return len(r.Bounds), nil
	case ListPartition:
		for i, list := range r.Lists {
			for _, lv := range list {
				if sqltypes.Equal(lv, v) {
					return i, nil
				}
			}
		}
		return 0, fmt.Errorf("core: key %v not in any partition list for table %s", v, r.Table)
	}
	return 0, fmt.Errorf("core: unknown partition strategy")
}

// BucketFor maps a key value to its bucket out of nbuckets — the exported
// form the rebalancer uses to filter rows and tail events by bucket with
// exactly the router's arithmetic.
func (r *PartitionRule) BucketFor(v sqltypes.Value, nbuckets int) (int, error) {
	return r.partitionFor(v, nbuckets)
}

// ErrCrossPartitionTxn is returned when an explicit transaction on a
// partitioned cluster touches (or cannot be proven to stay within) a single
// partition: atomic cross-partition commit would need distributed 2PC, which
// this middleware (like most of the systems the paper surveys) does not
// provide. "Adding or removing partial replicas ... is a completely open
// problem" (§5.1). Transactions whose every statement routes to one
// partition by key ARE supported — they run entirely on that partition's
// cluster.
var ErrCrossPartitionTxn = errors.New("core: transactions on partitioned clusters must stay within one partition by key (no 2PC)")

// errRouteRetry is the internal signal that a statement lost a race with a
// routing-table install between snapshotting and taking its write gates; the
// router retries against the fresh table.
var errRouteRetry = errors.New("core: routing epoch changed mid-statement")

// maxRouteRetries bounds how often one statement re-routes after losing
// races with routing installs before giving up with ErrRangeMoved.
const maxRouteRetries = 10

// Partitioned shards writes across sub-clusters by key (Figure 2), with
// scatter-gather reads. Each partition is itself a replicated master-slave
// cluster. The partition map is a versioned, epoch-stamped RouteTable that
// sessions snapshot per statement — live migrations install successor
// tables while traffic continues.
type Partitioned struct {
	// adm gates statements at the partition router; in layered deployments
	// attach the controller HERE and leave the per-partition clusters
	// unguarded, or every statement pays admission twice.
	adm *admission.Controller

	// mu is the routing lock: it serializes routing-table installs. The
	// repllint lockedcall *Epoch convention keys off it.
	mu    sync.Mutex
	table atomic.Pointer[RouteTable]

	gateMu sync.Mutex
	gates  map[*MasterSlave]*sync.RWMutex

	stateMu   sync.Mutex
	allParts  map[*MasterSlave]bool
	marks     map[*MasterSlave]bool
	markCount int
	migrating int
}

// NewPartitioned builds a partitioned cluster from per-partition clusters
// and table rules, with one bucket per partition (the static topology the
// paper describes; use NewElasticPartitioned for migratable bucket counts).
func NewPartitioned(partitions []*MasterSlave, rules []*PartitionRule) (*Partitioned, error) {
	return NewElasticPartitioned(partitions, rules, len(partitions))
}

// NewElasticPartitioned builds a partitioned cluster routing through
// nbuckets virtual buckets spread contiguously across the partitions. More
// buckets than partitions means Split/Migrate/Merge can move fractions of a
// partition's key space. All rules are validated against the bucket count
// (typed ErrPartitionConfig) — the same validation reruns at every
// routing-table install.
func NewElasticPartitioned(partitions []*MasterSlave, rules []*PartitionRule, nbuckets int) (*Partitioned, error) {
	if nbuckets <= 0 {
		nbuckets = len(partitions)
	}
	rm := make(map[string]*PartitionRule, len(rules))
	for _, r := range rules {
		if rm[r.Table] != nil {
			return nil, fmt.Errorf("%w: duplicate rule for table %s", ErrPartitionConfig, r.Table)
		}
		rm[r.Table] = r
	}
	assign := make([]int, nbuckets)
	for b := range assign {
		assign[b] = b * len(partitions) / max(nbuckets, 1)
	}
	rt := &RouteTable{epoch: 1, parts: partitions, nbuckets: nbuckets, assign: assign, rules: rm}
	if err := rt.validate(); err != nil {
		return nil, err
	}
	pc := &Partitioned{
		gates:    make(map[*MasterSlave]*sync.RWMutex),
		allParts: make(map[*MasterSlave]bool),
		marks:    make(map[*MasterSlave]bool),
	}
	pc.table.Store(rt)
	pc.registerParts(rt)
	return pc, nil
}

// SetAdmission attaches an overload controller to the partition router.
// Call it before serving traffic (it is not synchronized with sessions).
func (pc *Partitioned) SetAdmission(c *admission.Controller) { pc.adm = c }

// Admission returns the router's admission controller (nil when off).
func (pc *Partitioned) Admission() *admission.Controller { return pc.adm }

// Partitions returns the sub-clusters of the current routing table.
func (pc *Partitioned) Partitions() []*MasterSlave {
	return pc.table.Load().Partitions()
}

// ForgetPartition drops a retired sub-cluster from the router's ownership
// bookkeeping (Close will no longer touch it). The rebalancer calls this
// after a Merge hands the drained partition back to the caller.
func (pc *Partitioned) ForgetPartition(p *MasterSlave) {
	pc.SetContaminated(p, false)
	pc.stateMu.Lock()
	delete(pc.allParts, p)
	pc.stateMu.Unlock()
	pc.gateMu.Lock()
	delete(pc.gates, p)
	pc.gateMu.Unlock()
}

// Close shuts down every partition that was ever a member.
func (pc *Partitioned) Close() {
	pc.stateMu.Lock()
	parts := make([]*MasterSlave, 0, len(pc.allParts))
	for p := range pc.allParts {
		parts = append(parts, p)
	}
	pc.stateMu.Unlock()
	for _, p := range parts {
		p.Close()
	}
}

// NewConn implements Cluster.
func (pc *Partitioned) NewConn(user string) (Conn, error) {
	return pc.NewSession(user), nil
}

// Authenticate implements Cluster: credentials are checked against the
// first partition (schema statements broadcast, so user state is uniform
// when provisioned uniformly).
func (pc *Partitioned) Authenticate(user, password string) error {
	return pc.table.Load().parts[0].Authenticate(user, password)
}

// Health implements Cluster, aggregated over every partition.
func (pc *Partitioned) Health() Health {
	h := Health{Topology: "partitioned"}
	for _, p := range pc.table.Load().parts {
		ph := p.Health()
		h.Replicas += ph.Replicas
		h.HealthyReplicas += ph.HealthyReplicas
		if ph.Head > h.Head {
			h.Head = ph.Head
		}
		if ph.MaxLag > h.MaxLag {
			h.MaxLag = ph.MaxLag
		}
	}
	return h
}

// PSession is a client session on a partitioned cluster. Sub-sessions are
// opened lazily per partition, with the session's settings replayed onto
// late arrivals.
type PSession struct {
	routedSession
	pc *Partitioned
	mu sync.Mutex
	// Explicit transactions bind lazily to the partition of their first
	// keyed statement and must stay there (single-partition transactions;
	// cross-partition commits would need 2PC). The bound owner is tracked
	// by identity — not index — because installs reindex partitions; the
	// touched buckets are revalidated against the live table at every
	// statement and at COMMIT, surfacing ErrRangeMoved when a migration
	// moved them mid-transaction.
	inTxn      bool
	txnSub     *MSSession
	txnOwner   *MasterSlave
	txnEpoch   uint64
	txnBuckets map[int]bool
}

// NewSession opens a session on the partitioned cluster.
func (pc *Partitioned) NewSession(user string) *PSession {
	ps := &PSession{pc: pc}
	ps.routedSession = newRoutedSession(ps, user, pc.adm, pc.table.Load().parts[0].cfg)
	return ps
}

// Close releases all per-partition sessions.
func (ps *PSession) Close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closeSubs()
}

// ExecStmtArgs routes a statement by partition key, with any ? arguments
// inlined first.
func (ps *PSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error) {
	st, err := bindArgs(st, args)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch st.(type) {
	case *sqlparse.BeginTxn:
		if ps.inTxn {
			return nil, fmt.Errorf("%w: transaction already in progress", ErrTxnState)
		}
		// Bind lazily: the partition is unknown until the first keyed
		// statement.
		ps.inTxn = true
		ps.txnSub = nil
		ps.txnOwner = nil
		ps.txnBuckets = nil
		return &engine.Result{}, nil
	case *sqlparse.CommitTxn, *sqlparse.RollbackTxn:
		if !ps.inTxn {
			return nil, fmt.Errorf("%w: no transaction in progress", ErrTxnState)
		}
		sub, owner, buckets := ps.txnSub, ps.txnOwner, ps.txnBuckets
		ps.inTxn = false
		ps.txnSub = nil
		ps.txnOwner = nil
		ps.txnBuckets = nil
		if sub == nil {
			return &engine.Result{}, nil // empty transaction
		}
		if _, isCommit := st.(*sqlparse.CommitTxn); isCommit {
			return ps.commitTxn(sub, owner, buckets)
		}
		return sub.ExecStmt(st)
	}
	if res, ok, err := ps.setting(st, ps.forward); ok {
		return res, err
	}
	slot, _, err := ps.admit(ps.class(st, ps.inTxn))
	if err != nil {
		return nil, err
	}
	res, err := ps.execRouted(st)
	slot.Done(err)
	return res, err
}

// execRouted dispatches an admitted statement to the partition layer,
// re-routing (bounded) when the statement loses a race with a routing
// install between snapshot and gate acquisition.
func (ps *PSession) execRouted(st sqlparse.Statement) (*engine.Result, error) {
	if ps.inTxn {
		return ps.execInTxn(st)
	}
	for attempt := 0; attempt < maxRouteRetries; attempt++ {
		res, err := ps.execOnce(st)
		if !errors.Is(err, errRouteRetry) {
			return res, err
		}
	}
	return nil, fmt.Errorf("%w: statement kept losing races with routing installs", ErrRangeMoved)
}

// execOnce runs one routing attempt under a pinned routing snapshot.
func (ps *PSession) execOnce(st sqlparse.Statement) (*engine.Result, error) {
	rt := ps.pc.snapshotTable()
	defer rt.release()
	switch s := st.(type) {
	case *sqlparse.Insert:
		return ps.execInsert(rt, s)
	case *sqlparse.Update:
		return ps.routeByWhere(rt, s, s.Table.Name, s.Where)
	case *sqlparse.Delete:
		return ps.routeByWhere(rt, s, s.Table.Name, s.Where)
	case *sqlparse.Select:
		return ps.execSelect(rt, s)
	default:
		// DDL and everything else goes everywhere.
		if st.IsRead() {
			return ps.fanout(rt, false, func(int) sqlparse.Statement { return st })
		}
		return ps.fanout(rt, true, func(int) sqlparse.Statement { return st })
	}
}

// acquireGates takes the shared write gates of the given partitions (in
// table order) and revalidates the routing snapshot afterwards: a fence that
// slipped in between the snapshot and the gates means the statement must
// re-route, signalled as errRouteRetry.
func (ps *PSession) acquireGates(rt *RouteTable, parts []*MasterSlave) (func(), error) {
	ordered := append([]*MasterSlave(nil), parts...)
	sort.Slice(ordered, func(i, j int) bool { return rt.PartIndex(ordered[i]) < rt.PartIndex(ordered[j]) })
	held := make([]*sync.RWMutex, 0, len(ordered))
	for _, p := range ordered {
		g := ps.pc.gate(p)
		g.RLock()
		held = append(held, g)
	}
	release := func() {
		for _, g := range held {
			g.RUnlock()
		}
	}
	if ps.pc.table.Load() != rt {
		release()
		return nil, errRouteRetry
	}
	return release, nil
}

// commitTxn commits a bound transaction under the owner partition's write
// gate, first revalidating that every touched bucket is still owned by the
// bound partition. A bucket moved by a migration poisons the transaction
// with the retryable ErrRangeMoved (the client replays it against the new
// owner); the gate ensures the commit's binlog event lands before any
// cutover's frozen head.
func (ps *PSession) commitTxn(sub *MSSession, owner *MasterSlave, buckets map[int]bool) (*engine.Result, error) {
	for attempt := 0; attempt < maxRouteRetries; attempt++ {
		rt := ps.pc.snapshotTable()
		stale := rt.PartIndex(owner) < 0
		if !stale {
			for b := range buckets {
				if rt.Owner(b) != owner {
					stale = true
					break
				}
			}
		}
		if stale {
			rt.release()
			_, _ = sub.ExecStmt(&sqlparse.RollbackTxn{})
			return nil, fmt.Errorf("%w: transaction wrote to a key range that has since migrated", ErrRangeMoved)
		}
		g := ps.pc.gate(owner)
		g.RLock()
		if ps.pc.table.Load() != rt {
			g.RUnlock()
			rt.release()
			continue
		}
		res, err := sub.ExecStmt(&sqlparse.CommitTxn{})
		g.RUnlock()
		rt.release()
		return res, err
	}
	_, _ = sub.ExecStmt(&sqlparse.RollbackTxn{})
	return nil, fmt.Errorf("%w: commit kept losing races with routing installs", ErrRangeMoved)
}

// poisonTxn rolls the bound transaction back after a migration moved one of
// its touched buckets and surfaces the typed retryable error.
func (ps *PSession) poisonTxn() (*engine.Result, error) {
	sub := ps.txnSub
	ps.inTxn = false
	ps.txnSub = nil
	ps.txnOwner = nil
	ps.txnBuckets = nil
	if sub != nil {
		_, _ = sub.ExecStmt(&sqlparse.RollbackTxn{})
	}
	return nil, fmt.Errorf("%w: transaction touched a key range that migrated mid-flight", ErrRangeMoved)
}

// execInTxn routes a statement inside a single-partition transaction: every
// keyed statement must resolve to the same partition, and the first one
// binds the transaction (forwarding the deferred BEGIN). Reads that touch
// no partitioned table route to the bound partition — or, before binding,
// to partition 0 without binding (they see committed state only, which is
// sound because the transaction has written nothing yet).
func (ps *PSession) execInTxn(st sqlparse.Statement) (*engine.Result, error) {
	rt := ps.pc.snapshotTable()
	defer rt.release()
	if agnosticRead(rt, st) {
		if ps.txnSub != nil {
			return ps.txnSub.ExecStmt(st)
		}
		sub, err := ps.sub(rt.parts[0])
		if err != nil {
			return nil, err
		}
		return sub.ExecStmt(st)
	}
	owner, buckets, ok := ownerOf(rt, st)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrCrossPartitionTxn, st.SQL())
	}
	if ps.txnSub == nil {
		sub, err := ps.sub(owner)
		if err != nil {
			return nil, err
		}
		if _, err := sub.ExecStmt(&sqlparse.BeginTxn{}); err != nil {
			return nil, err
		}
		ps.txnSub = sub
		ps.txnOwner = owner
		ps.txnEpoch = rt.Epoch()
		ps.txnBuckets = make(map[int]bool)
	} else if owner != ps.txnOwner {
		if rt.Epoch() != ps.txnEpoch {
			// The routing changed under the transaction: the statement's
			// bucket (or the whole bound partition) migrated away.
			return ps.poisonTxn()
		}
		return nil, fmt.Errorf("%w: statement routes to a different partition than the transaction is bound to", ErrCrossPartitionTxn)
	}
	if rt.Epoch() != ps.txnEpoch {
		for b := range ps.txnBuckets {
			if rt.Owner(b) != ps.txnOwner {
				return ps.poisonTxn()
			}
		}
		ps.txnEpoch = rt.Epoch()
	}
	for _, b := range buckets {
		ps.txnBuckets[b] = true
	}
	return ps.txnSub.ExecStmt(st)
}

// agnosticRead reports whether st is a read that touches no partitioned
// table (SELECT with no FROM, or from a fully replicated table) and may
// therefore run on any partition.
func agnosticRead(rt *RouteTable, st sqlparse.Statement) bool {
	s, ok := st.(*sqlparse.Select)
	if !ok || !st.IsRead() {
		return false
	}
	if s.NoTable {
		return true
	}
	return rt.Rule(s.From.Name) == nil && (s.Join == nil || rt.Rule(s.Join.Table.Name) == nil)
}

// ownerOf resolves the single partition a statement provably routes to
// under rt, along with the buckets it touches. Writes to unpartitioned
// (fully replicated) tables never resolve: they must replicate everywhere
// and therefore cannot join a single-partition transaction.
func ownerOf(rt *RouteTable, st sqlparse.Statement) (*MasterSlave, []int, bool) {
	keyed := func(table string, where sqlparse.Expr) (*MasterSlave, []int, bool) {
		rule := rt.Rule(table)
		if rule == nil {
			return nil, nil, false
		}
		v, ok := extractKeyEquality(where, rule.Column)
		if !ok {
			return nil, nil, false
		}
		b, err := rt.bucketOf(rule, v)
		if err != nil {
			return nil, nil, false
		}
		return rt.Owner(b), []int{b}, true
	}
	switch s := st.(type) {
	case *sqlparse.Insert:
		rule := rt.Rule(s.Table.Name)
		if rule == nil {
			return nil, nil, false
		}
		keyIdx := -1
		for i, c := range s.Columns {
			if equalFoldASCII(c, rule.Column) {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, nil, false
		}
		var owner *MasterSlave
		var buckets []int
		for _, row := range s.Rows {
			lit, ok := row[keyIdx].(*sqlparse.Literal)
			if !ok {
				return nil, nil, false
			}
			b, err := rt.bucketOf(rule, lit.Val)
			if err != nil {
				return nil, nil, false
			}
			p := rt.Owner(b)
			if owner != nil && p != owner {
				return nil, nil, false // rows split across partitions
			}
			owner = p
			buckets = append(buckets, b)
		}
		if owner == nil {
			return nil, nil, false
		}
		return owner, buckets, true
	case *sqlparse.Update:
		return keyed(s.Table.Name, s.Where)
	case *sqlparse.Delete:
		return keyed(s.Table.Name, s.Where)
	case *sqlparse.Select:
		if s.NoTable {
			return nil, nil, false
		}
		return keyed(s.From.Name, s.Where)
	}
	return nil, nil, false
}

// fanout runs a per-partition statement on every partition of rt in
// parallel, merging results. When gated, the partitions' write gates are
// held shared across the execution (binlog-producing broadcasts must not
// slip past a migration fence unnoticed).
func (ps *PSession) fanout(rt *RouteTable, gated bool, stmtFor func(i int) sqlparse.Statement) (*engine.Result, error) {
	subs := make([]*MSSession, len(rt.parts))
	for i, p := range rt.parts {
		s, err := ps.sub(p)
		if err != nil {
			return nil, err
		}
		subs[i] = s
	}
	var release func()
	if gated {
		rel, err := ps.acquireGates(rt, rt.parts)
		if err != nil {
			return nil, err
		}
		release = rel
	}
	type out struct {
		res *engine.Result
		err error
	}
	outs := make([]out, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := subs[i].ExecStmt(stmtFor(i))
			outs[i] = out{res: r, err: err}
		}(i)
	}
	wg.Wait()
	if release != nil {
		release()
	}
	merged := &engine.Result{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		merged.RowsAffected += o.res.RowsAffected
		if merged.Columns == nil {
			merged.Columns = o.res.Columns
		}
		merged.Rows = append(merged.Rows, o.res.Rows...)
		if o.res.LastInsertID > merged.LastInsertID {
			merged.LastInsertID = o.res.LastInsertID
		}
	}
	return merged, nil
}

// execInsert splits rows by partition key and runs the per-partition
// inserts in parallel ("updates can be done in parallel to partitioned data
// segments", §2.1), under the involved partitions' write gates.
func (ps *PSession) execInsert(rt *RouteTable, ins *sqlparse.Insert) (*engine.Result, error) {
	rule := rt.Rule(ins.Table.Name)
	if rule == nil {
		// Unpartitioned table: replicate everywhere.
		return ps.fanout(rt, true, func(int) sqlparse.Statement { return ins })
	}
	keyIdx := -1
	for i, c := range ins.Columns {
		if equalFoldASCII(c, rule.Column) {
			keyIdx = i
			break
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("%w: INSERT into partitioned table %s must supply key column %s", ErrUnsupportedStatement, ins.Table.Name, rule.Column)
	}
	groups := make(map[int][][]sqlparse.Expr)
	for _, row := range ins.Rows {
		lit, ok := row[keyIdx].(*sqlparse.Literal)
		if !ok {
			return nil, fmt.Errorf("%w: partition key must be a literal in INSERT", ErrUnsupportedStatement)
		}
		b, err := rt.bucketOf(rule, lit.Val)
		if err != nil {
			return nil, err
		}
		groups[rt.OwnerIndex(b)] = append(groups[rt.OwnerIndex(b)], row)
	}
	type task struct {
		sub  *MSSession
		stmt *sqlparse.Insert
	}
	tasks := make([]task, 0, len(groups))
	parts := make([]*MasterSlave, 0, len(groups))
	for p, rows := range groups {
		owner := rt.parts[p]
		sub, err := ps.sub(owner)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{sub: sub, stmt: &sqlparse.Insert{Table: ins.Table, Columns: ins.Columns, Rows: rows}})
		parts = append(parts, owner)
	}
	release, err := ps.acquireGates(rt, parts)
	if err != nil {
		return nil, err
	}
	total := &engine.Result{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, t := range tasks {
		wg.Add(1)
		go func(t task) {
			defer wg.Done()
			res, err := t.sub.ExecStmt(t.stmt)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			if err == nil {
				total.RowsAffected += res.RowsAffected
				if res.LastInsertID > total.LastInsertID {
					total.LastInsertID = res.LastInsertID
				}
			}
		}(t)
	}
	wg.Wait()
	release()
	if firstErr != nil {
		return nil, firstErr
	}
	return total, nil
}

// routeByWhere routes keyed statements to one partition, scattering
// otherwise. Unkeyed writes to a partitioned table are rejected with the
// retryable ErrRangeMoved while a migration is live: a broadcast write
// racing the binlog tail stream would apply twice on the destination.
func (ps *PSession) routeByWhere(rt *RouteTable, st sqlparse.Statement, table string, where sqlparse.Expr) (*engine.Result, error) {
	rule := rt.Rule(table)
	if rule == nil {
		return ps.fanout(rt, true, func(int) sqlparse.Statement { return st })
	}
	if v, ok := extractKeyEquality(where, rule.Column); ok {
		b, err := rt.bucketOf(rule, v)
		if err != nil {
			return nil, err
		}
		owner := rt.Owner(b)
		sub, err := ps.sub(owner)
		if err != nil {
			return nil, err
		}
		release, err := ps.acquireGates(rt, []*MasterSlave{owner})
		if err != nil {
			return nil, err
		}
		defer release()
		return sub.ExecStmt(st)
	}
	if ps.pc.Migrating() || ps.pc.contaminatedAny() {
		return nil, fmt.Errorf("%w: unkeyed write to partitioned table %s while a migration holds its rows on two partitions", ErrRangeMoved, table)
	}
	return ps.fanout(rt, true, func(int) sqlparse.Statement { return st })
}

// execSelect routes keyed selects to one partition and scatter-gathers the
// rest, merging rows and re-applying ORDER BY / LIMIT / aggregates at the
// middleware ("read latency can also be improved by exploiting intra-query
// parallelism", §2.1). Reads take no gates — they never block on a
// migration cutover. Scatter fragments sent to a contaminated partition
// (one physically holding rows of buckets it does not own, mid-migration)
// get an ownership predicate pushed down so no row is counted twice.
func (ps *PSession) execSelect(rt *RouteTable, sel *sqlparse.Select) (*engine.Result, error) {
	if sel.NoTable {
		sub, err := ps.sub(rt.parts[0])
		if err != nil {
			return nil, err
		}
		return sub.ExecStmt(sel)
	}
	rule := rt.Rule(sel.From.Name)
	if rule != nil {
		if v, ok := extractKeyEquality(sel.Where, rule.Column); ok {
			b, err := rt.bucketOf(rule, v)
			if err != nil {
				return nil, err
			}
			sub, err := ps.sub(rt.Owner(b))
			if err != nil {
				return nil, err
			}
			return sub.ExecStmt(sel)
		}
	} else {
		// Unpartitioned (fully replicated) table: any partition serves it.
		sub, err := ps.sub(rt.parts[0])
		if err != nil {
			return nil, err
		}
		return sub.ExecStmt(sel)
	}

	// Scatter: strip LIMIT/OFFSET (re-applied after merge); sub-queries
	// keep ORDER BY so per-partition results arrive sorted.
	scatter := *sel
	scatter.Limit = -1
	scatter.Offset = 0

	hasAgg := false
	for _, it := range sel.Items {
		if !it.Star {
			if f, ok := it.Expr.(*sqlparse.FuncExpr); ok {
				switch f.Name {
				case "COUNT", "SUM", "MIN", "MAX":
					hasAgg = true
				case "AVG":
					return nil, fmt.Errorf("%w: AVG over scattered partitions; use SUM and COUNT", ErrUnsupportedStatement)
				}
			}
		}
	}
	if hasAgg && len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("%w: GROUP BY over scattered partitions", ErrUnsupportedStatement)
	}

	contaminated := ps.pc.contaminatedAny()
	merged, err := ps.fanout(rt, false, func(i int) sqlparse.Statement {
		if !contaminated || !ps.pc.contaminated(rt.parts[i]) {
			return &scatter
		}
		frag := scatter
		frag.Where = andExpr(ownershipExpr(rule, rt.nbuckets, rt.OwnedBuckets(i)), scatter.Where)
		return &frag
	})
	if err != nil {
		return nil, err
	}
	if hasAgg {
		return mergeAggregates(sel, merged)
	}
	if len(sel.OrderBy) > 0 {
		if err := sortResult(merged, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if sel.Offset > 0 {
		if sel.Offset >= int64(len(merged.Rows)) {
			merged.Rows = nil
		} else {
			merged.Rows = merged.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && int64(len(merged.Rows)) > sel.Limit {
		merged.Rows = merged.Rows[:sel.Limit]
	}
	return merged, nil
}

// mergeAggregates folds per-partition aggregate rows into one.
func mergeAggregates(sel *sqlparse.Select, merged *engine.Result) (*engine.Result, error) {
	out := &engine.Result{Columns: merged.Columns}
	row := make(sqltypes.Row, len(sel.Items))
	for i, it := range sel.Items {
		f, _ := it.Expr.(*sqlparse.FuncExpr)
		for _, r := range merged.Rows {
			v := r[i]
			switch {
			case row[i].IsNull():
				row[i] = v
			case f != nil && (f.Name == "COUNT" || f.Name == "SUM"):
				sum, err := sqltypes.Arith("+", row[i], v)
				if err != nil {
					return nil, err
				}
				row[i] = sum
			case f != nil && f.Name == "MIN":
				if sqltypes.Compare(v, row[i]) < 0 {
					row[i] = v
				}
			case f != nil && f.Name == "MAX":
				if sqltypes.Compare(v, row[i]) > 0 {
					row[i] = v
				}
			}
		}
	}
	out.Rows = []sqltypes.Row{row}
	return out, nil
}

// sortResult re-sorts merged rows by ORDER BY columns that appear in the
// projection.
func sortResult(res *engine.Result, keys []sqlparse.OrderItem) error {
	idx := make([]int, 0, len(keys))
	desc := make([]bool, 0, len(keys))
	for _, k := range keys {
		cr, ok := k.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return fmt.Errorf("core: scattered ORDER BY must use plain columns")
		}
		found := -1
		for i, c := range res.Columns {
			if equalFoldASCII(c, cr.Name) {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("core: scattered ORDER BY column %q must be selected", cr.Name)
		}
		idx = append(idx, found)
		desc = append(desc, k.Desc)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for k, col := range idx {
			c := sqltypes.Compare(res.Rows[i][col], res.Rows[j][col])
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// extractKeyEquality finds `column = literal` in an AND-connected WHERE.
func extractKeyEquality(e sqlparse.Expr, column string) (sqltypes.Value, bool) {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND":
			if v, ok := extractKeyEquality(x.Left, column); ok {
				return v, true
			}
			return extractKeyEquality(x.Right, column)
		case "=":
			if cr, ok := x.Left.(*sqlparse.ColumnRef); ok && equalFoldASCII(cr.Name, column) {
				if lit, ok := x.Right.(*sqlparse.Literal); ok {
					return lit.Val, true
				}
			}
			if cr, ok := x.Right.(*sqlparse.ColumnRef); ok && equalFoldASCII(cr.Name, column) {
				if lit, ok := x.Left.(*sqlparse.Literal); ok {
					return lit.Val, true
				}
			}
		}
	}
	return sqltypes.Null, false
}

// equalFoldASCII compares identifiers case-insensitively.
func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
