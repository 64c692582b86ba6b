// Package elastic makes the partitioned cluster reshape itself without
// downtime: live bucket migration between sub-clusters (split, merge,
// migrate) and load-driven read-replica autoscaling. The paper treats the
// partitioned "RAID-0" topology and replica counts as static construction
// choices while its own provisioning discussion assumes capacity follows
// load; this package closes that gap on top of the pieces that already
// exist — checkpoint backups for state movement, the binlog for tailing,
// and the versioned routing table for atomic cutover.
package elastic

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// RebalancerConfig tunes live migrations. The zero value is usable.
type RebalancerConfig struct {
	// TailBatch is how many binlog events each tail read ships (0 = 256).
	TailBatch int
	// TailDelay, when set, sleeps between tail rounds and caps the tail at
	// TailBatch events per TailDelay — a throttle bounding the migration's
	// apply pressure on the destination (at the cost of a longer catch-up
	// phase). The cap is a rate over the whole stream, so a round that
	// overslept catches up on the batches it missed.
	TailDelay time.Duration
	// CatchupThreshold is the tail gap (events) below which the migration
	// stops streaming and fences for the final drain (0 = 16).
	CatchupThreshold uint64
	// CatchupTimeout bounds the streaming phase (0 = 30s).
	CatchupTimeout time.Duration
	// FenceTimeout bounds the in-fence final drain and destination slave
	// catch-up — the write-stall budget (0 = 5s).
	FenceTimeout time.Duration
	// QuiesceTimeout bounds waiting for readers of the superseded routing
	// table before scavenging moved rows (0 = 10s).
	QuiesceTimeout time.Duration
}

func (c *RebalancerConfig) defaults() {
	if c.TailBatch <= 0 {
		c.TailBatch = 256
	}
	if c.CatchupThreshold == 0 {
		c.CatchupThreshold = 16
	}
	if c.CatchupTimeout <= 0 {
		c.CatchupTimeout = 30 * time.Second
	}
	if c.FenceTimeout <= 0 {
		c.FenceTimeout = 5 * time.Second
	}
	if c.QuiesceTimeout <= 0 {
		c.QuiesceTimeout = 10 * time.Second
	}
}

// Rebalancer moves virtual buckets between the sub-clusters of a
// Partitioned cluster while it serves traffic. The protocol, per
// migration:
//
//  1. snapshot the source (hot backup at a binlog position),
//  2. seed or copy the destination and stream the binlog tail while
//     writes continue — never beyond the source's SurvivableSeq, so a
//     source master kill mid-stream fails over and the migration resumes
//     from its contiguous prefix without re-cloning,
//  3. fence writes on the source (reads never block), drain the tail to
//     the frozen head, wait destination slaves level, and atomically
//     install the successor routing table,
//  4. after the superseded table quiesces, scavenge moved rows.
//
// Any failure before step 3's install aborts cleanly: the routing epoch
// never advances and the source keeps serving.
type Rebalancer struct {
	pc  *core.Partitioned
	cfg RebalancerConfig

	mu sync.Mutex // one migration at a time

	started   atomic.Uint64
	completed atomic.Uint64
	aborted   atomic.Uint64
	resumed   atomic.Uint64
	clones    atomic.Uint64
	moved     atomic.Uint64
}

// NewRebalancer builds a rebalancer for the cluster.
func NewRebalancer(pc *core.Partitioned, cfg RebalancerConfig) *Rebalancer {
	cfg.defaults()
	return &Rebalancer{pc: pc, cfg: cfg}
}

// Completed returns how many migrations finished.
func (r *Rebalancer) Completed() uint64 { return r.completed.Load() }

// Aborted returns how many migrations aborted without touching routing.
func (r *Rebalancer) Aborted() uint64 { return r.aborted.Load() }

// Resumed counts source-master changes survived mid-tail (failover resume).
func (r *Rebalancer) Resumed() uint64 { return r.resumed.Load() }

// Clones counts full snapshot clones taken (a resume must not re-clone).
func (r *Rebalancer) Clones() uint64 { return r.clones.Load() }

// Migrate moves the given buckets to dest, which may be a fresh sub-cluster
// (not yet routed; it is seeded from a snapshot) or an existing member (it
// receives a filtered row copy). All buckets must currently be owned by one
// partition — the fence is per-partition.
func (r *Rebalancer) Migrate(buckets []int, dest *core.MasterSlave) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.migrate(buckets, dest, false)
}

// Split moves the upper half of partition srcIdx's buckets to dest
// (fresh or existing).
func (r *Rebalancer) Split(srcIdx int, dest *core.MasterSlave) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt := r.pc.RouteTable()
	owned := rt.OwnedBuckets(srcIdx)
	if len(owned) < 2 {
		return fmt.Errorf("elastic: partition %d owns %d bucket(s); nothing to split", srcIdx, len(owned))
	}
	return r.migrate(owned[len(owned)/2:], dest, false)
}

// Merge migrates all of partition fromIdx's buckets into partition intoIdx
// and drops the emptied partition from routing in the same install. The
// retired sub-cluster is returned still running (drained of routing but
// not of data); the caller owns closing it.
func (r *Rebalancer) Merge(fromIdx, intoIdx int) (*core.MasterSlave, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt := r.pc.RouteTable()
	parts := rt.Partitions()
	if fromIdx == intoIdx || fromIdx < 0 || intoIdx < 0 || fromIdx >= len(parts) || intoIdx >= len(parts) {
		return nil, fmt.Errorf("elastic: cannot merge partition %d into %d of %d", fromIdx, intoIdx, len(parts))
	}
	from, into := parts[fromIdx], parts[intoIdx]
	if err := r.migrate(rt.OwnedBuckets(fromIdx), into, true); err != nil {
		return nil, err
	}
	r.pc.ForgetPartition(from)
	return from, nil
}

// migrate runs one bucket move. dropEmpty removes partitions emptied by the
// install (the merge path). Caller holds r.mu.
func (r *Rebalancer) migrate(buckets []int, dest *core.MasterSlave, dropEmpty bool) error {
	if len(buckets) == 0 {
		return fmt.Errorf("elastic: no buckets to migrate")
	}
	rt := r.pc.RouteTable()
	src, err := singleOwner(rt, buckets)
	if err != nil {
		return err
	}
	if src == dest {
		return fmt.Errorf("elastic: source and destination are the same partition")
	}
	fresh := rt.PartIndex(dest) < 0
	if fresh && dropEmpty {
		return fmt.Errorf("elastic: merge destination must already be routed")
	}

	r.started.Add(1)
	r.pc.BeginMigration()
	defer r.pc.EndMigration()
	abort := func(err error) error {
		r.aborted.Add(1)
		return err
	}

	// 1. Snapshot the source at a binlog position.
	b, err := src.Master().Engine().Dump(core.FaithfulBackup)
	if err != nil {
		return abort(fmt.Errorf("elastic: source snapshot: %w", err))
	}
	r.clones.Add(1)

	// 2. Seed or copy the destination. A fresh destination becomes a full
	// clone (its binlog reset so destination head tracks applied source
	// position); an existing one receives only the moving buckets' rows as
	// write-sets, and is marked contaminated until it owns them.
	var tail tailer
	if fresh {
		if err := dest.SeedFrom(b); err != nil {
			return abort(fmt.Errorf("elastic: seed destination: %w", err))
		}
		// Both sides will physically hold the moving rows around cutover.
		r.pc.SetContaminated(dest, true)
		tail = &cloneTail{dest: dest}
	} else {
		r.pc.SetContaminated(dest, true)
		ft := &filteredTail{
			dest:     dest,
			rule:     func(table string) *core.PartitionRule { return rt.Rule(table) },
			nbuckets: rt.NumBuckets(),
			moving:   bucketSet(buckets),
			keyIdx:   keyIndexes(b, rt),
			cursor:   b.AtSeq,
		}
		if err := ft.copySnapshot(b); err != nil {
			r.pc.SetContaminated(dest, false)
			return abort(fmt.Errorf("elastic: filtered copy: %w", err))
		}
		tail = ft
	}
	r.pc.SetContaminated(src, true)
	cleanupMarks := func() {
		r.pc.SetContaminated(src, false)
		r.pc.SetContaminated(dest, false)
	}

	// 3. Stream the binlog tail while writes continue, capped at the
	// source's survivable position so a mid-stream master kill resumes
	// from the contiguous prefix after failover.
	cursor := b.AtSeq
	lastMaster := src.Master().Name()
	streamStart := time.Now()
	deadline := streamStart.Add(r.cfg.CatchupTimeout)
	for {
		if r.cfg.TailDelay > 0 {
			time.Sleep(r.cfg.TailDelay)
		}
		if now := src.Master().Name(); now != lastMaster {
			lastMaster = now
			r.resumed.Add(1)
		}
		head := src.MasterSeq()
		if head-cursor <= r.cfg.CatchupThreshold {
			break // close enough: fence for the final drain
		}
		if time.Now().After(deadline) {
			cleanupMarks()
			return abort(fmt.Errorf("elastic: tail did not catch up within %v (gap %d)", r.cfg.CatchupTimeout, head-cursor))
		}
		if !dest.Master().Healthy() {
			cleanupMarks()
			return abort(fmt.Errorf("elastic: destination master died mid-migration; aborting with routing unchanged"))
		}
		capSeq := src.SurvivableSeq()
		if cursor >= capSeq {
			// Nothing survivable to ship yet: wait for source slaves.
			time.Sleep(500 * time.Microsecond)
			continue
		}
		// Unthrottled, a round ships one batch. TailDelay throttles to a
		// rate instead, TailBatch events per TailDelay of streaming time: a
		// round ships what the rounds since the snapshot were allowed and
		// have not shipped. One batch per throttled round would let timer
		// overshoot and apply time set the rate, well below the configured
		// one, and writers could outrun it forever.
		limit := min(capSeq, cursor+uint64(r.cfg.TailBatch))
		if r.cfg.TailDelay > 0 {
			rounds := uint64(time.Since(streamStart) / r.cfg.TailDelay)
			limit = min(capSeq, b.AtSeq+rounds*uint64(r.cfg.TailBatch))
		}
		for cursor < limit {
			n, next, err := r.shipBatch(src, tail, cursor, limit)
			if err != nil {
				cleanupMarks()
				return abort(fmt.Errorf("elastic: tail stream: %w", err))
			}
			if n == 0 {
				time.Sleep(500 * time.Microsecond)
				break
			}
			cursor = next
		}
	}

	// 4. Fence, drain to the frozen head, wait destination level, install.
	moved := append([]int(nil), buckets...)
	prev, installed, err := r.pc.InstallRouting(
		func(cur *core.RouteTable) (*core.RouteTable, error) {
			for _, bk := range moved {
				if cur.Owner(bk) != src {
					return nil, fmt.Errorf("elastic: bucket %d changed owner mid-migration", bk)
				}
			}
			return cur.WithReassign(moved, dest, dropEmpty)
		},
		src,
		func(frozenHead uint64) error {
			fenceDeadline := time.Now().Add(r.cfg.FenceTimeout)
			for cursor < frozenHead {
				if time.Now().After(fenceDeadline) {
					return fmt.Errorf("elastic: fence drain exceeded %v", r.cfg.FenceTimeout)
				}
				if !dest.Master().Healthy() {
					return fmt.Errorf("elastic: destination master died during fence drain")
				}
				n, next, err := r.shipBatch(src, tail, cursor, frozenHead)
				if err != nil {
					return err
				}
				if n == 0 {
					return fmt.Errorf("elastic: source binlog unreachable at %d during fence drain", cursor)
				}
				cursor = next
			}
			return waitSlavesLevel(dest, fenceDeadline)
		})
	if err != nil {
		cleanupMarks()
		return abort(err)
	}
	r.moved.Add(uint64(len(moved)))

	// 5. Cleanup: wait for readers of the superseded table, then scavenge
	// rows neither side owns any more. Scavenge failures leave marks set —
	// reads stay correct via ownership predicates, just slower.
	if err := r.pc.WaitQuiesce(prev, r.cfg.QuiesceTimeout); err != nil {
		return fmt.Errorf("elastic: migrated (epoch %d) but old readers lingered: %w", installed.Epoch(), err)
	}
	if !dropEmpty {
		if err := scavenge(src, installed, b, moved); err != nil {
			return fmt.Errorf("elastic: migrated (epoch %d) but source scavenge failed: %w", installed.Epoch(), err)
		}
	}
	if fresh {
		// The full clone holds every bucket; drop what dest does not own.
		if err := scavenge(dest, installed, b, complementOf(installed, dest, moved)); err != nil {
			return fmt.Errorf("elastic: migrated (epoch %d) but destination scavenge failed: %w", installed.Epoch(), err)
		}
	}
	flushCaches(src, dest)
	cleanupMarks()
	r.completed.Add(1)
	return nil
}

// shipBatch reads source events after cursor (never beyond capSeq) and
// applies them to the destination through the tailer. Returns events
// shipped and the new cursor. The source master is re-read per call so a
// failover mid-stream transparently switches to the promoted lineage.
func (r *Rebalancer) shipBatch(src *core.MasterSlave, tail tailer, cursor, capSeq uint64) (int, uint64, error) {
	events, trimmed := src.Master().Engine().Binlog().ReadFrom(cursor, r.cfg.TailBatch)
	if len(events) == 0 && trimmed {
		return 0, cursor, fmt.Errorf("source binlog trimmed below cursor %d; migration cannot resume without re-cloning", cursor)
	}
	clipped := events[:0]
	for _, ev := range events {
		if ev.Seq > capSeq {
			break
		}
		clipped = append(clipped, ev)
	}
	if len(clipped) == 0 {
		return 0, cursor, nil
	}
	n, err := tail.apply(clipped)
	if n > 0 {
		cursor = clipped[n-1].Seq
	}
	if err != nil {
		return n, cursor, err
	}
	return n, clipped[n-1].Seq, nil
}

// singleOwner verifies all buckets share one owner under rt and returns it.
func singleOwner(rt *core.RouteTable, buckets []int) (*core.MasterSlave, error) {
	var owner *core.MasterSlave
	for _, b := range buckets {
		if b < 0 || b >= rt.NumBuckets() {
			return nil, fmt.Errorf("elastic: bucket %d out of range [0,%d)", b, rt.NumBuckets())
		}
		o := rt.Owner(b)
		if owner == nil {
			owner = o
		} else if o != owner {
			return nil, fmt.Errorf("elastic: buckets span multiple source partitions; migrate per source")
		}
	}
	return owner, nil
}

func bucketSet(buckets []int) map[int]bool {
	m := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		m[b] = true
	}
	return m
}

// complementOf returns the buckets dest does NOT own under rt, given it
// just received `moved`.
func complementOf(rt *core.RouteTable, dest *core.MasterSlave, moved []int) []int {
	di := rt.PartIndex(dest)
	var out []int
	for b := 0; b < rt.NumBuckets(); b++ {
		if rt.OwnerIndex(b) != di {
			out = append(out, b)
		}
	}
	return out
}

// waitSlavesLevel waits (inside the fence) until every healthy destination
// slave has applied the destination head — session-consistent reads stay
// monotonic across the cutover.
func waitSlavesLevel(dest *core.MasterSlave, deadline time.Time) error {
	for {
		head := dest.MasterSeq()
		level := true
		for _, sl := range dest.Slaves() {
			if sl.Healthy() && sl.AppliedSeq() < head {
				level = false
				break
			}
		}
		if level {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("elastic: destination slaves did not level with head %d before the fence budget", head)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scavenge deletes rows of ruled tables on ms whose bucket falls in
// buckets — the rows ms no longer owns after the install. Statements run
// through a normal cluster session so they replicate to slaves and
// invalidate caches like any other write.
func scavenge(ms *core.MasterSlave, rt *core.RouteTable, b *engine.Backup, buckets []int) error {
	if len(buckets) == 0 {
		return nil
	}
	sess := ms.NewSession("rebalance")
	defer sess.Close()
	for _, db := range b.Databases {
		for _, td := range db.Tables {
			rule := rt.Rule(td.Name)
			if rule == nil {
				continue
			}
			pred := core.OwnershipPredicate(rule, rt.NumBuckets(), buckets)
			del := &sqlparse.Delete{
				Table: sqlparse.TableRef{Database: db.Name, Name: td.Name},
				Where: pred,
			}
			if _, err := sess.ExecStmt(del); err != nil {
				return fmt.Errorf("scavenge %s.%s: %w", db.Name, td.Name, err)
			}
		}
	}
	return nil
}

// flushCaches drops both clusters' query-cache scopes after a cutover:
// invalidation keyed to each cluster's own binlog cannot see rows that
// moved between clusters.
func flushCaches(parts ...*core.MasterSlave) {
	for _, p := range parts {
		if sc := p.QueryCacheScope(); sc != nil {
			sc.FlushAll()
		}
	}
}

// Migrating reports whether a migration is currently running.
func (r *Rebalancer) Migrating() bool { return r.pc.Migrating() }

// WriteMetrics appends the rebalancer's state in the /metrics line format.
func (r *Rebalancer) WriteMetrics(w io.Writer) {
	rt := r.pc.RouteTable()
	fmt.Fprintf(w, "repl_elastic_epoch %d\n", rt.Epoch())
	fmt.Fprintf(w, "repl_elastic_partitions %d\n", len(rt.Partitions()))
	fmt.Fprintf(w, "repl_elastic_buckets %d\n", rt.NumBuckets())
	migrating := 0
	if r.pc.Migrating() {
		migrating = 1
	}
	fmt.Fprintf(w, "repl_elastic_migrating %d\n", migrating)
	fmt.Fprintf(w, "repl_elastic_migrations_started_total %d\n", r.started.Load())
	fmt.Fprintf(w, "repl_elastic_migrations_completed_total %d\n", r.completed.Load())
	fmt.Fprintf(w, "repl_elastic_migrations_aborted_total %d\n", r.aborted.Load())
	fmt.Fprintf(w, "repl_elastic_migrations_resumed_total %d\n", r.resumed.Load())
	fmt.Fprintf(w, "repl_elastic_clones_total %d\n", r.clones.Load())
	fmt.Fprintf(w, "repl_elastic_buckets_moved_total %d\n", r.moved.Load())
}
