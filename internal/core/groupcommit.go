package core

import (
	"errors"
	"fmt"
	"sync"
)

// Cross-connection group commit (PR 9). A durable cluster that fsyncs the
// recovery log once per commit spends almost all of its write latency in the
// disk flush; under concurrent writers those flushes carry one transaction
// each while the others queue behind the log mutex. The GroupCommitter
// coalesces them: commits that arrive while a flush is in flight ride the
// next binlog copy and the next fsync together, so N concurrent writers cost
// one disk round-trip instead of N. This is the classical WAL group commit,
// applied at the middleware layer the paper's Figure 3 runs the log in.
//
// The committer is self-clocked: no timer decides when a batch closes, the
// previous fsync does. The first commit that finds no batch open becomes the
// leader of a new one. If a flush is in flight, the leader waits for it
// while its own batch keeps enrolling; then it closes enrollment, copies the
// master binlog into the recovery log up to the highest position enrolled,
// issues ONE Sync, and wakes every follower. A lone writer therefore pays
// one copy and one fsync, and concurrent writers batch because their fsyncs
// would overlap in time (MySQL's binlog group commit, PostgreSQL's
// commit_delay = 0). Commits whose position is already at or below the
// durable watermark return immediately, and a leader whose whole batch the
// previous flush already covered skips its fsync.

// DurabilityWaiter is what the cluster write path blocks on before
// acknowledging a commit: WaitDurable returns once the given replication
// position is safely on disk.
type DurabilityWaiter interface {
	WaitDurable(seq uint64) error
}

// ErrGroupCommitClosed is returned by WaitDurable after Close: the commit
// executed but its durability could not be confirmed.
var ErrGroupCommitClosed = errors.New("core: group committer closed")

// syncBatch is one batch of commits: everyone enrolled waits on done, the
// leader flushes through high and reports err to all.
type syncBatch struct {
	done chan struct{}
	high uint64
	err  error
}

// GroupCommitter batches recovery-log fsyncs across concurrently-committing
// sessions. Safe for concurrent use.
type GroupCommitter struct {
	prov   *Provisioner
	source func() *Replica // current master (tracks failovers)

	mu       sync.Mutex
	cur      *syncBatch // open batch enrolling commits, nil if none
	inflight *syncBatch // batch whose flush runs now, nil if none
	durable  uint64     // highest position known flushed
	commits  uint64     // WaitDurable calls acknowledged
	batches  uint64     // batches closed, each led by one commit
	syncs    uint64     // fsyncs issued; a batch already covered issues none
	closed   bool
}

// NewGroupCommitter builds a committer over prov's recovery log. source
// returns the replica whose binlog holds the committed events — normally the
// cluster's current master, so pass MasterSlave.Master to track failovers.
func NewGroupCommitter(prov *Provisioner, source func() *Replica) *GroupCommitter {
	return &GroupCommitter{prov: prov, source: source}
}

// WaitDurable blocks until the recovery log has flushed position seq,
// joining (or leading) a batch so concurrent callers share one fsync.
func (g *GroupCommitter) WaitDurable(seq uint64) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrGroupCommitClosed
	}
	g.commits++
	if seq <= g.durable {
		g.mu.Unlock()
		return nil
	}
	if b := g.cur; b != nil {
		// A leader is waiting out the previous flush: enroll and wait
		// for the flush it issues next.
		if seq > b.high {
			b.high = seq
		}
		g.mu.Unlock()
		<-b.done
		return b.err
	}
	b := &syncBatch{done: make(chan struct{}), high: seq}
	g.cur = b
	prev := g.inflight
	g.mu.Unlock()

	// Only one flush runs at a time. While the previous one does, this
	// batch stays open and gathers the commits that arrive meanwhile.
	if prev != nil {
		<-prev.done
	}

	g.mu.Lock()
	g.cur = nil // close enrollment; the next commit leads the next batch
	g.batches++
	high := b.high
	if high <= g.durable {
		// The previous flush overshot through every position enrolled.
		g.mu.Unlock()
		close(b.done)
		return nil
	}
	g.inflight = b
	g.syncs++
	g.mu.Unlock()

	var synced uint64
	synced, b.err = g.flush(high)

	g.mu.Lock()
	if b.err == nil && synced > g.durable {
		g.durable = synced
	}
	g.inflight = nil
	g.mu.Unlock()
	close(b.done)
	return b.err
}

// flush copies the master binlog into the recovery log through at least
// `high` and issues one Sync, returning the position the sync covered (a
// copy batch may overshoot high; everything appended is flushed, so later
// commits at or below it ride for free). appendMu keeps the copy from
// interleaving with the Provisioner's recorder, which covers the same
// ground.
func (g *GroupCommitter) flush(high uint64) (uint64, error) {
	log := g.prov.Log()
	g.prov.appendMu.Lock()
	for log.Head() < high {
		rep := g.source()
		if rep == nil {
			g.prov.appendMu.Unlock()
			return 0, fmt.Errorf("core: group commit: no master to copy binlog from (position %d)", high)
		}
		n, err := g.prov.copyBatchLocked(rep)
		if err != nil {
			g.prov.appendMu.Unlock()
			return 0, fmt.Errorf("core: group commit: %w", err)
		}
		if n == 0 {
			// The committed event is not in this replica's binlog: a
			// failover replaced the lineage mid-wait. The position the
			// caller holds may no longer exist; surface that rather than
			// spin.
			g.prov.appendMu.Unlock()
			return 0, fmt.Errorf("core: group commit: binlog exhausted at %d before position %d", log.Head(), high)
		}
	}
	synced := log.Head()
	g.prov.appendMu.Unlock()
	if err := log.Sync(); err != nil {
		return 0, fmt.Errorf("core: group commit: %w", err)
	}
	return synced, nil
}

// Stats reports commits acknowledged and fsyncs issued; their ratio is the
// amortization factor (1.0 = no grouping, higher is better).
func (g *GroupCommitter) Stats() (commits, syncs uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commits, g.syncs
}

// Close fails future WaitDurable calls. Open batches still complete: their
// leaders hold no lock while flushing and report to their followers
// normally.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}
