package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/recoverylog"
)

// Provisioner implements the Sequoia-style online replica lifecycle of
// §4.4.2 on top of a recovery log: checkpoint a replica out, back it up
// without touching active replicas, initialize new replicas from the dump,
// and resynchronize them by applying the logged events — through the same
// path slaves use — until they catch up with the live stream.
//
// PR 4 makes the lifecycle durable and automatic: Follow records the
// master's binlog into the (optionally disk-backed) log and takes periodic
// checkpoint backups, ResyncAuto restores the cheapest checkpoint and
// replays only the tail, and FailoverTo repairs the log after a promotion
// by truncating the lost suffix and re-pointing the recorder.
type Provisioner struct {
	log *recoverylog.Log

	// appendMu serializes everyone who copies binlog events into the log
	// (the recorder's copyBatch and CheckpointBackup's catch-up), so two
	// copiers can never interleave duplicate appends.
	appendMu sync.Mutex

	mu       sync.Mutex
	followed *Replica
	fopts    FollowOptions
	stop     chan struct{}
	done     chan struct{}
	recErr   error
	// finalCkpt tells a stopping recorder whether to take a last
	// threshold-crossed checkpoint. True for graceful Unfollow (so a
	// restart recovers checkpoint+tail, not full replay); false when
	// FailoverTo discards the dead master's recorder — a parting snapshot
	// of the dead lineage would poison the repaired log.
	finalCkpt bool
}

// NewProvisioner wraps a recovery log.
func NewProvisioner(log *recoverylog.Log) *Provisioner {
	return &Provisioner{log: log}
}

// Log exposes the underlying recovery log.
func (p *Provisioner) Log() *recoverylog.Log { return p.log }

// FaithfulBackup captures everything a replacement replica needs — users,
// code objects and sequence positions, not just data. The zero
// BackupOptions reproduce the incomplete-dump problem of §4.1.5/§4.2.3;
// recovery checkpoints must not.
var FaithfulBackup = engine.BackupOptions{
	IncludeUsers: true, IncludeCode: true, IncludeSequences: true,
}

// RecordEvent appends a committed binlog event to the recovery log. Wire it
// to the master's binlog subscription.
func (p *Provisioner) RecordEvent(ev engine.Event) uint64 {
	seq, _ := p.log.Append(ev)
	return seq
}

// CheckpointRemove marks a replica's departure position ("when a node is
// removed from the cluster, a checkpoint is inserted").
func (p *Provisioner) CheckpointRemove(name string, position uint64) {
	p.log.CheckpointAt("remove:"+name, position)
}

// CheckpointBackup snapshots a replica (normally the master) and records a
// payload checkpoint at the snapshot's replication position. The checkpoint
// is the clone base compaction retains: once it exists, every entry below
// it (or below an older checkpoint a registered replica still needs) is
// droppable, which is what finally bounds the log.
func (p *Provisioner) CheckpointBackup(name string, rep *Replica, opts engine.BackupOptions) (uint64, error) {
	b, err := rep.Engine().Dump(opts)
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint backup: %w", err)
	}
	payload, err := b.Encode()
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint backup: %w", err)
	}
	// The snapshot may be ahead of the log (commits landed since the last
	// recorder pass — and when the recorder itself is the caller, nobody
	// else will ever close that gap). Copy the missing events in directly;
	// appendMu keeps this from interleaving with a concurrent recorder.
	p.appendMu.Lock()
	for p.log.Head() < b.AtSeq {
		if n, cerr := p.copyBatchLocked(rep); cerr != nil || n == 0 {
			p.appendMu.Unlock()
			if cerr == nil {
				cerr = fmt.Errorf("binlog has no events between log head %d and snapshot position %d", p.log.Head(), b.AtSeq)
			}
			return 0, fmt.Errorf("core: checkpoint backup: %w", cerr)
		}
	}
	p.appendMu.Unlock()
	if err := p.log.AddCheckpoint(name, b.AtSeq, payload); err != nil {
		return 0, fmt.Errorf("core: checkpoint backup: %w", err)
	}
	if err := p.log.Sync(); err != nil {
		return 0, fmt.Errorf("core: checkpoint backup: %w", err)
	}
	return b.AtSeq, nil
}

// FollowOptions tunes the binlog recorder started by Follow.
type FollowOptions struct {
	// Poll is the recorder's binlog poll interval; zero means 200µs.
	Poll time.Duration
	// CheckpointEvery takes an automatic checkpoint backup (and compacts
	// the log) at most every N recorded entries, and only once the log
	// since the last checkpoint outweighs it; zero disables automatic
	// checkpoints, leaving the log unbounded until CheckpointBackup is
	// called manually.
	CheckpointEvery uint64
	// Backup selects what automatic checkpoints capture; the zero value is
	// upgraded to FaithfulBackup (recovery must clone users, code and
	// sequences, §4.1.5).
	Backup engine.BackupOptions
}

// Follow starts (or re-points) the recorder: a goroutine that copies rep's
// committed binlog events into the recovery log, resuming at the log head.
// Binlog and log sequence spaces must be aligned — true when the log was
// fed from this cluster's event stream from the start, and re-established
// across restarts by ResyncAuto's binlog reset.
func (p *Provisioner) Follow(rep *Replica, opts FollowOptions) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Microsecond
	}
	if len(opts.Backup.Databases) == 0 && !opts.Backup.IncludeUsers &&
		!opts.Backup.IncludeCode && !opts.Backup.IncludeSequences {
		opts.Backup = FaithfulBackup
	}
	p.Unfollow()
	p.mu.Lock()
	p.followed = rep
	p.fopts = opts
	p.recErr = nil // fresh recorder incarnation, fresh slate
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	stop, done := p.stop, p.done
	p.mu.Unlock()
	go p.record(rep, opts, stop, done)
}

// Unfollow stops the recorder (no-op when none is running), draining the
// binlog and taking a final checkpoint when CheckpointEvery entries have
// been logged since the latest one, however little they weigh, so a
// graceful shutdown restarts via checkpoint + a short tail.
func (p *Provisioner) Unfollow() { p.unfollow(true) }

func (p *Provisioner) unfollow(finalCkpt bool) {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.followed = nil
	p.finalCkpt = finalCkpt
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Followed reports which replica the recorder is copying (nil when idle).
func (p *Provisioner) Followed() *Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.followed
}

// RecorderErr returns the first error that stopped the recorder (nil while
// healthy). Misalignment between binlog and log positions and storage
// failures both land here.
func (p *Provisioner) RecorderErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recErr
}

func (p *Provisioner) setRecErr(err error) {
	p.mu.Lock()
	if p.recErr == nil {
		p.recErr = err
	}
	p.mu.Unlock()
}

// copyBatch copies one batch of committed binlog events into the log,
// returning how many it recorded. Errors are sticky via RecorderErr.
func (p *Provisioner) copyBatch(rep *Replica) (int, error) {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	return p.copyBatchLocked(rep)
}

func (p *Provisioner) copyBatchLocked(rep *Replica) (int, error) {
	pos := p.log.Head()
	events, trimmed := rep.Engine().Binlog().ReadFrom(pos, 64)
	if trimmed {
		err := fmt.Errorf("core: recorder: binlog trimmed below log head %d", pos)
		p.setRecErr(err)
		return 0, err
	}
	for _, ev := range events {
		seq, err := p.log.Append(ev)
		if err != nil {
			err = fmt.Errorf("core: recorder: %w", err)
			p.setRecErr(err)
			return 0, err
		}
		if seq != ev.Seq {
			err = fmt.Errorf("core: recorder: log seq %d diverged from binlog seq %d", seq, ev.Seq)
			p.setRecErr(err)
			return 0, err
		}
	}
	return len(events), nil
}

func (p *Provisioner) record(rep *Replica, opts FollowOptions, stop, done chan struct{}) {
	defer close(done)
	// drain copies everything the binlog has already committed; every stop
	// path runs it, so a graceful stop never loses the tail between the
	// last poll and the stop signal (a restart would then serve fewer rows
	// than were acknowledged).
	drain := func() {
		for {
			if n, err := p.copyBatch(rep); err != nil || n == 0 {
				return
			}
		}
	}
	// checkpoint takes an automatic checkpoint backup once CheckpointEvery
	// entries have been logged since the latest payload checkpoint, and the
	// log written since it is at least as large as its payload. The bytes
	// checkpoints write then never exceed the log they replace, and a crash
	// recovery replays at most one snapshot's worth of log. The final
	// checkpoint of a graceful stop skips the second test: the restart that
	// follows would replay the tail on every replica it opens, while the
	// checkpoint is paid for once.
	//
	// It then compacts the log to the latest checkpoint, whoever took it: a
	// checkpoint taken through CheckpointBackup would otherwise leave the
	// log below it to be read again by the next restart.
	var compactedTo uint64
	checkpoint := func(final bool) bool {
		if opts.CheckpointEvery == 0 {
			return true
		}
		head := p.log.Head()
		_, last, _ := p.log.LatestCheckpoint()
		if head-last >= opts.CheckpointEvery {
			if logged, snapshot := p.log.SinceCheckpoint(); final || logged >= snapshot {
				seq, err := p.CheckpointBackup(fmt.Sprintf("auto-%d", head), rep, opts.Backup)
				if err != nil {
					p.setRecErr(err)
					return false
				}
				last = seq
			}
		}
		if last > compactedTo {
			if _, err := p.log.Compact(); err != nil {
				p.setRecErr(err)
				return false
			}
			compactedTo = last
		}
		return true
	}
	finish := func() {
		drain()
		p.mu.Lock()
		final := p.finalCkpt
		p.mu.Unlock()
		if final {
			_ = checkpoint(true)
		}
		_ = p.log.Sync()
	}
	for {
		select {
		case <-stop:
			finish()
			return
		default:
		}
		n, err := p.copyBatch(rep)
		if err != nil {
			return
		}
		if n == 0 {
			select {
			case <-stop:
				finish()
				return
			case <-time.After(opts.Poll):
			}
			continue
		}
		if !checkpoint(false) {
			return
		}
	}
}

// FailoverTo repairs the recovery log after a promotion and re-points the
// recorder at the new master. The old master's unreplicated suffix — logged
// but never applied by the promoted slave — "never happened" in the new
// position space, so the log tail above the new master's position is
// truncated (checkpoints above it included) before recording resumes.
func (p *Provisioner) FailoverTo(newMaster *Replica) error {
	p.mu.Lock()
	wasFollowing := p.followed != nil
	opts := p.fopts
	p.mu.Unlock()
	if wasFollowing {
		// No parting checkpoint: a snapshot of the dead master's lineage
		// would be above (or interleaved past) the promoted position.
		p.unfollow(false)
	}
	to := newMaster.Engine().Binlog().Head()
	var rebased bool
	if err := p.log.TruncateTail(to); err != nil {
		if !errors.Is(err, recoverylog.ErrCompacted) {
			// The log could not be repaired and recording stays stopped:
			// make that loud through RecorderErr — callers like the monitor
			// run in loops with nowhere to return an error to, and a
			// silently dead recorder means a restart would lose everything
			// after this point.
			err = fmt.Errorf("core: failover log repair: %w", err)
			p.setRecErr(err)
			return err
		}
		// Compaction already advanced past the promoted position: every
		// retained entry and checkpoint belongs to the lost lineage, and a
		// resync from them would faithfully rebuild transactions the
		// cluster lost (this bit the chaos tests before the reset existed).
		// The only sound log is an empty one re-based at the promoted
		// position, re-anchored below by a fresh checkpoint of the new
		// master.
		if err := p.log.ResetTo(to); err != nil {
			err = fmt.Errorf("core: failover log reset: %w", err)
			p.setRecErr(err)
			return err
		}
		rebased = true
	}
	if wasFollowing {
		p.Follow(newMaster, opts)
	}
	if rebased {
		if _, err := p.CheckpointBackup(fmt.Sprintf("failover-%d", to), newMaster, FaithfulBackup); err != nil {
			err = fmt.Errorf("core: failover re-anchor: %w", err)
			p.setRecErr(err)
			return err
		}
	}
	return nil
}

// ResyncOptions controls replica resynchronization.
type ResyncOptions struct {
	// BatchWait is how long to wait for new log entries before declaring
	// the replica caught up; zero means 50 ms.
	BatchWait time.Duration
	// BeforeApply, when non-nil, runs before each entry is applied; an
	// error aborts the resync at that entry. Operators use it for
	// throttling, tests for fault injection.
	BeforeApply func(engine.Event) error
	// ForceClone makes ResyncAuto restore a checkpoint backup even when
	// tail replay from the replica's position would be possible. Rejoining
	// a failed old master uses it: the replica's state contains a diverged
	// unreplicated suffix that must be rolled back, not built upon.
	ForceClone bool
}

// ResyncResult summarizes a resynchronization.
type ResyncResult struct {
	Replayed int
	From, To uint64
	Duration time.Duration
	CaughtUp bool
	// Cloned reports that the replica was initialized from a checkpoint
	// backup before tail replay; Checkpoint/CheckpointSeq identify it.
	Cloned        bool
	Checkpoint    string
	CheckpointSeq uint64
	FinalHead     uint64
}

// replayRun bounds how many logged events Resync applies at once.
const replayRun = 64

// Resync applies the recovery log to a replica from the given position
// until it reaches the (moving) head, in runs of events applied the way a
// slave applies the master's stream: DDL by its statement, everything else
// from its write set. It returns when the replica has caught up — or
// reports CaughtUp=false if MaxDuration elapsed first. Replaying from below
// the compaction horizon fails with recoverylog.ErrCompacted; use
// ResyncAuto to fall back to a checkpoint clone automatically.
func (p *Provisioner) Resync(rep *Replica, from uint64, opts ResyncOptions, maxDuration time.Duration) (*ResyncResult, error) {
	if opts.BatchWait == 0 {
		opts.BatchWait = 50 * time.Millisecond
	}
	// Pin the replay position for the duration of the resync, before the
	// horizon is checked: a concurrent Compact must never drop entries out
	// from under an in-flight replay (registration alone has checkpoint
	// granularity and cannot protect a replica replaying from below every
	// checkpoint). The registration keeps the replica's checkpoint retained
	// for later resyncs.
	p.log.PinReplay(rep.Name(), from)
	defer p.log.Unpin(rep.Name())
	if c := p.log.CompactedThrough(); from < c {
		return nil, fmt.Errorf("%w: resync of %s from %d, compacted through %d (use ResyncAuto)",
			recoverylog.ErrCompacted, rep.Name(), from, c)
	}
	p.log.Register(rep.Name(), from)

	start := time.Now()
	pos := from
	total := 0
	deadline := start.Add(maxDuration)
	for {
		head := p.log.Head()
		if pos >= head {
			// Nothing pending: wait briefly for more, then declare done.
			time.Sleep(opts.BatchWait)
			if p.log.Head() == head {
				rep.appliedSeq.Store(pos)
				rep.receivedSeq.Store(pos)
				return &ResyncResult{
					Replayed: total, From: from, To: pos,
					Duration: time.Since(start), CaughtUp: true, FinalHead: head,
				}, nil
			}
			continue
		}
		evs, err := p.log.ReadFrom(pos, replayRun)
		if err != nil {
			return nil, fmt.Errorf("core: resync of %s: %w", rep.Name(), err)
		}
		n, err := replayEvents(rep.Engine(), evs, opts.BeforeApply)
		total += n
		// Advance only by the contiguous applied prefix, so a resumed
		// resync never skips an entry a failed run did not apply.
		pos += uint64(n)
		rep.appliedSeq.Store(pos)
		rep.receivedSeq.Store(pos)
		p.log.PinReplay(rep.Name(), pos)
		p.log.Register(rep.Name(), pos)
		if err != nil {
			return nil, fmt.Errorf("core: resync of %s at entry %d: %w", rep.Name(), pos+1, err)
		}
		if maxDuration > 0 && time.Now().After(deadline) {
			return &ResyncResult{
				Replayed: total, From: from, To: pos,
				Duration: time.Since(start), CaughtUp: false, FinalHead: p.log.Head(),
			}, nil
		}
	}
}

// replayEvents applies a run of logged events the way a slave applies the
// master's stream. Each event is passed to before (when non-nil) first, and
// the run is cut at the first one refused. ApplyEvents refuses an event
// without a write set with engine.ErrNoWriteSet: every binlog event carries
// one (a DDL event's is empty), so it is statement text from a log written
// before entries held write sets. It returns how many events were applied
// and the first error, of either kind.
func replayEvents(eng *engine.Engine, evs []engine.Event, before func(engine.Event) error) (int, error) {
	var refused error
	if before != nil {
		for i := range evs {
			if refused = before(evs[i]); refused != nil {
				evs = evs[:i]
				break
			}
		}
	}
	n, err := eng.ApplyEvents(evs)
	if err == nil {
		err = refused
	}
	return n, err
}

// ResyncAuto resynchronizes a replica choosing the cheapest sound plan:
//
//   - a replica whose applied position is still covered by retained log
//     entries replays only the tail from that position;
//   - an empty replica, one below the compaction horizon, or one whose
//     state must be discarded (ForceClone — e.g. a failed master with a
//     diverged suffix) restores the newest payload checkpoint at or below
//     its position (falling back to the latest checkpoint), resets its
//     binlog to the checkpoint position so the replication position space
//     stays aligned, and replays the tail from there.
//
// Either way the tail is strictly shorter than a full-log replay whenever a
// checkpoint exists — the §4.4.2 catch-up-time fix.
func (p *Provisioner) ResyncAuto(rep *Replica, opts ResyncOptions, maxDuration time.Duration) (*ResyncResult, error) {
	pos := rep.AppliedSeq()
	// Pin before reading the horizon, so the tail the plan relies on
	// cannot be compacted away before Resync runs.
	p.log.PinReplay(rep.Name(), pos)
	defer p.log.Unpin(rep.Name())
	compacted := p.log.CompactedThrough()
	_, _, haveCkpt := p.log.LatestCheckpoint()
	clone := opts.ForceClone || pos < compacted || (pos == 0 && haveCkpt)
	var ckptName string
	var ckptSeq uint64
	if clone {
		name, seq, ok := p.pinCheckpoint(rep.Name(), pos)
		if !ok {
			if pos < compacted || opts.ForceClone {
				return nil, fmt.Errorf("core: resync of %s needs a checkpoint backup and none exists", rep.Name())
			}
			// Empty log, empty replica: nothing to clone, nothing to replay.
			clone = false
		} else {
			payload, okp := p.log.CheckpointPayload(name)
			if !okp {
				return nil, fmt.Errorf("core: checkpoint %s has no payload", name)
			}
			b, err := engine.DecodeBackup(payload)
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint %s: %w", name, err)
			}
			if err := rep.Engine().Restore(b); err != nil {
				return nil, fmt.Errorf("core: clone %s from checkpoint %s: %w", rep.Name(), name, err)
			}
			// The restored engine continues the cluster's position space
			// from the checkpoint; whatever its previous life had appended
			// (including a diverged suffix) is rolled back with the state.
			rep.Engine().Binlog().Reset(seq)
			rep.appliedSeq.Store(seq)
			rep.receivedSeq.Store(seq)
			pos = seq
			ckptName, ckptSeq = name, seq
		}
	}
	res, err := p.Resync(rep, pos, opts, maxDuration)
	if err != nil {
		return nil, err
	}
	res.Cloned = clone
	res.Checkpoint = ckptName
	res.CheckpointSeq = ckptSeq
	return res, nil
}

// pinCheckpoint picks the clone base for a replica at pos — the newest
// payload checkpoint at or below pos that the retained log continues, else
// the latest — and pins a replay at its position. The recorder may
// checkpoint and compact between the pick and the pin, dropping the tail
// after the pick, so the horizon is checked again once the pin holds and
// the pick is made again when it moved past.
func (p *Provisioner) pinCheckpoint(replica string, pos uint64) (string, uint64, bool) {
	for {
		compacted := p.log.CompactedThrough()
		name, seq, ok := p.log.NearestCheckpoint(pos)
		if !ok || seq < compacted {
			name, seq, ok = p.log.LatestCheckpoint()
		}
		if !ok {
			return "", 0, false
		}
		p.log.PinReplay(replica, seq)
		if seq >= p.log.CompactedThrough() {
			return name, seq, true
		}
	}
}
