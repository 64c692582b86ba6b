// Package recoverylog implements a Sequoia-style recovery log (§4.4.2): a
// totally-ordered record of every update the cluster committed, with named
// checkpoints. A removed replica is checkpointed at the last entry it
// applied; re-adding it restores a checkpoint backup and applies the log
// tail after it. Each entry is the master's committed binlog event —
// statements, database, user, DDL flag and write set — so recovery applies
// the same rows a slave applies instead of re-running SQL that may not be
// deterministic (§4.3.2).
//
// The log runs in two modes. New() is purely in-memory (what unit tests and
// single-run benchmarks want). Open(dir, opts) backs the same API with
// segmented on-disk storage: appends stream into segment files with batched
// fsync, checkpoints persist with an optional payload (an encoded engine
// backup), and a crash-interrupted append is healed on reload by truncating
// the torn tail. Records are decoded once, at Open; in memory the log holds
// the events ready to apply. In both modes the footprint is bounded:
// Compact drops whole segments (and their in-memory entries) below the
// oldest checkpoint still needed by any registered replica.
package recoverylog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
)

// checkpointRec is a named log position, optionally carrying the encoded
// backup snapshot taken at that position (the clone base for replicas too
// stale for tail replay).
type checkpointRec struct {
	Name    string
	Seq     uint64
	Payload []byte
}

// ErrCompacted is returned when a replay or read references entries that
// compaction has already dropped; the caller must clone a checkpoint backup
// instead (Provisioner.ResyncAuto does exactly that).
var ErrCompacted = errors.New("recoverylog: position below compaction horizon")

// Log is a recovery log, in-memory or disk-backed. Safe for concurrent use.
type Log struct {
	mu          sync.Mutex
	entries     []engine.Event // retained entries; entries[0].Seq == base+1
	base        uint64         // entries at or below base were compacted away
	checkpoints map[string]*checkpointRec
	replicas    map[string]uint64 // registered replica -> applied position
	pins        map[string]uint64 // in-flight replays -> replay position
	store       *diskStore        // nil in memory-only mode
	ioErr       error             // first storage failure, sticky
	// ends[i] is the size of the records of entries[:i+1], counted as the
	// disk store frames them, in memory mode too (see SinceCheckpoint).
	ends []int64
}

// New creates an empty in-memory log.
func New() *Log {
	return &Log{
		checkpoints: make(map[string]*checkpointRec),
		replicas:    make(map[string]uint64),
		pins:        make(map[string]uint64),
	}
}

// Open creates (or reloads) a disk-backed log in dir. An interrupted append
// leaves a torn record at the tail of the last segment; reload truncates it
// — committed entries before it survive, the torn one is gone, matching what
// its commit acknowledgement (never sent) promised. Corruption anywhere
// else is reported as an error, never a panic.
func Open(dir string, opts Options) (*Log, error) {
	store, ld, err := openStore(dir, opts)
	if err != nil {
		return nil, err
	}
	l := New()
	l.entries = ld.entries
	l.ends = ld.ends
	l.base = ld.base
	l.checkpoints = ld.ckpts
	l.store = store
	return l, nil
}

// Close flushes and closes the backing store (no-op in memory mode).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return l.ioErr
	}
	err := l.store.close()
	if l.ioErr == nil {
		l.ioErr = err
	}
	return err
}

// Sync forces pending appends to disk (no-op in memory mode).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.store == nil {
		return nil
	}
	if err := l.store.sync(); err != nil && l.ioErr == nil {
		l.ioErr = err
	}
	return l.ioErr
}

// SyncCount returns how many fsyncs the backing store has actually issued
// (0 in memory mode). Group-commit amortization is measured against it:
// commits acknowledged divided by fsyncs issued.
func (l *Log) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return 0
	}
	return l.store.syncs
}

// Err returns the first storage error the log has hit (nil when healthy).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioErr
}

// Append records a committed binlog event and returns its sequence number
// (the event's Seq is set to it) and any storage error (the event is always
// retained in memory). Logged events are shared, not copied: committed
// events are immutable.
func (l *Log) Append(ev engine.Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Seq = l.base + uint64(len(l.entries)) + 1
	l.entries = append(l.entries, ev)
	var size int
	if l.store != nil {
		var err error
		if size, err = l.store.appendEntry(ev); err != nil && l.ioErr == nil {
			l.ioErr = err
		}
	} else {
		size, _ = recordSize(ev) // an event gob cannot encode weighs nothing
	}
	l.ends = append(l.ends, l.bytesThroughLocked(ev.Seq-1)+int64(size))
	return ev.Seq, l.ioErr
}

// AppendEntry records statement text alone, with no write set, which
// recovery refuses to apply (engine.ErrNoWriteSet). It remains for
// measuring the append path; tables is unused.
func (l *Log) AppendEntry(stmts []string, tables []string, ddl bool) (uint64, error) {
	return l.Append(engine.Event{Stmts: append([]string(nil), stmts...), DDL: ddl})
}

// Head returns the last assigned sequence number (0 when empty).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.entries))
}

// Len returns the number of retained entries (compacted entries excluded).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// CompactedThrough returns the highest sequence number dropped by
// compaction; entries at or below it are gone (0 = nothing dropped).
func (l *Log) CompactedThrough() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Segments reports how many on-disk segment files back the log (0 in
// memory mode); compaction tests assert it shrinks.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return 0
	}
	return len(l.store.segs)
}

// Checkpoint names the current head ("insert a checkpoint pointing to the
// last update statement executed by the removed node").
func (l *Log) Checkpoint(name string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.base + uint64(len(l.entries))
	l.addCheckpointLocked(&checkpointRec{Name: name, Seq: seq})
	return seq
}

// CheckpointAt names an explicit position.
func (l *Log) CheckpointAt(name string, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addCheckpointLocked(&checkpointRec{Name: name, Seq: seq})
}

// AddCheckpoint records a named position together with its snapshot payload
// (an encoded engine backup). Payload checkpoints are the clone bases
// compaction retains and ResyncAuto restores from. The log takes ownership
// of payload: the caller must not modify it afterwards.
func (l *Log) AddCheckpoint(name string, seq uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addCheckpointLocked(&checkpointRec{Name: name, Seq: seq, Payload: payload})
	return l.ioErr
}

// SinceCheckpoint reports the size of the records above the latest payload
// checkpoint, and the size of that checkpoint's payload (with no payload
// checkpoint, the size of every retained record, and 0). Records are
// counted as the disk store frames them, in memory mode too, so one rule
// can weigh the log against its snapshot.
func (l *Log) SinceCheckpoint() (logged, snapshot int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.base + uint64(len(l.entries))
	logged = l.bytesThroughLocked(head)
	if name, seq, ok := l.pickCheckpointLocked(^uint64(0)); ok {
		snapshot = int64(len(l.checkpoints[name].Payload))
		logged -= l.bytesThroughLocked(min(seq, head))
	}
	return logged, snapshot
}

// bytesThroughLocked returns the size of the retained records at or below
// seq.
func (l *Log) bytesThroughLocked(seq uint64) int64 {
	if seq <= l.base {
		return 0
	}
	return l.ends[seq-l.base-1]
}

func (l *Log) addCheckpointLocked(c *checkpointRec) {
	l.checkpoints[c.Name] = c
	if l.store != nil {
		if err := l.store.saveCheckpoints(l.checkpoints); err != nil && l.ioErr == nil {
			l.ioErr = err
		}
	}
}

// CheckpointSeq resolves a checkpoint name.
func (l *Log) CheckpointSeq(name string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.checkpoints[name]
	if !ok {
		return 0, false
	}
	return c.Seq, true
}

// CheckpointPayload returns the snapshot payload stored with a checkpoint
// (nil, false when the checkpoint is position-only or unknown).
func (l *Log) CheckpointPayload(name string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.checkpoints[name]
	if !ok || c.Payload == nil {
		return nil, false
	}
	return append([]byte(nil), c.Payload...), true
}

// Checkpoints lists checkpoint names sorted by position.
func (l *Log) Checkpoints() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.checkpoints))
	for n := range l.checkpoints {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if l.checkpoints[names[i]].Seq == l.checkpoints[names[j]].Seq {
			return names[i] < names[j]
		}
		return l.checkpoints[names[i]].Seq < l.checkpoints[names[j]].Seq
	})
	return names
}

// NearestCheckpoint returns the newest payload-bearing checkpoint at or
// below pos — the cheapest clone base for a replica whose applied position
// is pos. ok is false when no payload checkpoint qualifies.
func (l *Log) NearestCheckpoint(pos uint64) (name string, seq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pickCheckpointLocked(pos)
}

// LatestCheckpoint returns the newest payload-bearing checkpoint.
func (l *Log) LatestCheckpoint() (name string, seq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pickCheckpointLocked(^uint64(0))
}

func (l *Log) pickCheckpointLocked(pos uint64) (string, uint64, bool) {
	var bestName string
	var bestSeq uint64
	found := false
	for n, c := range l.checkpoints {
		if c.Payload == nil || c.Seq > pos {
			continue
		}
		if !found || c.Seq > bestSeq || (c.Seq == bestSeq && n < bestName) {
			bestName, bestSeq, found = n, c.Seq, true
		}
	}
	return bestName, bestSeq, found
}

// Register records a replica's applied position. Compaction never drops the
// checkpoint a registered replica would restore from, so a registered
// replica can always resync via checkpoint + tail instead of a cold clone.
func (l *Log) Register(replica string, pos uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.replicas[replica] = pos
}

// Deregister forgets a replica; its positions no longer pin segments.
func (l *Log) Deregister(replica string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.replicas, replica)
}

// PinReplay marks an in-flight replay at pos: compaction will not drop any
// entry above pos until Unpin, regardless of checkpoints. Registration
// alone cannot give that guarantee — a replica positioned below every
// payload checkpoint does not hold the floor (by design, or stale replicas
// would make the log unbounded again), but a replay actively running there
// must not have its entries dropped mid-stream. Pins are transient: they
// live for one resync, advancing as it advances.
func (l *Log) PinReplay(name string, pos uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pins[name] = pos
}

// Unpin removes a replay pin.
func (l *Log) Unpin(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pins, name)
}

// Compact drops entries (and, on disk, whole segments) no resync can ever
// need: everything at or below the oldest checkpoint still needed by a
// registered replica. A replica at position p restores from the newest
// payload checkpoint ≤ p (or clones the latest checkpoint outright when it
// is older than every checkpoint), so entries below that floor are dead.
// Without a payload checkpoint nothing is dropped — the log is the only
// recovery source. Returns how many entries were dropped.
func (l *Log) Compact() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, latest, ok := l.pickCheckpointLocked(^uint64(0))
	if !ok {
		return 0, nil
	}
	floor := latest
	for _, pos := range l.replicas {
		if _, seq, ok := l.pickCheckpointLocked(pos); ok {
			if seq < floor {
				floor = seq
			}
		}
		// A replica below every checkpoint will clone the latest one; its
		// position holds nothing.
	}
	// In-flight replays pin their position absolutely: dropping entries out
	// from under a running tail replay would abort it with ErrCompacted.
	for _, pos := range l.pins {
		if pos < floor {
			floor = pos
		}
	}
	if floor <= l.base {
		return 0, nil
	}
	if l.store != nil {
		// Segment granularity: drop only segments entirely below the floor.
		newBase, err := l.store.compactBelow(floor)
		if err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
			return 0, err
		}
		floor = newBase
		if floor <= l.base {
			return 0, nil
		}
	}
	dropped := int(floor - l.base)
	if dropped > len(l.entries) {
		dropped = len(l.entries)
	}
	l.entries = append([]engine.Event(nil), l.entries[dropped:]...)
	ends := make([]int64, len(l.ends)-dropped)
	for i := range ends {
		ends[i] = l.ends[dropped+i] - l.ends[dropped-1]
	}
	l.ends = ends
	l.base = floor
	return dropped, nil
}

// TruncateTail discards every entry above `to` — the lost-suffix repair a
// failover needs: transactions the old master logged but the promoted slave
// never applied "never happened" in the new position space. Checkpoints
// above the new head are dropped with them.
func (l *Log) TruncateTail(to uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.base + uint64(len(l.entries))
	if to >= head {
		return nil
	}
	if to < l.base {
		return fmt.Errorf("%w: truncate to %d, compacted through %d", ErrCompacted, to, l.base)
	}
	l.entries = append([]engine.Event(nil), l.entries[:to-l.base]...)
	l.ends = append([]int64(nil), l.ends[:to-l.base]...)
	changedCkpt := false
	for name, c := range l.checkpoints {
		if c.Seq > to {
			delete(l.checkpoints, name)
			changedCkpt = true
		}
	}
	if l.store != nil {
		if err := l.store.truncateTail(to, l.entries); err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
			return err
		}
		if changedCkpt {
			if err := l.store.saveCheckpoints(l.checkpoints); err != nil {
				if l.ioErr == nil {
					l.ioErr = err
				}
				return err
			}
		}
	}
	return nil
}

// ResetTo discards every entry and checkpoint and restarts the log at the
// given base (the next append is assigned base+1). Failover uses it when
// the retained log cannot be truncated back to the promoted position
// (compaction already advanced past it): everything retained belongs to the
// lost lineage, so the only sound log is an empty one re-based at the new
// master's position — immediately followed by a fresh checkpoint backup so
// the log has a clone base again.
func (l *Log) ResetTo(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries, l.ends = nil, nil
	l.base = base
	l.checkpoints = make(map[string]*checkpointRec)
	if l.store != nil {
		if err := l.store.reset(); err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
			return err
		}
		if err := l.store.saveCheckpoints(l.checkpoints); err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
			return err
		}
	}
	return nil
}

// ReadFrom returns entries with Seq > after, up to max (0 = all). Reading
// from below the compaction horizon fails with ErrCompacted.
func (l *Log) ReadFrom(after uint64, max int) ([]engine.Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.base {
		return nil, fmt.Errorf("%w: read from %d, compacted through %d", ErrCompacted, after, l.base)
	}
	idx := int(after - l.base)
	if idx >= len(l.entries) {
		return nil, nil
	}
	out := l.entries[idx:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return append([]engine.Event(nil), out...), nil
}
