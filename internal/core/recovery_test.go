package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/recoverylog"
)

// waitRecorded waits until the provisioner's recorder has copied the
// master's whole binlog into the recovery log.
func waitRecorded(t *testing.T, prov *Provisioner, master *Replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := prov.RecorderErr(); err != nil {
			t.Fatalf("recorder failed: %v", err)
		}
		if prov.Log().Head() >= master.Engine().Binlog().Head() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("recorder never caught up: log %d, binlog %d",
		prov.Log().Head(), master.Engine().Binlog().Head())
}

// newRecordedCluster boots a master-only cluster whose binlog is followed
// into a fresh in-memory recovery log.
func newRecordedCluster(t *testing.T, fopts FollowOptions) (*MasterSlave, *MSSession, *Provisioner) {
	t.Helper()
	ms, sess := newMSCluster(t, 0, MasterSlaveConfig{ReadFromMaster: true})
	prov := NewProvisioner(recoverylog.New())
	prov.Follow(ms.Master(), fopts)
	t.Cleanup(prov.Unfollow)
	return ms, sess, prov
}

// TestResyncAutoCheckpointTailReplaysFewer is the PR-4 acceptance check: a
// fresh replica initialized from a checkpoint backup replays strictly fewer
// entries than a full-log replay, and converges to the same state.
func TestResyncAutoCheckpointTailReplaysFewer(t *testing.T) {
	ms, sess, prov := newRecordedCluster(t, FollowOptions{})
	for i := 1; i <= 40; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'pre')", i))
	}
	waitRecorded(t, prov, ms.Master())
	ckptSeq, err := prov.CheckpointBackup("snap", ms.Master(), FaithfulBackup)
	if err != nil {
		t.Fatal(err)
	}
	for i := 41; i <= 60; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'post')", i))
	}
	waitRecorded(t, prov, ms.Master())
	fullHead := prov.Log().Head()

	// Full-log replay: the §4.4.2 slow path.
	cold := NewReplica(ReplicaConfig{Name: "cold"})
	resCold, err := prov.Resync(cold, 0, ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resCold.Replayed != int(fullHead) {
		t.Fatalf("full replay applied %d of %d entries", resCold.Replayed, fullHead)
	}

	// Checkpoint + tail.
	fresh := NewReplica(ReplicaConfig{Name: "fresh"})
	res, err := prov.ResyncAuto(fresh, ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cloned || res.CheckpointSeq != ckptSeq {
		t.Fatalf("expected clone from checkpoint %d, got %+v", ckptSeq, res)
	}
	if res.Replayed != int(fullHead-ckptSeq) {
		t.Fatalf("tail replay applied %d entries, want %d", res.Replayed, fullHead-ckptSeq)
	}
	if res.Replayed >= resCold.Replayed {
		t.Fatalf("checkpoint+tail (%d) must replay strictly fewer than full replay (%d)",
			res.Replayed, resCold.Replayed)
	}
	if fresh.Engine().Binlog().Head() != fullHead {
		t.Fatalf("cloned replica's binlog head %d, want %d (position space aligned)",
			fresh.Engine().Binlog().Head(), fullHead)
	}
	checkConverged(t, []*Replica{ms.Master(), cold, fresh}, "shop")
}

// TestResyncAutoClonesStaleReplicaAfterCompaction: once compaction drops
// the early log, a replica below the horizon cannot tail-replay; ResyncAuto
// must fall back to the checkpoint clone while plain Resync fails loudly.
func TestResyncAutoClonesStaleReplicaAfterCompaction(t *testing.T) {
	ms, sess, prov := newRecordedCluster(t, FollowOptions{})
	for i := 1; i <= 30; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i))
	}
	waitRecorded(t, prov, ms.Master())
	if _, err := prov.CheckpointBackup("snap", ms.Master(), FaithfulBackup); err != nil {
		t.Fatal(err)
	}
	for i := 31; i <= 45; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'y')", i))
	}
	waitRecorded(t, prov, ms.Master())
	lenBefore := prov.Log().Len()
	dropped, err := prov.Log().Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || prov.Log().Len() >= lenBefore {
		t.Fatalf("compaction did not bound the log: dropped=%d len %d->%d",
			dropped, lenBefore, prov.Log().Len())
	}

	// A replica whose position predates the horizon: plain Resync refuses.
	stale := NewReplica(ReplicaConfig{Name: "stale"})
	if _, err := prov.Resync(stale, 1, ResyncOptions{BatchWait: 5 * time.Millisecond}, time.Second); !errors.Is(err, recoverylog.ErrCompacted) {
		t.Fatalf("resync below horizon: err = %v, want ErrCompacted", err)
	}
	// ResyncAuto clones the checkpoint instead.
	res, err := prov.ResyncAuto(stale, ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cloned {
		t.Fatalf("stale replica was not cloned: %+v", res)
	}
	checkConverged(t, []*Replica{ms.Master(), stale}, "shop")
}

// TestResyncAutoResumesAfterFailureDuringRecovery drives the scenario the
// paper says is hardest: a second failure in the middle of recovery. The
// first ResyncAuto clones a checkpoint and dies mid-tail; the retry must
// resume from the contiguous applied prefix — no re-clone, no re-replay of
// entries already applied, no skipped entries.
func TestResyncAutoResumesAfterFailureDuringRecovery(t *testing.T) {
	ms, sess, prov := newRecordedCluster(t, FollowOptions{})
	for i := 1; i <= 20; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i))
	}
	waitRecorded(t, prov, ms.Master())
	ckptSeq, err := prov.CheckpointBackup("snap", ms.Master(), FaithfulBackup)
	if err != nil {
		t.Fatal(err)
	}
	for i := 21; i <= 40; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'y')", i))
	}
	waitRecorded(t, prov, ms.Master())
	head := prov.Log().Head()

	fresh := NewReplica(ReplicaConfig{Name: "fresh"})
	crashAt := ckptSeq + 7
	injected := errors.New("injected crash during recovery")
	opts := ResyncOptions{BatchWait: 5 * time.Millisecond, BeforeApply: func(e recoverylog.Entry) error {
		if e.Seq == crashAt {
			return injected
		}
		return nil
	}}
	if _, err := prov.ResyncAuto(fresh, opts, 30*time.Second); !errors.Is(err, injected) {
		t.Fatalf("first resync: err = %v, want injected crash", err)
	}
	if got := fresh.AppliedSeq(); got != crashAt-1 {
		t.Fatalf("applied prefix after crash = %d, want %d", got, crashAt-1)
	}

	// Retry: position is intact and above the horizon, so no clone.
	res, err := prov.ResyncAuto(fresh, ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cloned {
		t.Fatalf("resumed resync re-cloned: %+v", res)
	}
	if res.Replayed != int(head-(crashAt-1)) {
		t.Fatalf("resumed resync replayed %d entries, want %d", res.Replayed, head-(crashAt-1))
	}
	checkConverged(t, []*Replica{ms.Master(), fresh}, "shop")
}

// TestFollowAutoCheckpointsAndCompacts: the recorder takes periodic
// checkpoint backups and compacts, keeping the retained log bounded while
// the binlog (and history) keeps growing.
func TestFollowAutoCheckpointsAndCompacts(t *testing.T) {
	ms, sess, prov := newRecordedCluster(t, FollowOptions{CheckpointEvery: 10})
	for i := 1; i <= 80; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i))
	}
	waitRecorded(t, prov, ms.Master())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, ok := prov.Log().LatestCheckpoint(); ok && prov.Log().CompactedThrough() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, ok := prov.Log().LatestCheckpoint(); !ok {
		t.Fatal("recorder never took an automatic checkpoint")
	}
	if prov.Log().CompactedThrough() == 0 {
		t.Fatal("recorder never compacted")
	}
	if prov.Log().Len() >= int(prov.Log().Head()) {
		t.Fatalf("log not bounded: %d entries retained of %d total",
			prov.Log().Len(), prov.Log().Head())
	}
	// The bounded log still recovers a fresh replica (clone + tail).
	fresh := NewReplica(ReplicaConfig{Name: "fresh"})
	res, err := prov.ResyncAuto(fresh, ResyncOptions{BatchWait: 5 * time.Millisecond}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cloned {
		t.Fatalf("fresh replica should clone the auto checkpoint: %+v", res)
	}
	checkConverged(t, []*Replica{ms.Master(), fresh}, "shop")
}

// TestMonitorAutoFailoverAndRejoin closes the loop: the monitor detects the
// dead master, promotes a slave, repairs the recovery log (lost suffix
// truncated), and when the old master comes back it is rolled back via
// checkpoint clone and re-attached as a slave — all without operator calls.
func TestMonitorAutoFailoverAndRejoin(t *testing.T) {
	reps := newReplicas(t, 3, ReplicaConfig{})
	ms := NewMasterSlave(reps[0], reps[1:], MasterSlaveConfig{
		Consistency: SessionConsistent, FailoverTimeout: 2 * time.Second,
	})
	t.Cleanup(ms.Close)
	prov := NewProvisioner(recoverylog.New())
	prov.Follow(reps[0], FollowOptions{})
	t.Cleanup(prov.Unfollow)

	sess := ms.NewSession("test")
	t.Cleanup(sess.Close)
	for _, sql := range []string{
		"CREATE DATABASE shop", "USE shop",
		"CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)",
	} {
		mustExecC(t, sess.Exec, sql)
	}
	for i := 1; i <= 20; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'a')", i))
	}
	waitCaughtUp(t, ms)
	waitRecorded(t, prov, ms.Master())
	if _, err := prov.CheckpointBackup("pre-crash", ms.Master(), FaithfulBackup); err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(ms, time.Millisecond)
	mon.EnableAutoRejoin(prov, ResyncOptions{BatchWait: 5 * time.Millisecond})
	mon.Start()
	t.Cleanup(mon.Stop)

	// Kill the master. The monitor must promote without help.
	old := ms.Master()
	old.Fail()
	deadline := time.Now().Add(3 * time.Second)
	for ms.Master() == old && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	promoted := ms.Master()
	if promoted == old {
		t.Fatal("monitor never failed over")
	}
	// The log was repaired: its head matches the promoted master's position
	// and the recorder now follows the new master.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if prov.Followed() == promoted && prov.Log().Head() <= promoted.Engine().Binlog().Head() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if prov.Followed() != promoted {
		t.Fatalf("recorder still follows the dead master")
	}

	// Writes continue against the new master.
	for i := 21; i <= 30; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'b')", i))
	}

	// The old master comes back; the monitor rejoins it as a slave.
	old.Recover()
	deadline = time.Now().Add(5 * time.Second)
	for mon.Rejoins() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if mon.Rejoins() != 1 {
		t.Fatal("monitor never rejoined the recovered master")
	}
	if len(ms.Slaves()) != 2 {
		t.Fatalf("slave set after rejoin: %d, want 2", len(ms.Slaves()))
	}
	waitCaughtUp(t, ms)
	all := append([]*Replica{ms.Master()}, ms.Slaves()...)
	checkConverged(t, all, "shop")
	// A session-consistent read after the dust settles sees every write.
	res := mustExecC(t, sess.Exec, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("rows after failover+rejoin = %v, want 30", res.Rows[0][0])
	}
}

// TestFailoverToTruncatesLostSuffix: events the old master logged but the
// promoted slave never applied must vanish from the recovery log, or a
// later resync would replay transactions the cluster does not contain.
func TestFailoverToTruncatesLostSuffix(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{ApplyDelay: 5 * time.Millisecond})
	prov := NewProvisioner(recoverylog.New())
	prov.Follow(ms.Master(), FollowOptions{})
	t.Cleanup(prov.Unfollow)

	waitCaughtUp(t, ms)
	// Burst writes so the slave lags, then kill the master immediately.
	for i := 1; i <= 10; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'x')", i))
	}
	waitRecorded(t, prov, ms.Master())
	oldHead := prov.Log().Head()
	ms.Master().Fail()
	promoted, err := ms.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.FailoverTo(promoted); err != nil {
		t.Fatal(err)
	}
	newHead := promoted.Engine().Binlog().Head()
	if got := prov.Log().Head(); got != newHead {
		t.Fatalf("log head after repair = %d, want promoted position %d (was %d)",
			got, newHead, oldHead)
	}
	if lost := ms.LostTransactions(); oldHead-newHead != lost {
		t.Fatalf("truncated %d entries, cluster reports %d lost", oldHead-newHead, lost)
	}
	if prov.Followed() != promoted {
		t.Fatal("recorder not re-pointed at the promoted master")
	}
	// New commits record cleanly at the repaired positions.
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (100, 'after')")
	waitRecorded(t, prov, promoted)
	if err := prov.RecorderErr(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverFromLaggingRecorderKeepsAckedCommits: the recorder lags the
// slaves when the master dies, and the master's binlog dies with it, so
// after FailoverTo the log catches up from the promoted slave's own binlog.
// Those events must carry the master's statements and database, or their
// entries replay as nothing and a restart from disk drops acknowledged
// commits.
func TestFailoverFromLaggingRecorderKeepsAckedCommits(t *testing.T) {
	dir := t.TempDir()
	rlog, err := recoverylog.Open(dir, recoverylog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, sess := newMSCluster(t, 2, MasterSlaveConfig{})
	prov := NewProvisioner(rlog)
	// After its first pass the recorder idles for an hour: every commit
	// below is acknowledged and applied by the slaves but not yet logged.
	prov.Follow(ms.Master(), FollowOptions{Poll: time.Hour})
	waitRecorded(t, prov, ms.Master())
	for i := 1; i <= 20; i++ {
		mustExecC(t, sess.Exec, fmt.Sprintf("INSERT INTO items (id, name, stock) VALUES (%d, 'n%d', %d)", i, i, i))
	}
	mustExecC(t, sess.Exec, "UPDATE items SET stock = stock * 10 WHERE id <= 5")
	mustExecC(t, sess.Exec, "BEGIN")
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (21, 'txn')")
	mustExecC(t, sess.Exec, "DELETE FROM items WHERE id = 20")
	mustExecC(t, sess.Exec, "COMMIT")
	waitCaughtUp(t, ms)

	old := ms.Master()
	old.Fail()
	promoted, err := ms.Failover()
	if err != nil {
		t.Fatal(err)
	}
	// A crashed master's binlog is gone with its process: the recorder's
	// parting drain cannot copy what it had not logged yet.
	old.Engine().Binlog().Reset(old.Engine().Binlog().Head())
	if err := prov.FailoverTo(promoted); err != nil {
		t.Fatal(err)
	}
	waitRecorded(t, prov, promoted)
	prov.Unfollow()
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := recoverylog.Open(dir, recoverylog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	restored := NewReplica(ReplicaConfig{Name: "restored"})
	if _, err := NewProvisioner(reopened).ResyncAuto(restored, ResyncOptions{BatchWait: 5 * time.Millisecond}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckDivergence([]*Replica{promoted, restored}, "shop")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("restart from disk lost acknowledged commits: %v", rep)
	}
	res, err := restored.ExecOn(restored.Engine().NewSession("check"), "SELECT COUNT(*) FROM shop.items", true)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 20 {
		t.Fatalf("restored %d rows, want 20", n)
	}
}
