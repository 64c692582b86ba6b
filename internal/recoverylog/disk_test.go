package recoverylog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(updateEvent(from + i)); err != nil {
			t.Fatalf("append %d: %v", from+i, err)
		}
	}
}

func TestDiskLogReloadsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 10, FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 25)
	l.CheckpointAt("mark", 7)
	if err := l.AddCheckpoint("snap", 20, []byte("backup-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Head() != 25 || l2.Len() != 25 {
		t.Fatalf("reload: head=%d len=%d, want 25/25", l2.Head(), l2.Len())
	}
	if seq, ok := l2.CheckpointSeq("mark"); !ok || seq != 7 {
		t.Fatalf("checkpoint mark: %d %v", seq, ok)
	}
	if payload, ok := l2.CheckpointPayload("snap"); !ok || string(payload) != "backup-bytes" {
		t.Fatalf("checkpoint payload lost: %q %v", payload, ok)
	}
	// Appends continue in the same sequence space.
	appendN(t, l2, 26, 5)
	if l2.Head() != 30 {
		t.Fatalf("head after continued appends = %d, want 30", l2.Head())
	}
	entries, err := l2.ReadFrom(24, 0)
	if err != nil || len(entries) != 6 || entries[0].Seq != 25 || entries[5].Seq != 30 {
		t.Fatalf("ReadFrom(24): %v %v", entries, err)
	}
	// A reloaded entry is the appended event, write set included.
	want := updateEvent(25)
	want.Seq = 25
	if !reflect.DeepEqual(entries[0], want) {
		t.Fatalf("entry 25 reloaded as %+v, want %+v", entries[0], want)
	}
}

func TestDiskLogHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 100, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the segment tail.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reload after torn tail must heal, got %v", err)
	}
	defer l2.Close()
	if l2.Head() != 9 {
		t.Fatalf("head after heal = %d, want 9 (torn entry dropped)", l2.Head())
	}
	// The healed log accepts new appends at the healed position.
	appendN(t, l2, 10, 1)
	if l2.Head() != 10 {
		t.Fatalf("head after re-append = %d", l2.Head())
	}
}

func TestDiskLogCorruptMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 5, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 12) // three segments: 1-5, 6-10, 11-12
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	// Flip a byte in the middle segment: that is corruption, not a torn
	// tail — reload must refuse, not silently drop committed entries.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt middle segment must fail reload")
	}
}

func TestCompactionBoundsLogAndDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 10, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 95)
	if err := l.AddCheckpoint("snap-80", 80, []byte("b")); err != nil {
		t.Fatal(err)
	}
	l.Register("slave-1", 90)
	segsBefore, lenBefore := l.Segments(), l.Len()

	dropped, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("compaction dropped nothing")
	}
	// Slave at 90 restores from snap-80, replaying from 81: segments whose
	// entries all sit at or below 80 are dead — 1..80 (8 whole segments).
	if got := l.CompactedThrough(); got != 80 {
		t.Fatalf("compacted through %d, want 80", got)
	}
	if l.Segments() >= segsBefore || l.Len() >= lenBefore {
		t.Fatalf("compaction did not shrink: segs %d->%d len %d->%d",
			segsBefore, l.Segments(), lenBefore, l.Len())
	}
	if l.Head() != 95 {
		t.Fatalf("head changed by compaction: %d", l.Head())
	}
	// Reading below the horizon must fail loudly, not silently skip.
	if _, err := l.ReadFrom(0, 0); err == nil {
		t.Fatal("read below compaction horizon must error")
	}
	// A registered replica below every checkpoint does not block compaction
	// (it will clone the latest checkpoint), and the bound survives reload.
	l2, err := Open(dir, Options{SegmentEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.CompactedThrough() != 80 || l2.Head() != 95 {
		t.Fatalf("reload after compaction: base=%d head=%d", l2.CompactedThrough(), l2.Head())
	}
}

func TestCompactionWithoutCheckpointKeepsEverything(t *testing.T) {
	l := New()
	appendN(t, l, 1, 50)
	l.Register("r", 50)
	if dropped, _ := l.Compact(); dropped != 0 {
		t.Fatalf("compaction without a payload checkpoint dropped %d entries", dropped)
	}
}

func TestCompactionHonorsStalestRegisteredReplica(t *testing.T) {
	l := New()
	appendN(t, l, 1, 100)
	if err := l.AddCheckpoint("c40", 40, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.AddCheckpoint("c90", 90, []byte("b")); err != nil {
		t.Fatal(err)
	}
	l.Register("fresh", 100)
	l.Register("laggard", 55) // needs c40 + tail
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.CompactedThrough(); got != 40 {
		t.Fatalf("compacted through %d, want 40 (laggard pins c40)", got)
	}
	// Once the laggard advances past c90, the floor moves with it.
	l.Register("laggard", 95)
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.CompactedThrough(); got != 90 {
		t.Fatalf("compacted through %d, want 90", got)
	}
}

func TestCompactionRespectsReplayPins(t *testing.T) {
	l := New()
	appendN(t, l, 1, 100)
	if err := l.AddCheckpoint("c90", 90, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// An in-flight tail replay from 40 sits below every checkpoint: its
	// registration does not hold the floor, but its pin must.
	l.Register("resyncer", 40)
	l.PinReplay("resyncer", 40)
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.CompactedThrough(); got != 40 {
		t.Fatalf("compacted through %d with replay pinned at 40", got)
	}
	// Reading from the pinned position still works mid-compaction.
	if _, err := l.ReadFrom(40, 0); err != nil {
		t.Fatal(err)
	}
	l.Unpin("resyncer")
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.CompactedThrough(); got != 90 {
		t.Fatalf("compacted through %d after unpin, want 90", got)
	}
}

func TestTruncateTailDropsLostSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 5, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 13)
	l.CheckpointAt("above", 12)
	l.CheckpointAt("below", 6)
	if err := l.TruncateTail(8); err != nil {
		t.Fatal(err)
	}
	if l.Head() != 8 {
		t.Fatalf("head after truncate = %d, want 8", l.Head())
	}
	if _, ok := l.CheckpointSeq("above"); ok {
		t.Fatal("checkpoint above the truncation survived")
	}
	if seq, ok := l.CheckpointSeq("below"); !ok || seq != 6 {
		t.Fatal("checkpoint below the truncation lost")
	}
	// New appends continue at 9, and the whole state survives reload.
	appendN(t, l, 9, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Head() != 12 {
		t.Fatalf("head after reload = %d, want 12", l2.Head())
	}
	entries, err := l2.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

func TestResetToRebasesLogAndSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEntries: 5, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 40)
	if err := l.AddCheckpoint("old", 35, []byte("old-lineage")); err != nil {
		t.Fatal(err)
	}
	// Failover landed below the compaction horizon: reset to the promoted
	// position and re-anchor with a fresh checkpoint.
	if err := l.ResetTo(12); err != nil {
		t.Fatal(err)
	}
	if l.Head() != 12 || l.Len() != 0 {
		t.Fatalf("after reset: head=%d len=%d, want 12/0", l.Head(), l.Len())
	}
	if _, ok := l.CheckpointSeq("old"); ok {
		t.Fatal("old-lineage checkpoint survived the reset")
	}
	if err := l.AddCheckpoint("anchor", 12, []byte("new-lineage")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 13, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 15 || l2.CompactedThrough() != 12 {
		t.Fatalf("reload after reset: head=%d base=%d, want 15/12", l2.Head(), l2.CompactedThrough())
	}
	l2.Close()

	// Crash immediately after a reset (before any append): the checkpoint
	// alone must re-base the log on reload instead of being dropped.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l3, 1, 4)
	if err := l3.ResetTo(9); err != nil {
		t.Fatal(err)
	}
	if err := l3.AddCheckpoint("anchor", 9, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil { // crash point: no appends since reset
		t.Fatal(err)
	}
	l4, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	if l4.Head() != 9 || l4.CompactedThrough() != 9 {
		t.Fatalf("checkpoint-only reload: head=%d base=%d, want 9/9", l4.Head(), l4.CompactedThrough())
	}
	if _, seq, ok := l4.LatestCheckpoint(); !ok || seq != 9 {
		t.Fatalf("anchor checkpoint lost: %d %v", seq, ok)
	}
	appendN(t, l4, 10, 2)
	if l4.Head() != 11 {
		t.Fatalf("appends after rebase: head=%d, want 11", l4.Head())
	}
}

func TestDiskLogSurvivesManyReopenCycles(t *testing.T) {
	dir := t.TempDir()
	for cycle := 0; cycle < 5; cycle++ {
		l, err := Open(dir, Options{SegmentEntries: 7, FsyncEvery: 3})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got := l.Head(); got != uint64(cycle*10) {
			t.Fatalf("cycle %d: head %d, want %d", cycle, got, cycle*10)
		}
		appendN(t, l, cycle*10+1, 10)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSinceCheckpointWeighsRecordsAboveLatestPayload: SinceCheckpoint
// counts the disk records above the latest payload checkpoint, the same in
// memory mode, and keeps the count across compaction, reload and a tail
// truncation; a checkpoint taken below the head leaves the records above
// it counted.
func TestSinceCheckpointWeighsRecordsAboveLatestPayload(t *testing.T) {
	// through[n] is the size of the records of entries 1..n.
	through := make([]int64, 13)
	for i := 1; i < len(through); i++ {
		e := updateEvent(i)
		e.Seq = uint64(i)
		rec, err := encodeRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		through[i] = through[i-1] + int64(len(rec))
	}
	check := func(l *Log, wantLogged, wantSnapshot int64) {
		t.Helper()
		if logged, snapshot := l.SinceCheckpoint(); logged != wantLogged || snapshot != wantSnapshot {
			t.Fatalf("SinceCheckpoint() = %d, %d; want %d, %d", logged, snapshot, wantLogged, wantSnapshot)
		}
	}
	dir := t.TempDir()
	disk, err := Open(dir, Options{SegmentEntries: 4, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := New()
	for _, l := range []*Log{disk, mem} {
		appendN(t, l, 1, 10)
		check(l, through[10], 0)
		l.CheckpointAt("position-only", 9)
		if err := l.AddCheckpoint("snap", 6, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		check(l, through[10]-through[6], 100)
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		check(l, through[10]-through[6], 100)
	}
	if disk.CompactedThrough() == 0 || mem.CompactedThrough() == 0 {
		t.Fatalf("nothing compacted: disk through %d, memory through %d", disk.CompactedThrough(), mem.CompactedThrough())
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err = Open(dir, Options{SegmentEntries: 4, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, l := range []*Log{disk, mem} {
		check(l, through[10]-through[6], 100)
		appendN(t, l, 11, 2)
		check(l, through[12]-through[6], 100)
		if err := l.TruncateTail(8); err != nil {
			t.Fatal(err)
		}
		check(l, through[8]-through[6], 100)
		if err := l.ResetTo(20); err != nil {
			t.Fatal(err)
		}
		check(l, 0, 0)
	}
}
